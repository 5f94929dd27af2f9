"""The benchmark's own tests, at the smoke size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
from run import select  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_spec_names_every_metric_with_its_expected_effect():
    with open(os.path.join(BENCH, "metric_effects.json"), encoding="utf-8") as fh:
        effects = json.load(fh)
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert workloads == list(WORKLOADS)
    assert list(effects) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"}
    for effect in effects.values():
        assert set(effect["moves"]) <= end_to_end
        assert set(effect["workloads"]) <= set(workloads)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_and_agrees_with_the_oracles(workload, trace):
    done = run_bench("--workload", workload, "--seed", "1", "--size", "smoke",
                     "--seconds", "0.1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(v for k, v in metrics.items() if k.endswith("_s")
                         and k not in ("traced_wall_s", "unaccounted_s",
                                       "traced_overhead_s"))
        assert self_times + metrics["unaccounted_s"] == pytest.approx(
            metrics["traced_wall_s"])


def test_missing_hook_target_makes_its_metrics_absent(monkeypatch):
    import homind.cli  # noqa: F401  (loads every hooked module)

    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + [
        ("homind.engine", "_Basis.no_such_method", "engine.basis.try_insert")])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"engine.basis.try_insert"}
    spec = [{"name": "engine.basis.macs", "unit": "MAC"},
            {"name": "engine.kernel.schur_s", "unit": "s"}]
    metrics, absent = select(spec, {"engine.kernel.schur_s": 1.5},
                             tracer.missing)
    assert absent == ["engine.basis.macs"]
    assert metrics == {"engine.kernel.schur_s": {"value": 1.5, "unit": "s"}}


def test_self_times_partition_the_decision(tmp_path):
    import homind.engine as engine
    from homind.cli import main

    for name, edges in (("g", "0 1\n1 2\n2 3\n"), ("h", "0 1\n0 2\n0 3\n")):
        (tmp_path / f"{name}.graph").write_text(f"n 4 m 3\n{edges}")
    argv = ["modhomind", str(tmp_path / "g.graph"), str(tmp_path / "h.graph"),
            "--builtin", "tw-all", "--k", "2", "--prime", "101"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.decision(7, lambda: main(argv)) == 1
    finally:
        tracer.uninstall()
    assert not hasattr(engine.modhomind, "__wrapped__")
    assert set(tracer.decision_of) == {7}
    times, calls = tracer.self_times()
    assert calls[tracing.ROOT_SPAN] == 1 and calls["engine.closure"] == 1
    assert calls["engine.basis.try_insert"] == tracer.counts["engine.basis.candidates"]
    assert min(times.values()) >= 0
    root = [i for i, p in enumerate(tracer.parent) if p < 0]
    assert len(root) == 1
    assert sum(times.values()) == pytest.approx(
        tracer.end[root[0]] - tracer.start[root[0]])


def test_host_speed_samples_inside_a_long_call():
    import signal
    import time

    from run import REF_EVERY_S, HostSpeed

    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as host:
        end = time.perf_counter() + 10 * REF_EVERY_S
        while time.perf_counter() < end:  # busy, never back in the pass loop
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.samples) >= 5
    assert 0 < host.spent < 10 * REF_EVERY_S
    assert host.scale() > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "lasserre", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
