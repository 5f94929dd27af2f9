"""homind benchmark: decide a fixed, seeded batch of graph pairs through
``homind.cli.main`` and report end-to-end or per-module metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload tw-closure --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 1
    python3 perfbench/run.py --workload lasserre --size smoke --trace 1

One process, one thread, closed loop: a single caller starts each
decision when the previous one has returned.  The batch is decided
again and again until ``--seconds`` have been spent, every verdict is
checked against an exact oracle (outside the timed region) and every
stdout must be byte-identical across the repeats.  Wall and set-up times
are scaled to nominal host speed by a reference kernel timed between
decisions (see reference.py); the raw times go to the record too.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``).

With ``--trace 1`` the batch is decided once untraced, then twice with
spans around the calls into each module (see tracing.py), each time
followed by one untraced pass.  Both traced passes, and a traced pass in
a fresh interpreter with another hash seed, must give identical exact
counts.  Spans and a JSON record of the run, with the machine it ran on,
go to ``.perfbench/`` in the root.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere

# glibc keeps freed memory for reuse instead of handing it back to the
# system.  tw-all closures allocate and free large arrays on every basis
# insert; with glibc's defaults a tw-closure pass faults in ~200 MB of
# fresh pages (50,000 faults), and on a virtual machine the cost of a
# fault follows the host's memory pressure, not the program.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=68719476736")
if __name__ == "__main__" and os.environ.get("GLIBC_TUNABLES") != MALLOC_TUNABLES:
    # glibc reads its tunables at start-up only: restart in place
    os.environ["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import reference  # noqa: E402
from tracing import SPAN_NAMES, Tracer, metric_span  # noqa: E402
from workloads import TW_PRIME, WORKLOADS, cli_seed, make_batch  # noqa: E402

SETUP_SAMPLES = 7
REF_EVERY_S = 0.05  # wall time between two host speed samples
REF_SETUP_SAMPLES = 5  # host speed samples before and after each import
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy, homind.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)
# Counts that must repeat exactly between two traced repeats.
EXACT_COUNTS = (
    "engine.basis.candidates", "engine.basis.inserts", "engine.basis.macs",
    "engine.dim_total", "lasserre.kernel.matmul_macs", "lasserre.dim_total",
    "modular.draws", "modular.primes_found", "modular.zero_prime_runs",
    "graphs.hom_count_calls",
)


# --- environment ---------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup():
    """Median time to import homind.cli with numpy in a fresh interpreter,
    each import scaled to nominal host speed by reference samples taken
    just before and after it; returns the scaled and the raw median.  One
    unrecorded import first, so bytecode compilation is not counted."""
    host = lambda: [reference.time_once() for _ in range(REF_SETUP_SAMPLES)]
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        before = host()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        ref = statistics.fmean(before + host())
        if i:
            seconds = float(done.stdout.strip().splitlines()[-1])
            raw.append(seconds)
            scaled.append(seconds * reference.NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def machine():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "glibc_tunables": os.environ.get("GLIBC_TUNABLES"),
        "git_commit": git_commit(),
    }


# --- one batch ----------------------------------------------------------


class Decision:
    def __init__(self, pair, argv, expected):
        self.pair = pair
        self.argv = argv
        self.expected = expected  # exact verdict, True = accept
        self.times = []
        self.codes = []
        self.stdouts = []
        self.errors = []

    def problems(self):
        """Why this decision failed the gate (empty if it passed), and
        whether the failure is one no correct decider could produce."""
        out, fatal = [], False
        for code, err in zip(self.codes, self.errors):
            if err or code not in (0, 1):
                out.append(f"exit {code}: {err.strip()[-200:]}")
                return out, True
        if len(set(self.stdouts)) > 1:
            out.append("stdout differs between repeats of the same argv")
            fatal = True
        stdout = self.stdouts[0]
        accept = self.codes[0] == 0
        if f"verdict={'accept' if accept else 'reject'}\n" not in stdout:
            out.append("exit code disagrees with the printed verdict")
            fatal = True
        if accept != self.expected:
            out.append(f"verdict {'accept' if accept else 'reject'}, exact "
                       f"oracle {'accept' if self.expected else 'reject'}")
            # A randomized accept may be wrong (one-sided error); a reject
            # of an indistinguishable pair never may.
            fatal = fatal or not (self.pair.randomized and accept)
        return out, fatal


def invoke(main, argv):
    """One closed-loop call of main(argv): exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the gate reports it as a failed decision
            code = 2
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def build_batch(name, seed, size, workdir, oracles):
    os.makedirs(workdir, exist_ok=True)
    decisions = []
    for i, pair in enumerate(make_batch(name, seed, size, oracles)):
        files = []
        for tag, g in (("G", pair.g), ("H", pair.h)):
            path = os.path.join(workdir, f"{i:02d}-{tag}.graph")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(g.text())
            files.append(path)
        argv = [pair.flags[0], *files, *pair.flags[1:]]
        if pair.randomized:
            argv += ["--seed", str(cli_seed(seed, i))]
        decisions.append(Decision(pair, argv, oracles.expected(pair, TW_PRIME)))
    return decisions


class HostSpeed:
    """While open, times the reference kernel (see reference.py) once on
    entry and then every REF_EVERY_S of wall time from a SIGALRM handler,
    so that samples fall inside long decisions too."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds taken by the samples

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append(reference.time_once())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self):
        """The factor that turns seconds measured while open into seconds
        at nominal host speed."""
        return reference.NOMINAL_S / statistics.fmean(self.samples)


def run_pass(main, decisions, tracer=None):
    """Decide the whole batch once; returns the pass's wall time."""
    start = time.perf_counter()
    for i, d in enumerate(decisions):
        t = time.perf_counter()
        if tracer is None:
            code, out, err = invoke(main, d.argv)
        else:
            code, out, err = tracer.decision(i, lambda: invoke(main, d.argv))
        d.times.append(time.perf_counter() - t)
        d.codes.append(code)
        d.stdouts.append(out)
        d.errors.append(err if code not in (0, 1) else "")
    return time.perf_counter() - start


def repeat_passes(main, decisions, seconds, minimum):
    """Decide the batch, sampling host speed, until `seconds` would be
    overrun by one more pass (at least `minimum` passes); returns each
    pass's wall time and scale factor."""
    walls, scales = [], []
    start = time.perf_counter()
    while len(walls) < minimum or (
            time.perf_counter() - start + min(walls) <= seconds):
        with HostSpeed() as host:
            wall = run_pass(main, decisions)
        walls.append(wall - host.spent)
        scales.append(host.scale())
    return walls, scales


# --- the two kinds of run -----------------------------------------------


def gate(decisions):
    attempted = sum(len(d.codes) for d in decisions)
    failed, correct, lines = 0, True, []
    for d in decisions:
        problems, fatal = d.problems()
        if problems:
            failed += len(d.codes)
            correct = correct and not fatal
            lines += [f"FAILED {d.pair.label}: {p}" for p in problems]
    return correct, attempted, failed, lines


def zero_prime_runs(decisions):
    """Randomized decisions whose output lists no prime."""
    return sum(1 for d in decisions if d.pair.randomized
               and "\nprime=" not in "\n" + d.stdouts[0])


def end_to_end(main, decisions, seconds):
    """wall_s is the median pass, each pass scaled to nominal host speed:
    on a shared host the same pass runs up to ~1.5x slower for seconds to
    minutes at a time, and the reference kernel slows with it."""
    walls, scales = repeat_passes(main, decisions, seconds, minimum=3)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = {"passes": len(walls), "pass_walls_s": walls,
            "pass_scales": scales, "raw_wall_s": statistics.median(walls)}
    wall = statistics.median(w * k for w, k in zip(walls, scales))
    return {"wall_s": wall, "peak_rss_mb": rss_mb}, info


def traced_pass(main, decisions):
    tracer = Tracer()
    tracer.install()
    try:
        wall = run_pass(main, decisions, tracer)
    finally:
        tracer.uninstall()
    return wall, tracer


def exact_counts(main, decisions):
    """EXACT_COUNTS of a traced pass after one untraced warm-up pass."""
    run_pass(main, decisions)
    wall, tracer = traced_pass(main, decisions)
    metrics = layer_metrics(tracer, wall)
    return {k: metrics[k] for k in EXACT_COUNTS}


def exact_counts_elsewhere(args):
    """exact_counts() of the same batch in a fresh interpreter with another
    hash seed, so counts that depend on process state show up."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size, "--trace", "1",
         "--exact-counts"],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_layer(main, decisions, spans_path, args):
    """One untraced warm-up pass, then two traced passes, each followed by
    an untraced one that the tracing overhead is taken against.  Layer
    metrics come from the faster traced pass.  Its exact counts must equal
    those of the other traced pass and those of a fresh interpreter."""
    run_pass(main, decisions)
    traced, beside = [], []
    for _ in range(2):
        traced.append(traced_pass(main, decisions))
        beside.append(run_pass(main, decisions))
    first, second = (layer_metrics(t, w) for w, t in traced)
    elsewhere = exact_counts_elsewhere(args)
    mismatched = [k for k in EXACT_COUNTS
                  if not first[k] == second[k] == elsewhere[k]]
    metrics = min(first, second, key=lambda m: m["traced_wall_s"])
    metrics["traced_overhead_s"] = (
        statistics.median(w for w, _ in traced) - statistics.median(beside))
    tracer = traced[0][1] if metrics is first else traced[1][1]
    tracer.write(spans_path)
    info = {"untraced_pass_walls_s": beside,
            "traced_pass_walls_s": [w for w, _ in traced],
            "spans": len(tracer.start), "missing_hooks": sorted(tracer.missing),
            "exact_count_mismatches": mismatched}
    return metrics, info


def layer_metrics(tracer, wall):
    """Every per-layer quantity the trace gives, by metric name; spans and
    counters that never fired read 0."""
    times, calls = tracer.self_times()
    m = defaultdict(int, tracer.counts)
    m.update({f"{name}_s": 0.0 for name in SPAN_NAMES})
    m.update({f"{name}_s": t for name, t in times.items()})
    m.update({f"{name}_calls": c for name, c in calls.items()})
    m["engine.basis.insert_ratio"] = (
        m["engine.basis.inserts"] / m["engine.basis.candidates"]
        if m["engine.basis.candidates"] else 0.0)
    m["modular.prime_hit_ratio"] = (
        m["modular.primes_found"] / m["modular.draws"]
        if m["modular.draws"] else 0.0)
    m["traced_wall_s"] = wall
    m["unaccounted_s"] = wall - sum(times.values())
    return m


# --- driver ----------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def select(spec_metrics, measured, missing_spans=()):
    """The spec's metrics, in spec order, with their units.  A per-layer
    metric whose hook target is missing is absent, not zero."""
    out, absent = {}, []
    for entry in spec_metrics:
        name = entry["name"]
        if metric_span(name) in missing_spans:
            absent.append(name)
        else:
            out[name] = {"value": measured[name], "unit": entry["unit"]}
    return out, absent


@contextlib.contextmanager
def batch(args, tag):
    """homind.cli.main and the workload's decisions, on input files that
    are removed afterwards."""
    sys.path.insert(0, SRC)
    from homind.cli import main
    from oracles import Oracles

    workdir = os.path.join(OUT, "inputs", f"{tag}-{os.getpid()}")
    try:
        yield main, build_batch(args.workload, args.seed, args.size, workdir,
                                Oracles())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args):
    spec = load_spec()
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup()

    tag = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with batch(args, tag) as (main, decisions):
        if args.trace:
            spans_path = os.path.join(OUT, "results", f"{tag}.spans.tsv.gz")
            measured, info = per_layer(main, decisions, spans_path, args)
            metrics, absent = select(spec["per_layer"], measured,
                                     info["missing_hooks"])
        else:
            measured, info = end_to_end(main, decisions, args.seconds)
            measured["setup_s"] = setup_s
            info["raw_setup_s"] = raw_setup_s
            metrics, absent = select(spec["end_to_end"], measured)

    correct, attempted, failed, lines = gate(decisions)
    if args.trace and info["exact_count_mismatches"]:
        correct = False
        lines.append("exact counts differ between traced repeats: "
                     + ", ".join(info["exact_count_mismatches"]))
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "decisions": len(decisions),
        "failed_frac": failed / attempted,
        "zero_prime_runs": zero_prime_runs(decisions),
        "absent": absent, **info,
        "verdicts": [{"pair": d.pair.label, "argv": d.argv, "exit": d.codes[0],
                      "expected": "accept" if d.expected else "reject",
                      "primes": d.stdouts[0].count("prime=")
                      - d.stdouts[0].count("rejecting_prime="),
                      "times_s": d.times}
                     for d in decisions],
        "metrics": metrics,
    }
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "git_commit"):
        print(f"env.{key}={record['machine'][key]}")
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"decisions={len(decisions)} trace={args.trace}")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} raw wall_s = {info['raw_wall_s']} s, raw "
              f"setup_s = {info['raw_setup_s']} s (before host speed scaling)")
    print(f"{args.workload} failed_frac = {failed / attempted} ratio")
    if failed:
        print(f"{args.workload} modular.zero_prime_runs = "
              f"{record['zero_prime_runs']} count")
    for name in absent:
        print(f"{args.workload} {name} absent (hook target missing)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args):
    """Every workload in its own process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        sub = json.loads(lines[-1])
        result["correct"] = result["correct"] and sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for metric, value in sub["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = value
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    # internal: print the exact counts of one traced pass (see per_layer)
    parser.add_argument("--exact-counts", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homind", "cli.py")):
        print(f"error: no homind sources under {SRC}", file=sys.stderr)
        return 2
    if args.exact_counts:
        with batch(args, f"{args.workload}-counts") as (main_, decisions):
            print(json.dumps(exact_counts(main_, decisions)))
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
