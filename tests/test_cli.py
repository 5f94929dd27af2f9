"""End-to-end tests of the command-line frontend.

Each test drives ``homind.cli.main`` in process and checks exit codes,
the key=value line contract, the JSON mirror, and byte-for-byte
reproducibility of seeded runs.
"""

import decimal
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from homind.cli import main
from homind.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    parse_graph,
    path_graph,
    serialize_graph,
)
from homind.oracle import (
    class_membership,
    enumerate_graphs_up_to,
    exact_pathwidth_tiny,
    exact_treewidth_tiny,
)

from test_cli_golden import GRAPHS


def run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def files(tmp_path):
    """Write the standard fixture graphs, return their paths as strings."""
    paths = {}
    fixtures = {
        "c6": cycle_graph(6),
        "2k3": disjoint_union(complete_graph(3), complete_graph(3)),
        "p3": path_graph(3),
        "p4": path_graph(4),
        "k3": complete_graph(3),
        "p2k1": disjoint_union(path_graph(2), empty_graph(1)),
        "g7": GRAPHS["g7"],
        "h7": GRAPHS["h7"],
    }
    for name, g in fixtures.items():
        p = tmp_path / f"{name}.graph"
        p.write_text(serialize_graph(g))
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


def permuted(files, capsys, src, seed):
    out_path = files["dir"] + f"/perm{seed}.graph"
    rc, _, _ = run(["graph", "permute", files[src], "--seed", str(seed),
                    "--out", out_path], capsys)
    assert rc == 0
    return out_path


# === verdict commands ===


def test_modhomind_rejects_with_witness_line(files, capsys):
    rc, out, _ = run(["modhomind", "--builtin", "tw-all", "--k", "3",
                      "--prime", "101", files["c6"], files["2k3"]], capsys)
    assert rc == 1
    lines = out.splitlines()
    assert "verdict=reject" in lines
    assert "rejecting_prime=101" in lines
    assert "witness=n 3 m 3 0 1 0 2 1 2" in lines


def test_homind_random_accepts_isomorphic_pair(files, capsys):
    twin = permuted(files, capsys, "p4", 5)
    rc, out, _ = run(["homind", "--builtin", "tw-all", "--k", "2",
                      "--mode", "random", "--seed", "1",
                      files["p4"], twin], capsys)
    assert rc == 0
    assert out.startswith("seed=1\n")
    assert "verdict=accept" in out.splitlines()


def test_seeded_runs_are_byte_identical(files, capsys):
    twin = permuted(files, capsys, "c6", 3)
    argv = ["homind", "--builtin", "tw-all", "--k", "1",
            "--mode", "random", "--seed", "42", files["c6"], twin]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("command, pair, code", [
    (("homind", "--builtin", "tw-all", "--k", "2"), ("p3", "k3"), 1),
    # an accept the integer tw-all partition certifies: exact, no prime
    (("pwhomind", "--builtin", "paths"), ("c6", "2k3"), 0),
    (("lasserre", "--t", "1"), ("c6", "c6"), 0),
    # the level-2 bound at n = 6 needs more than 50 bits, but random mode
    # draws no prime for Lasserre, so the cap is never reached
    (("lasserre", "--t", "2", "--bit-cap", "50"), ("c6", "2k3"), 1),
], ids=["homind", "pwhomind", "lasserre", "lasserre-t2-bit-cap"])
def test_parallel_fanout_output_is_identical(files, capsys, command, pair, code):
    """``--parallel`` is accepted for compatibility and changes nothing:
    primes are decided one at a time either way.  Every case here is
    decided over the integers, with no prime."""
    argv = [*command, "--mode", "random", "--seed", "6",
            *(files[name] for name in pair)]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv + ["--parallel", "3"], capsys)
    assert rc1 == rc2 == code
    assert out1 == out2
    assert "mode=exact" in out1.splitlines()


def test_parallel_below_one_is_a_usage_error(files, capsys):
    rc, out, err = run(["homind", "--builtin", "tw-all", "--k", "2", "--mode",
                        "random", "--seed", "6", "--parallel", "0",
                        files["p3"], files["k3"]], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: parallel must be at least 1\n"


@pytest.mark.parametrize("command", [
    ("homind", "--builtin", "tw-all", "--k", "2"),
    ("homind", "--builtin", "paths"),
    ("pwhomind", "--builtin", "paths"),
    ("lasserre", "--t", "1"),
], ids=["tw-all", "paths", "pwhomind", "lasserre"])
@pytest.mark.parametrize("flags, error", [
    (("--mode", "random", "--prime-bits", "3"), "prime_bits must be at least 5"),
    (("--mode", "random", "--parallel", "0"), "parallel must be at least 1"),
    (("--mode", "deterministic", "--parallel", "0"), "parallel must be at least 1"),
], ids=["prime-bits", "parallel-random", "parallel-deterministic"])
def test_bad_trial_flags_exit_2_before_any_output(files, capsys, command, flags,
                                                   error):
    """One rule for every deciding command and class, whether or not the
    class draws primes: a bad --prime-bits or --parallel exits 2 and
    prints nothing, not even the seed."""
    for as_json in ((), ("--json",)):
        rc, out, err = run([*command, *flags, "--seed", "6", *as_json,
                            files["p4"], files["p4"]], capsys)
        assert (rc, out, err) == (2, "", f"error: {error}\n")


def test_cli_import_loads_no_openssl():
    """The default seed comes from ``os.urandom``: importing the CLI pulls
    in neither ``secrets`` nor the OpenSSL-backed ``_hashlib``."""
    code = ("import sys, homind.cli; "
            "print(sorted({'secrets', 'hmac', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.stdout == "[]\n"


def test_default_seed_comes_from_entropy_and_is_echoed(files, capsys):
    twin = permuted(files, capsys, "c6", 8)
    argv = ["homind", "--builtin", "tw-all", "--k", "1", files["c6"], twin]
    rc, out, _ = run(argv, capsys)
    assert rc == 0
    seed_line = out.splitlines()[0]
    assert seed_line.startswith("seed=")
    seed = int(seed_line.split("=", 1)[1])
    rc2, replay, _ = run(argv + ["--seed", str(seed)], capsys)
    assert rc2 == 0 and replay == out


def test_pwhomind_deterministic_crt(files, capsys):
    twin = permuted(files, capsys, "p4", 2)
    rc, out, _ = run(["pwhomind", "--builtin", "paths", "--mode",
                      "deterministic", files["p4"], twin], capsys)
    assert rc == 0
    assert "mode=deterministic-crt" in out.splitlines()


def test_homind_deterministic_is_a_usage_error(files, capsys):
    """Deterministic mode of a multi-state treewidth automaton has no prime
    set small enough; one-state classes are decided exactly instead."""
    rc, _, err = run(["homind", "--builtin", "paths",
                      "--mode", "deterministic", files["c6"], files["2k3"]],
                     capsys)
    assert rc == 2
    assert "pathwidth" in err


def test_lasserre_single_prime_reject(files, capsys):
    rc, out, _ = run(["lasserre", "--t", "1", "--mode", "single-prime",
                      "--prime", "101", files["c6"], files["2k3"]], capsys)
    assert rc == 1
    assert "rejecting_prime=101" in out.splitlines()


def test_lasserre_random_accepts_permuted_pair(files, capsys):
    twin = permuted(files, capsys, "k3", 7)
    rc, out, _ = run(["lasserre", "--t", "1", "--seed", "11",
                      files["k3"], twin], capsys)
    assert rc == 0
    assert "verdict=accept" in out.splitlines()


def test_prime_flag_needs_single_prime_mode(files, capsys):
    rc, _, err = run(["homind", "--builtin", "tw-all", "--k", "2",
                      "--prime", "7", files["c6"], files["2k3"]], capsys)
    assert rc == 2
    assert "--mode single-prime" in err


def test_hex_prime_accepted(files, capsys):
    rc, out, _ = run(["modhomind", "--builtin", "tw-all", "--k", "1",
                      "--prime", "0x65", files["c6"], files["c6"]], capsys)
    assert rc == 0
    assert "prime=101" in out.splitlines()


def test_prime_bits_heuristic_is_flagged(files, capsys):
    """G7/H7 under the multi-state paths automaton is uncertified, so
    --prime-bits decides trial_count(2^15) = 60 primes of 16 bits and
    flags the verdict; a pair the integer partition certifies, or a
    one-state class, is decided exactly, so --prime-bits changes nothing
    there."""
    rc, out, _ = run(["pwhomind", "--builtin", "paths", "--mode", "random",
                      "--seed", "5", "--prime-bits", "16",
                      files["g7"], files["h7"]], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "note=heuristic: prime-bits mode, error bound not certified" in lines
    primes = [int(line[6:]) for line in lines if line.startswith("prime=")]
    assert len(primes) == 60 and all(p.bit_length() == 16 for p in primes)
    twin = permuted(files, capsys, "p4", 4)
    for exact in (["homind", "--builtin", "tw-all", "--k", "1"],
                  ["pwhomind", "--builtin", "paths"]):
        exact += ["--mode", "random", "--seed", "5", files["p4"], twin]
        rc_exact, out_exact, _ = run(exact, capsys)
        assert (rc_exact, out_exact) == (0, "seed=5\nverdict=accept\nmode=exact\n"
                                            "witness=none\n")
        assert run(exact + ["--prime-bits", "16"], capsys)[:2] == (0, out_exact)


def test_prime_sampler_cap_exits_2(files, capsys, monkeypatch):
    """A generator that yields only composites exhausts the sampler's cap:
    the decision exits 2 and prints no verdict."""
    import homind.engine

    class Composite:
        def __init__(self, seed):
            pass

        def randrange(self, lo, hi):
            return hi - 1 - (hi - 1) % 2  # even, and above 2

    monkeypatch.setattr(homind.engine, "Xoshiro256StarStar", Composite)
    rc, out, err = run(["pwhomind", "--builtin", "paths", "--mode", "random",
                        "--seed", "5", files["g7"], files["h7"]], capsys)
    assert (rc, out) == (2, "seed=5\n")
    assert err.startswith("error: no prime in ")


@pytest.mark.parametrize("command", [
    ("homind", "--builtin", "tw-all", "--k", "2"),
    ("lasserre", "--t", "1"),
], ids=["tw-all", "lasserre"])
def test_one_state_classes_decide_exactly_in_both_integer_modes(
        files, capsys, command):
    """P4 against K_{1,3} (hom(P3, .) is 10 against 12): random mode echoes
    the seed, then both modes print the same exact reject, with no prime."""
    star = files["dir"] + "/star.graph"
    Path(star).write_text("n 4 m 3\n0 1\n0 2\n0 3\n")
    argv = [*command, files["p4"], star]
    verdict = "verdict=reject\nmode=exact\nwitness=none\n"
    assert run([*argv, "--mode", "deterministic"], capsys) == (1, verdict, "")
    assert run([*argv, "--mode", "random", "--seed", "9"], capsys) == (
        1, "seed=9\n" + verdict, "")


# === JSON mirror ===


def test_json_verdict_object(files, capsys):
    rc, out, _ = run(["modhomind", "--builtin", "tw-all", "--k", "3",
                      "--prime", "101", files["c6"], files["2k3"], "--json"],
                     capsys)
    assert rc == 1
    obj = json.loads(out)
    assert obj["verdict"] == "reject"
    assert obj["prime"] == 101
    assert obj["rejecting_prime"] == 101
    assert obj["witness"] == "n 3 m 3 0 1 0 2 1 2"


def test_json_collects_repeated_primes_into_array(files, capsys):
    twin = permuted(files, capsys, "c6", 12)
    rc, out, _ = run(["pwhomind", "--builtin", "paths", "--mode",
                      "deterministic", files["c6"], twin, "--json"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert isinstance(obj["prime"], list)
    assert obj["prime"][:3] == [2, 3, 5]


def test_json_verdict_mirrors_the_lines(files, capsys):
    """P3 against P2 + K1: the small stage accepts at 2 and rejects at 3
    on hom(K2, -) = 4 against 2; both renderings carry the same pairs."""
    argv = ["pwhomind", "--builtin", "paths", "--mode", "deterministic",
            files["p3"], files["p2k1"]]
    rc, out, _ = run(argv, capsys)
    rc_json, out_json, _ = run(argv + ["--json"], capsys)
    assert rc == rc_json == 1
    pairs = {}
    for line in out.splitlines():
        key, value = line.split("=", 1)
        if key == "prime":
            pairs.setdefault(key, []).append(value)
        else:
            pairs[key] = value
    obj = json.loads(out_json)
    assert pairs == {key: [str(x) for x in value] if isinstance(value, list)
                     else str(value) for key, value in obj.items()}
    assert obj == {"verdict": "reject", "mode": "deterministic-crt",
                   "prime": [2, 3], "rejecting_prime": 3,
                   "witness": "n 2 m 1 0 1"}


# === analysis commands ===


def test_wl_exit_codes_track_refinement(files, capsys):
    rc1, out1, _ = run(["wl", files["c6"], files["2k3"], "--k", "1"], capsys)
    rc2, out2, _ = run(["wl", files["c6"], files["2k3"], "--k", "2"], capsys)
    assert rc1 == 0 and "indistinguishable=true" in out1
    assert rc2 == 1 and "indistinguishable=false" in out2


def test_oracle_reports_witness_and_counts(files, capsys):
    rc, out, _ = run(["oracle", files["c6"], files["2k3"],
                      "--class", "all", "--max-size", "3"], capsys)
    assert rc == 1
    lines = out.splitlines()
    assert "witness=n 3 m 3 0 1 0 2 1 2" in lines
    assert "count_left=0" in lines
    assert "count_right=12" in lines
    rc2, out2, _ = run(["oracle", files["c6"], files["2k3"],
                        "--class", "tw:1", "--max-size", "5"], capsys)
    assert rc2 == 0
    assert "family_size=22" in out2.splitlines()
    # with --prime the counts are residues, and the modulus is echoed
    assert run(["oracle", files["c6"], files["2k3"], "--class", "all",
                "--max-size", "3", "--prime", "5"], capsys) == (1, (
        "class=all\nmax_size=3\nmodulus=5\nverdict=reject\nfamily_size=7\n"
        "witness=n 3 m 3 0 1 0 2 1 2\ncount_left=0\ncount_right=2\n"), "")


def test_enumerate_lists_paths(files, capsys):
    rc, out, _ = run(["enumerate", "--class", "paths", "--max-size", "4"],
                     capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "count=4" in lines
    assert "graph=n 4 m 3 0 1 1 2 2 3" in lines
    # level 1 of Lasserre: every graph on at most 4 vertices but K4
    members = ["n 1 m 0", "n 2 m 0", "n 2 m 1 0 1", "n 3 m 0", "n 3 m 1 0 1",
               "n 3 m 2 0 1 0 2", "n 3 m 3 0 1 0 2 1 2", "n 4 m 0",
               "n 4 m 1 0 3", "n 4 m 2 1 2 2 3", "n 4 m 2 0 1 2 3",
               "n 4 m 3 0 1 0 2 1 2", "n 4 m 3 0 1 1 2 1 3",
               "n 4 m 3 0 1 1 3 2 3", "n 4 m 4 0 1 0 2 1 3 2 3",
               "n 4 m 4 0 1 0 2 1 2 1 3", "n 4 m 5 0 1 0 2 0 3 1 2 2 3"]
    assert run(["enumerate", "--class", "lasserre-t1", "--max-size", "4"],
               capsys) == (0, "class=lasserre-t1\nmax_size=4\ncount=17\n"
                           + "".join(f"graph={g}\n" for g in members), "")
    # and 42 graphs on at most 5 vertices, 25 of them on exactly 5
    rc, out, err = run(["enumerate", "--class", "lasserre-t1", "--max-size", "5"],
                       capsys)
    lines = out.splitlines()
    graphs = [line for line in lines if line.startswith("graph=")]
    assert (rc, err, lines[:3]) == (0, "", ["class=lasserre-t1", "max_size=5", "count=42"])
    assert len(graphs) == len(set(graphs)) == 42
    assert sum(g.startswith("graph=n 5 ") for g in graphs) == 25


def test_enumerate_rejects_a_negative_width(files, capsys):
    rc, out, err = run(["enumerate", "--class", "pw:-1", "--max-size", "3"],
                       capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "non-negative" in err


def test_enumerate_rejects_a_negative_max_size(files, capsys):
    rc, out, err = run(["enumerate", "--class", "tw:1", "--max-size", "-1"],
                       capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: max size must be non-negative: -1\n"


def test_oracle_rejects_a_negative_max_size(files, capsys):
    rc, out, err = run(["oracle", files["p3"], files["k3"], "--class", "tw:1",
                        "--max-size", "-1"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: max size must be non-negative: -1\n"


def test_bounds_treewidth_worked_example(files, capsys):
    rc, out, _ = run(["bounds", "--tw", "--n", "6", "--k", "2", "--C", "1"],
                     capsys)
    assert rc == 0
    lines = out.splitlines()
    assert f"N={2**72}" in lines
    assert "trials=295" in lines


def test_bounds_lasserre_worked_example(files, capsys):
    rc, out, _ = run(["bounds", "--lasserre", "--n", "2", "--t", "1",
                      "--json"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert (obj["N"], obj["L"], obj["trials"]) == (512, 512, 36)


def test_bounds_print_in_full_past_the_int_string_limit(files, capsys):
    """N = 2^21,600 has 6,503 digits, more than Python 3.11 and later turn
    into a string by default: every line is printed, N and L in full, in
    both renderings, and the interpreter's limit is restored afterwards."""
    with decimal.localcontext() as ctx:
        ctx.prec = 10_000
        N = decimal.Decimal(2) ** 21_600
        L = N * 6  # ceil(log2 60)
    argv = ["bounds", "--tw", "--k", "2", "--n", "60", "--C", "3"]
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    previous = get_limit() if get_limit else None
    if get_limit:
        sys.set_int_max_str_digits(4321)  # a value the command must put back
    try:
        rc, out, err = run(argv, capsys)
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["family=tw", "n=60", "k=2", "C=3",
                                    f"N={N:f}", f"L={L:f}", "trials=86411"]
        rc, out, err = run(argv + ["--json"], capsys)
        assert (rc, err) == (0, "")
        obj = json.loads(out, parse_int=decimal.Decimal)
        assert (obj["N"], obj["L"], obj["trials"]) == (N, L, 86411)
        if get_limit:
            assert get_limit() == 4321
    finally:
        if get_limit:
            sys.set_int_max_str_digits(previous)


def test_bounds_missing_arity_is_usage_error(files, capsys):
    rc, _, err = run(["bounds", "--tw", "--n", "6"], capsys)
    assert rc == 2
    assert "--k" in err


def test_validate_automaton_ok_and_failing(files, capsys):
    rc, out, _ = run(["validate-automaton", "--builtin", "paths",
                      "--class", "paths", "--context-bound", "4"], capsys)
    assert rc == 0
    assert "ok=true" in out.splitlines()
    rc2, out2, _ = run(["validate-automaton", "--builtin", "paths",
                       "--class", "all", "--context-bound", "3"], capsys)
    assert rc2 == 1
    lines = out2.splitlines()
    assert "ok=false" in lines
    assert "kind=acceptance" in lines
    # one J transition of paths redirected to the start state: the empty
    # term and a two-edge path now share state 0, and a context tells
    # them apart
    text = resources.files("homind").joinpath("data/paths_k2.aut").read_text()
    lines = text.splitlines(keepends=True)
    assert lines[100] == "J 1 5 -> 4\n"
    lines[100] = "J 1 5 -> 0\n"
    merged = files["dir"] + "/merged.aut"
    Path(merged).write_text("".join(lines))
    assert run(["validate-automaton", "--automaton", merged, "--class", "paths",
                "--context-bound", "4"], capsys) == (1, (
        "arity=2\nstates=13\nok=false\nkind=state-merge\nterm1=one\n"
        "term2=J(1,A(1,2,J(2,A(1,2,one))))\n"
        "context=A(1,2,glue(J(1,A(1,2,one)),J(2,A(1,2,one))))\n"
        "detail=both trace to state 0 but the context verdicts differ "
        "(True vs False)\n"
        "terms_checked=26\ncontexts_checked=26\n"), "")


def test_width_zero_and_forest_membership_match_the_exact_widths():
    members = {spec: class_membership(spec) for spec in ("tw:0", "pw:0", "tw:1")}
    for g in enumerate_graphs_up_to(6):
        assert members["tw:0"](g) == (exact_treewidth_tiny(g) <= 0)
        assert members["pw:0"](g) == (exact_pathwidth_tiny(g) <= 0)
        assert members["tw:1"](g) == (exact_treewidth_tiny(g) <= 1)
    assert members["tw:1"](path_graph(20))
    assert not members["tw:1"](cycle_graph(20))


def test_validate_automaton_forest_class_past_eight_vertices(files, capsys):
    # tw:1 is decided as a forest test, so contexts of 9 vertices pass
    rc, out, err = run(["validate-automaton", "--builtin", "tw-all", "--k", "2",
                        "--class", "tw:1", "--context-bound", "9",
                        "--term-depth", "3"], capsys)
    assert (rc, err) == (0, "")
    assert "ok=true" in out.splitlines()


# === construction commands ===


def test_cfi_stdout_is_a_parseable_graph(files, capsys):
    rc, out, _ = run(["cfi", files["k3"], "--parity", "1"], capsys)
    assert rc == 0
    gadget = parse_graph(out)
    assert (gadget.n, gadget.m) == (6, 6)
    assert out == ("# gadget over base n=3 m=3, parity=1\n"
                   "n 6 m 6\n0 3\n0 4\n1 2\n1 5\n2 4\n3 5\n")
    # --json without --out embeds the same graph text
    assert run(["cfi", files["k3"], "--parity", "1", "--json"], capsys) == (
        0, json.dumps({"parity": 1, "vertices": 6, "edges": 6, "graph": out})
        + "\n", "")


def test_cfi_out_file_and_manifest(files, capsys, tmp_path):
    dest = str(tmp_path / "even.graph")
    rc, out, _ = run(["cfi", files["k3"], "--parity", "0", "--out", dest],
                     capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "parity=0" in lines and "vertices=6" in lines
    assert parse_graph(Path(dest).read_text()).n == 6


def test_gen_writes_pair_with_manifest(files, capsys, tmp_path):
    prefix = str(tmp_path / "hard")
    rc, out, _ = run(["gen", "wl-hardness", files["k3"], "--k", "1",
                      "--out-prefix", prefix], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "kind=wl-hardness" in lines and "k=1" in lines
    left = parse_graph(Path(prefix + "_left.graph").read_text())
    right = parse_graph(Path(prefix + "_right.graph").read_text())
    assert left.n == right.n == 6
    rc_wl, _, _ = run(["wl", prefix + "_left.graph", prefix + "_right.graph",
                       "--k", "1"], capsys)
    assert rc_wl == 0


def test_gen_json_embeds_both_graphs(files, capsys):
    rc, out, _ = run(["gen", "clique-reduction", files["p4"], "--k", "3",
                      "--json"], capsys)
    assert rc == 0
    obj = json.loads(out)
    assert parse_graph(obj["graph_left"]).n == 24
    assert parse_graph(obj["graph_right"]).n == 24
    # with neither --json nor --out-prefix, both graphs go to stdout
    assert run(["gen", "wl-hardness", files["k3"], "--k", "2"], capsys) == (
        0, "# wl-hardness k=2 left\nn 6 m 6\n0 2\n0 4\n1 3\n1 5\n2 4\n3 5\n"
           "# wl-hardness k=2 right\nn 6 m 6\n0 3\n0 4\n1 2\n1 5\n2 4\n3 5\n",
        "")


def test_graph_random_is_seed_deterministic(files, capsys):
    argv = ["graph", "random", "--n", "6", "--seed", "9"]
    rc1, out1, _ = run(argv, capsys)
    rc2, out2, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.startswith("# random seed=9")
    assert parse_graph(out1).n == 6
    # --json without --out embeds the graph text
    assert run(["graph", "random", "--n", "4", "--seed", "9", "--json"],
               capsys) == (0, json.dumps({
                   "seed": 9, "n": 4, "m": 4,
                   "graph": "# random seed=9 p=0.5\nn 4 m 4\n0 1\n0 2\n0 3\n1 3\n"})
                   + "\n", "")


def test_graph_random_rejects_a_negative_order(files, capsys):
    rc, out, err = run(["graph", "random", "--n", "-3", "--seed", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "negative" in err


def test_graph_random_rejects_a_probability_outside_the_unit_interval(files, capsys):
    rc, out, err = run(["graph", "random", "--n", "3", "--p", "2", "--seed", "1"],
                       capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "[0, 1]" in err


def test_graph_info_reports_widths(files, capsys):
    rc, out, _ = run(["graph", "info", files["c6"]], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert "n=6" in lines and "m=6" in lines
    assert "treewidth=2" in lines and "pathwidth=2" in lines
    assert "connected=true" in lines


# === environment and failure modes ===


def test_budget_env_var_overrides_default(files, capsys, monkeypatch):
    monkeypatch.setenv("HOMIND_BUDGET", "10")
    rc, _, err = run(["wl", files["c6"], files["2k3"], "--k", "2"], capsys)
    assert rc == 2
    assert "refinement budget" in err
    rc2, _, _ = run(["wl", files["c6"], files["2k3"], "--k", "2",
                     "--budget", "200000"], capsys)
    assert rc2 == 1  # explicit flag beats the environment


def test_missing_file_is_a_processing_error(files, capsys):
    rc, _, err = run(["wl", files["dir"] + "/nope.graph", files["c6"],
                      "--k", "1"], capsys)
    assert rc == 2
    assert "error:" in err


def test_unknown_subcommand_is_usage_error(files, capsys):
    rc, _, err = run(["frobnicate"], capsys)
    assert rc == 2


def test_composite_prime_is_rejected(files, capsys):
    rc, _, err = run(["modhomind", "--builtin", "tw-all", "--k", "1",
                      "--prime", "9", files["c6"], files["c6"]], capsys)
    assert rc == 2
    assert "not prime" in err
