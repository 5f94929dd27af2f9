"""Command-line frontend for the indistinguishability deciders.

One binary, one subcommand per capability:

  homind      exact-count decision over a recognisable bounded-treewidth
              class (randomized prime sampling by default; one-state
              classes, small-stage rejects and pairs the integer tw-all
              partition certifies are decided over the integers, with no
              prime)
  modhomind   the same decision modulo one explicit prime
  pwhomind    the pathwidth flavour (no Schur closure); supports the
              deterministic CRT mode on top of random / single-prime
  lasserre    level-t relaxation decision (over the integers in random
              and deterministic mode, or single-prime)
  wl          k-dimensional Weisfeiler-Leman equivalence (the integer
              tw-all partition at arity k + 1, balanced or not)
  cfi         build one even/odd gadget graph over a base graph
  gen         reduction generators (wl-hardness, clique-reduction)
  oracle      brute-force hom-count comparison over an enumerated class
  enumerate   list the enumerated members of a class
  bounds      print the count bound, prime range, and error exponent
  validate-automaton  hunt for counterexamples to a recogniser
  graph       inspect, generate, or permute graph files

Output is line-oriented ``key=value`` text (the stable contract); --json
mirrors the same pairs as a single JSON object, with repeated keys
collected into arrays.  Graph-producing subcommands (cfi, gen, graph
random/permute) instead print a plain graph file on stdout — metadata
rides in ``#`` comments so the stream stays pipeable — and switch to a
key=value manifest when writing files via --out / --out-prefix.

Identical argv and seed produce byte-identical output.  Seeds default
to OS entropy but are always echoed so any run can be replayed.  Exit
codes: 0 accept/ok, 1 reject/distinguished, 2 usage or processing
error, out of memory included.  The environment variable HOMIND_BUDGET
overrides the default work budget (the steps of one exact count) wherever
a --budget flag exists; a budget below 1, from either, exits 2 before
anything is printed.
"""

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager
from functools import cache

from .engine import (
    Verdict,
    _blocks_balanced,
    _refine,
    homind_deterministic_crt,
    homind_randomized,
    modhomind,
    modhomind_pw,
    verdict_pairs,
)
from .graphs import (
    DEFAULT_WORK_BUDGET,
    Graph,
    compact_graph,
    connected_components,
    is_connected,
    parse_graph,
    serialize_graph,
)
from .lasserre import lasserre_mod
from .modular import BoundOverflow, bound_lasserre, bound_pw, bound_tw
from .oracle import (
    class_members,
    class_membership,
    exact_pathwidth_tiny,
    exact_treewidth_tiny,
    homind_bruteforce,
)
from .recognizer import builtin, parse_automaton, validate_automaton
from .wl import cfi, gen_clique_reduction, gen_wl_hardness


class _Output:
    """Ordered key/value collector behind both output formats.

    Line mode prints pairs as they arrive; JSON mode holds them and
    dumps one object at the end (repeated keys become arrays), so both
    renderings carry exactly the same data in the same order.
    """

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.pairs = []

    def emit(self, key, value):
        self.pairs.append((key, value))
        if not self.as_json:
            if isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key}={value}")

    def emit_verdict(self, verdict: Verdict):
        for key, value in verdict_pairs(verdict):
            self.emit(key, value)

    def finish(self):
        if not self.as_json:
            return
        obj = {}
        for key, value in self.pairs:
            if key in obj:
                if not isinstance(obj[key], list):
                    obj[key] = [obj[key]]
                obj[key].append(value)
            else:
                obj[key] = value
        print(json.dumps(obj))


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _resolve_automaton(args):
    if args.automaton is not None:
        with open(args.automaton, "r", encoding="utf-8") as fh:
            aut = parse_automaton(fh.read())
        if args.k is not None and args.k != aut.k:
            raise ValueError(
                f"--k {args.k} contradicts the automaton file (arity {aut.k})"
            )
        return aut
    k = args.k
    if k is None:
        if args.builtin == "paths":
            k = 2
        else:
            raise ValueError("--builtin needs --k (the label arity)")
    return builtin(args.builtin, k)


def _seed_of(args) -> int:
    """The --seed given, or 64 bits of OS entropy (``os.urandom``, which
    loads no OpenSSL, unlike ``secrets``)."""
    if args.seed is None:
        return int.from_bytes(os.urandom(8), "big")
    return args.seed


# === verdict-producing subcommands ===


def _decide(args, single, randomized, deterministic) -> int:
    """Body of every deciding subcommand: load both graphs, check the mode
    flags and print the verdict of ``single(G, H, p)``,
    ``randomized(G, H, seed)`` or ``deterministic(G, H)``.  Every flag is
    checked, in every mode and for every class, before anything is
    printed."""
    G = _load_graph(args.graph_g)
    H = _load_graph(args.graph_h)
    out = _Output(args.json)
    if args.prime is not None and args.mode != "single-prime":
        raise ValueError("--prime requires --mode single-prime")
    if args.prime_bits is not None and args.mode != "random":
        raise ValueError("--prime-bits requires --mode random")
    if args.prime_bits is not None and args.prime_bits < 5:
        raise ValueError("prime_bits must be at least 5")
    if args.parallel < 1:
        raise ValueError("parallel must be at least 1")
    if args.mode == "single-prime":
        if args.prime is None:
            raise ValueError("--mode single-prime needs --prime")
        verdict = single(G, H, args.prime)
    elif args.mode == "random":
        seed = _seed_of(args)
        out.emit("seed", seed)
        verdict = randomized(G, H, seed)
    else:
        verdict = deterministic(G, H)
    out.emit_verdict(verdict)
    out.finish()
    return 0 if verdict.accept else 1


def _cmd_engine(args, variant: str) -> int:
    aut = _resolve_automaton(args)
    modular = modhomind if variant == "tw" else modhomind_pw
    return _decide(
        args,
        lambda G, H, p: modular(G, H, aut, p, budget=args.budget),
        lambda G, H, seed: homind_randomized(
            G, H, aut, variant, seed=seed, bit_cap=args.bit_cap,
            budget=args.budget, prime_bits=args.prime_bits),
        lambda G, H: homind_deterministic_crt(
            G, H, aut, variant, prime_budget=args.prime_budget,
            bit_cap=args.bit_cap, budget=args.budget),
    )


def cmd_homind(args) -> int:
    return _cmd_engine(args, "tw")


def cmd_pwhomind(args) -> int:
    return _cmd_engine(args, "pw")


def cmd_lasserre(args) -> int:
    decide = lambda G, H, p=None: lasserre_mod(G, H, args.t, p)
    return _decide(args, decide, lambda G, H, seed: decide(G, H), decide)


# === analysis subcommands ===


def cmd_wl(args) -> int:
    """k-WL equivalence is HI over treewidth at most k (Dvořák 2010), the
    tw-all class at arity k + 1, which its integer partition decides."""
    G = _load_graph(args.graph_g)
    H = _load_graph(args.graph_h)
    if args.k < 1:
        raise ValueError("k must be >= 1")
    same = _blocks_balanced(*_refine(G, H, args.k + 1, None), None)
    out = _Output(args.json)
    out.emit("k", args.k)
    out.emit("indistinguishable", same)
    out.finish()
    return 0 if same else 1


def cmd_oracle(args) -> int:
    G = _load_graph(args.graph_g)
    H = _load_graph(args.graph_h)
    result = homind_bruteforce(G, H, args.class_spec, args.max_size,
                               modulus=args.prime, budget=args.budget)
    out = _Output(args.json)
    out.emit("class", args.class_spec)
    out.emit("max_size", args.max_size)
    if args.prime is not None:
        out.emit("modulus", args.prime)
    out.emit("verdict", "accept" if result.indistinguishable else "reject")
    out.emit("family_size", result.family_size)
    out.emit("witness", compact_graph(result.witness) if result.witness else "none")
    if result.counts is not None:
        out.emit("count_left", result.counts[0])
        out.emit("count_right", result.counts[1])
    out.finish()
    return 0 if result.indistinguishable else 1


def cmd_enumerate(args) -> int:
    members = class_members(args.class_spec, args.max_size)
    out = _Output(args.json)
    out.emit("class", args.class_spec)
    out.emit("max_size", args.max_size)
    out.emit("count", len(members))
    for g in members:
        out.emit("graph", compact_graph(g))
    out.finish()
    return 0


@contextmanager
def _unlimited_int_digits():
    """Integer-to-decimal conversion of any length inside the block:
    Python 3.11 and later refuse integers of more than 4300 digits by
    default.  The previous limit is restored on the way out."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(previous)


def cmd_bounds(args) -> int:
    if args.lasserre:
        if args.t is None:
            raise ValueError("--lasserre needs --t")
        bounds = bound_lasserre(args.n, args.t, bit_cap=args.bit_cap)
        pairs = [("family", "lasserre"), ("n", args.n), ("t", args.t)]
    else:
        if args.k is None:
            raise ValueError("--tw/--pw need --k")
        fn = bound_tw if args.tw else bound_pw
        bounds = fn(args.n, args.k, args.C, bit_cap=args.bit_cap)
        pairs = [("family", "tw" if args.tw else "pw"), ("n", args.n),
                 ("k", args.k), ("C", args.C)]
    pairs += [("N", bounds.N), ("L", bounds.L), ("trials", bounds.trials)]
    out = _Output(args.json)
    with _unlimited_int_digits():  # N and L run up to the bit cap, 2^20 bits
        for key, value in pairs:
            out.emit(key, value)
        out.finish()
    return 0


def cmd_validate(args) -> int:
    aut = _resolve_automaton(args)
    membership = class_membership(args.class_spec)
    report = validate_automaton(aut, membership, args.context_bound,
                                term_depth=args.term_depth)
    out = _Output(args.json)
    out.emit("arity", aut.k)
    out.emit("states", aut.states)
    out.emit("ok", report.ok)
    if not report.ok:
        out.emit("kind", report.kind)
        if report.term1:
            out.emit("term1", report.term1)
        if report.term2:
            out.emit("term2", report.term2)
        if report.context:
            out.emit("context", report.context)
        if report.detail:
            out.emit("detail", report.detail)
    out.emit("terms_checked", report.terms_checked)
    out.emit("contexts_checked", report.contexts_checked)
    out.finish()
    return 0 if report.ok else 1


# === construction subcommands ===
#
# These print a plain graph file on stdout (metadata tucked into '#'
# comments, so the stream stays parseable and pipeable); with --out /
# --out-prefix they write files and print a key=value manifest instead.
# --json always carries the metadata plus the embedded graph text.


def _deliver_graph(out: _Output, meta, text: str, path):
    """meta: ordered (key, value) metadata pairs for manifest/JSON."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for key, value in meta:
            out.emit(key, value)
        out.emit("out", path)
    elif out.as_json:
        for key, value in meta:
            out.emit(key, value)
        out.pairs.append(("graph", text))
    else:
        sys.stdout.write(text)


def cmd_cfi(args) -> int:
    base = _load_graph(args.base)
    instance = cfi(base, args.parity)
    out = _Output(args.json)
    header = (f"# gadget over base n={base.n} m={base.m}, "
              f"parity={args.parity}\n")
    meta = [("parity", args.parity),
            ("vertices", instance.result.n),
            ("edges", instance.result.m)]
    _deliver_graph(out, meta, header + serialize_graph(instance.result), args.out)
    out.finish()
    return 0


def cmd_gen(args) -> int:
    base = _load_graph(args.base)
    if args.kind == "wl-hardness":
        left, right, k = gen_wl_hardness(base, args.k)
    else:
        left, right, k = gen_clique_reduction(base, args.k)
    out = _Output(args.json)
    meta = [("kind", args.kind), ("k", k),
            ("vertices_left", left.n), ("vertices_right", right.n)]
    if args.out_prefix is not None:
        for key, value in meta:
            out.emit(key, value)
        for tag, g in (("left", left), ("right", right)):
            path = f"{args.out_prefix}_{tag}.graph"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_graph(g))
            out.emit(f"file_{tag}", path)
    elif args.json:
        for key, value in meta:
            out.emit(key, value)
        out.pairs.append(("graph_left", serialize_graph(left)))
        out.pairs.append(("graph_right", serialize_graph(right)))
    else:
        sys.stdout.write(f"# {args.kind} k={k} left\n" + serialize_graph(left))
        sys.stdout.write(f"# {args.kind} k={k} right\n" + serialize_graph(right))
    out.finish()
    return 0


def cmd_graph(args) -> int:
    out = _Output(args.json)
    if args.action in ("info", "permute") and args.file is None:
        raise ValueError(f"graph {args.action} needs a file argument")
    if args.action == "info":
        g = _load_graph(args.file)
        out.emit("n", g.n)
        out.emit("m", g.m)
        out.emit("degrees", " ".join(str(d) for d in sorted(g.degree_sequence())))
        out.emit("connected", is_connected(g))
        out.emit("components", len(connected_components(g)))
        if g.n <= 8:
            out.emit("treewidth", exact_treewidth_tiny(g))
            out.emit("pathwidth", exact_pathwidth_tiny(g))
        out.finish()
        return 0
    seed = _seed_of(args)
    rng = random.Random(seed)
    if args.action == "random":
        if args.n is None:
            raise ValueError("graph random needs --n")
        if not 0 <= args.p <= 1:
            raise ValueError(f"--p must be in [0, 1], got {args.p}")
        edges = [(u, v) for u in range(args.n) for v in range(u + 1, args.n)
                 if rng.random() < args.p]
        g = Graph.from_edges(args.n, edges)
        header = f"# random seed={seed} p={args.p}\n"
    else:  # permute
        src = _load_graph(args.file)
        perm = list(range(src.n))
        rng.shuffle(perm)
        g = Graph.from_edges(src.n, [(perm[u], perm[v]) for u, v in src.edges])
        header = f"# permutation of {args.file} seed={seed}\n"
    meta = [("seed", seed), ("n", g.n), ("m", g.m)]
    _deliver_graph(out, meta, header + serialize_graph(g), args.out)
    out.finish()
    return 0


# === parser ===


def _add_automaton_flags(sp, k_required=False):
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--automaton", metavar="FILE",
                     help="recogniser file (fixes the arity)")
    grp.add_argument("--builtin", metavar="NAME",
                     help="builtin recogniser: tw-all or paths")
    sp.add_argument("--k", type=int, default=None,
                    help="label arity (required with --builtin tw-all)")


def _add_common_engine_flags(sp):
    sp.add_argument("graph_g", metavar="G.graph")
    sp.add_argument("graph_h", metavar="H.graph")
    sp.add_argument("--mode", choices=("random", "deterministic", "single-prime"),
                    default="random")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of the prime draws (default: OS entropy, echoed)")
    sp.add_argument("--prime-bits", type=int, default=None, dest="prime_bits",
                    help="heuristic mode: sample primes of this width")
    sp.add_argument("--parallel", type=int, default=1,
                    help="accepted for compatibility (at least 1); "
                         "primes are decided one at a time")
    sp.add_argument("--bit-cap", type=int, default=None, dest="bit_cap",
                    help="abort if the count bound needs more bits than this")
    sp.add_argument("--prime", type=_prime_arg, default=None,
                    help="modulus for single-prime mode (decimal or 0x hex)")
    sp.add_argument("--budget", type=int, default=None,
                    help="work budget for the small stage's exact counts")
    sp.add_argument("--json", action="store_true",
                    help="emit one JSON object instead of key=value lines")


def _prime_arg(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  ``--budget`` defaults
    to None there; ``main`` fills it in per call, from HOMIND_BUDGET or
    ``DEFAULT_WORK_BUDGET``."""
    parser = argparse.ArgumentParser(
        prog="homind",
        description="homomorphism indistinguishability deciders",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    sp = sub.add_parser("homind", help="decide over a bounded-treewidth class")
    _add_automaton_flags(sp)
    _add_common_engine_flags(sp)
    sp.add_argument("--prime-budget", type=int, default=10000, dest="prime_budget",
                    help="CRT mode: largest allowed prime count")
    sp.set_defaults(func=cmd_homind)

    sp = sub.add_parser("modhomind", help="decide modulo one prime")
    _add_automaton_flags(sp)
    sp.add_argument("graph_g", metavar="G.graph")
    sp.add_argument("graph_h", metavar="H.graph")
    sp.add_argument("--prime", type=_prime_arg, required=True,
                    help="prime modulus (decimal or 0x hex)")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    # modhomind is homind's single-prime mode, with --prime required
    sp.set_defaults(func=cmd_homind, mode="single-prime", prime_bits=None,
                    parallel=1)

    sp = sub.add_parser("pwhomind", help="decide over a bounded-pathwidth class")
    _add_automaton_flags(sp)
    _add_common_engine_flags(sp)
    sp.add_argument("--prime-budget", type=int, default=10000, dest="prime_budget",
                    help="CRT mode: largest allowed prime count")
    sp.set_defaults(func=cmd_pwhomind)

    sp = sub.add_parser("lasserre", help="decide the level-t relaxation")
    sp.add_argument("--t", type=int, required=True, choices=(1, 2),
                    help="relaxation level (1 or 2)")
    _add_common_engine_flags(sp)
    sp.set_defaults(func=cmd_lasserre)

    sp = sub.add_parser("wl", help="decide k-WL equivalence")
    sp.add_argument("graph_g", metavar="G.graph")
    sp.add_argument("graph_h", metavar="H.graph")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_wl)

    sp = sub.add_parser("cfi", help="build an even/odd gadget graph")
    sp.add_argument("base", metavar="BASE.graph")
    sp.add_argument("--parity", type=int, choices=(0, 1), required=True)
    sp.add_argument("--out", default=None, help="write the gadget here")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_cfi)

    sp = sub.add_parser("gen", help="reduction generators")
    sp.add_argument("kind", choices=("wl-hardness", "clique-reduction"))
    sp.add_argument("base", metavar="BASE.graph")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out-prefix", default=None, dest="out_prefix",
                    help="write PREFIX_left.graph and PREFIX_right.graph")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("oracle", help="brute-force hom-count comparison")
    sp.add_argument("graph_g", metavar="G.graph")
    sp.add_argument("graph_h", metavar="H.graph")
    sp.add_argument("--class", required=True, dest="class_spec",
                    help='class spec: all, tw:1, pw:2, paths, lasserre-t1')
    sp.add_argument("--max-size", type=int, required=True, dest="max_size",
                    help="largest member size to enumerate")
    sp.add_argument("--prime", type=_prime_arg, default=None,
                    help="compare residues instead of exact counts")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("enumerate", help="list enumerated class members")
    sp.add_argument("--class", required=True, dest="class_spec")
    sp.add_argument("--max-size", type=int, required=True, dest="max_size")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("bounds", help="count bound, prime range, error exponent")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--tw", action="store_true")
    grp.add_argument("--pw", action="store_true")
    grp.add_argument("--lasserre", action="store_true")
    sp.add_argument("--n", type=int, required=True, help="largest graph order")
    sp.add_argument("--k", type=int, default=None, help="label arity (tw/pw)")
    sp.add_argument("--t", type=int, default=None, choices=(1, 2),
                    help="level (lasserre): 1 or 2")
    sp.add_argument("--C", type=int, default=1, help="automaton state count")
    sp.add_argument("--bit-cap", type=int, default=None, dest="bit_cap")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("validate-automaton",
                        help="hunt for counterexamples to a recogniser")
    _add_automaton_flags(sp)
    sp.add_argument("--class", required=True, dest="class_spec",
                    help="membership oracle: all, paths, tw:1, pw:2")
    sp.add_argument("--context-bound", type=int, required=True,
                    dest="context_bound")
    sp.add_argument("--term-depth", type=int, default=None, dest="term_depth")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("graph", help="inspect, generate, or permute graphs")
    sp.add_argument("action", choices=("info", "random", "permute"))
    sp.add_argument("file", nargs="?", default=None, metavar="FILE.graph")
    sp.add_argument("--n", type=int, default=None, help="order (random)")
    sp.add_argument("--p", type=float, default=0.5, help="edge probability")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 0) is None:
            args.budget = int(os.environ.get("HOMIND_BUDGET", DEFAULT_WORK_BUDGET))
        if getattr(args, "budget", 1) < 1:
            raise ValueError(f"budget must be at least 1, got {args.budget}")
        return args.func(args)
    except (ValueError, OSError, BoundOverflow, RuntimeError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
