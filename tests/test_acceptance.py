"""Acceptance gate: one test per release criterion.

Each criterion is a property of the package as a whole — engine kernels
against brute-force tensors, verdicts against independent oracles,
closed-form bounds against their defining formulas, soundness over
random isomorphic pairs.  Every test prints one summary line; running
``pytest -v tests/test_acceptance.py`` yields exactly one pass/fail
line per criterion.

Randomness is always drawn from seeded generators so the gate is
reproducible run to run.
"""

import random
import time

from homind.engine import (
    BlockOps,
    homind_deterministic_crt,
    homind_randomized,
    modhomind,
    modhomind_pw,
    term_block,
)
from homind.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hom_count,
    is_isomorphic_small,
    serialize_graph,
)
from homind.labelled import enumerate_lasserre, enumerate_tw, soe
from homind.lasserre import lasserre_mod
from homind.modular import (
    bound_lasserre,
    bound_pw,
    bound_tw,
    ceil_log2,
    is_prime,
)
from homind.oracle import (
    enumerate_graphs_up_to,
    homind_bruteforce,
    is_path_graph,
    paths_oracle,
)
from homind.recognizer import (
    Automaton,
    builtin,
    parse_automaton,
    trace_term,
    validate_automaton,
)
from homind.wl import cfi, gen_clique_reduction, wl_refine

from conftest import PATHS_K1, enumerate_pw, hom_tensor, permuted_copy, random_graph

BIG_PRIME = (1 << 128) - 159


def random_prime_32(rng) -> int:
    while True:
        candidate = rng.randrange(1 << 31, 1 << 32) | 1
        if is_prime(candidate):
            return candidate


def test_criterion_01_tensor_algebra_laws():
    """Engine operator kernels equal brute-force homomorphism tensors for
    every enumerated labelled graph on <= 4 vertices (arity <= 3), every
    base graph on <= 4 vertices, mod 2, 97, and a 128-bit prime."""
    start = time.time()
    assert is_prime(BIG_PRIME)
    bases = enumerate_graphs_up_to(4)
    checks = 0
    for k in (1, 2, 3):
        records = enumerate_tw(k, 3, 4)
        for g in bases:
            exact = [hom_tensor(rec.value, g).ravel() for rec in records]
            for p in (2, 97, BIG_PRIME):
                ops = BlockOps(g, k, p)
                for rec, tensor in zip(records, exact):
                    got = [int(x) for x in term_block(ops, rec.term)]
                    want = [int(x) % p for x in tensor]
                    assert got == want, (k, g, p, rec.term)
                    checks += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS — {checks} kernel/tensor checks, "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_02_engine_vs_oracle_gate():
    """modhomind (tw-all, arity 2) matches the brute-force oracle over all
    treewidth-<=1 graphs on <= 7 vertices, on 30 random pairs x 3 primes."""
    start = time.time()
    rng = random.Random(20251)
    aut = builtin("tw-all", 2)
    checks = 0
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 7))
        h = random_graph(rng, rng.randrange(1, 7))
        for _ in range(3):
            p = random_prime_32(rng)
            verdict = modhomind(g, h, aut, p)
            oracle = homind_bruteforce(g, h, "tw<=1", 7, modulus=p)
            assert verdict.accept == oracle.indistinguishable, (g, h, p)
            checks += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"criterion 2: PASS — 30 pairs x 3 primes ({checks} verdicts), "
          f"0 mismatches, {elapsed:.1f}s")


def test_criterion_03_wl_correspondence():
    """wl_refine at k in {1,2} agrees with the arity-(k+1) closure engine
    on the 6-cycle-vs-two-triangles pair and the triangle gadget pair;
    both pairs merge at 1-WL and split at 2-WL."""
    start = time.time()
    rng = random.Random(303)
    c6 = cycle_graph(6)
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    gadgets = (cfi(complete_graph(3), 0).result, cfi(complete_graph(3), 1).result)
    for G, H in ((c6, two_k3), gadgets):
        for k, expected in ((1, True), (2, False)):
            wl = wl_refine(G, H, k)
            assert wl == expected, (G, H, k)
            aut = builtin("tw-all", k + 1)
            for _ in range(5):
                p = random_prime_32(rng)
                assert modhomind(G, H, aut, p).accept == wl, (k, p)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 3: PASS — 2 pairs x k in {{1,2}} x 5 primes, "
          f"exact agreement, {elapsed:.1f}s")


def test_criterion_04_gadget_parity_lemma():
    """For every connected base on <= 5 vertices with max degree <= 4: the
    even and odd gadgets are non-isomorphic, the base itself separates
    their exact hom counts, and the gadget order is exactly the sum of
    2^(deg-1) over base vertices."""
    bases = [
        g for g in enumerate_graphs_up_to(5)
        if g.n >= 2
        and len([c for c in _components(g)]) == 1
        and max(g.degree_sequence()) <= 4
    ]
    assert len(bases) == 30
    for base in bases:
        even = cfi(base, 0)
        odd = cfi(base, 1)
        expected_n = sum(2 ** (d - 1) for d in base.degree_sequence())
        assert even.result.n == odd.result.n == expected_n, base
        assert not is_isomorphic_small(even.result, odd.result, cap=40), base
        assert hom_count(base, even.result) != hom_count(base, odd.result), base
    print(f"criterion 4: PASS — {len(bases)} connected bases, 0 violations")


def _components(g: Graph):
    from homind.graphs import connected_components

    return connected_components(g)


def test_criterion_05_enumeration_size_lemmas():
    """Treewidth-family members stay within max(k^d, d) vertices and
    pathwidth-family members within k+d-1.  Enumeration budgets sit one
    above the bound wherever that is affordable, so a boundary violation
    would be visible; the (3,3) treewidth cell's bound of 27 is out of
    enumeration reach and only exercises the machinery."""
    tw_budget = {
        (1, 1): 2, (1, 2): 3, (1, 3): 4,
        (2, 1): 3, (2, 2): 5, (2, 3): 9,
        (3, 1): 4, (3, 2): 10, (3, 3): 6,
    }
    members = 0
    for (k, d), budget in tw_budget.items():
        bound = max(k ** d, d)
        for rec in enumerate_tw(k, d, budget):
            assert soe(rec.value).n <= bound, (k, d, rec.term)
            members += 1
    for k in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for rec in enumerate_pw(k, d):
                assert soe(rec.value).n <= k + d - 1, (k, d, rec.term)
                members += 1
    print(f"criterion 5: PASS — {members} enumerated members within "
          f"their size bounds, 0 violations")


def test_criterion_06_bound_formulas():
    """Closed-form count bounds hit their worked values and every trial
    count equals ceil(4 * log2 L)."""
    assert bound_tw(6, 2, 1).N == 2 ** 72
    assert bound_pw(6, 2, 1).N == 73
    assert bound_lasserre(2, 1).N == 512
    grid = [bound_tw(6, 2, 1), bound_pw(6, 2, 1), bound_lasserre(2, 1)]
    grid += [bound_tw(n, k, C) for n in (2, 3, 5) for k in (1, 2) for C in (1, 3)]
    grid += [bound_pw(n, k, 2) for n in (2, 4) for k in (1, 2)]
    grid += [bound_lasserre(n, 1) for n in (2, 3, 4)]
    for bounds in grid:
        assert bounds.trials == ceil_log2(bounds.L ** 4), bounds
    print(f"criterion 6: PASS — worked bound values exact, "
          f"{len(grid)} trial counts match ceil(4*log2 L)")


def test_criterion_07_paths_pipeline():
    """The pathwidth engine with the paths recogniser agrees with the
    walk-count oracle, modulo 3 random 32-bit primes, on every
    non-isomorphic pair of graphs on <= 5 vertices."""
    start = time.time()
    rng = random.Random(707)
    aut = builtin("paths", 2)
    graphs = enumerate_graphs_up_to(5)
    checks = 0
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            for _ in range(3):
                p = random_prime_32(rng)
                verdict = modhomind_pw(g, h, aut, p)
                assert verdict.accept == paths_oracle(g, h, modulus=p), (g, h, p)
                checks += 1
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"criterion 7: PASS — {checks} pair/prime verdicts against the "
          f"walk oracle, 0 mismatches, {elapsed:.1f}s")


def test_criterion_08_recognisability_fixture():
    """The frozen arity-1 paths recogniser has exactly 4 states;
    validation finds no counterexample with contexts on <= 5 vertices;
    corrupting a single transition is caught.  Validation checks only
    states 0 and 1: arity-1 terms are edgeless (J and glue add no edge,
    and A needs two labels), so the terms it enumerates never reach the
    end-labelled and internal path states 2 and 3."""
    aut = parse_automaton(PATHS_K1)
    assert aut.states == 4
    assert {trace_term(aut, rec.term) for rec in enumerate_tw(1, 5, 5)} == {0, 1}
    report = validate_automaton(aut, is_path_graph, 5)
    assert report.ok, report
    caught = []
    for table_name in ("j_table", "glue_table"):
        table = getattr(aut, table_name)
        for key in sorted(table):
            mutated_table = dict(table)
            mutated_table[key] = (mutated_table[key] + 1) % aut.states
            tables = {
                "glue_table": dict(aut.glue_table),
                "j_table": dict(aut.j_table),
            }
            tables[table_name] = mutated_table
            mutant = Automaton(aut.k, aut.states, aut.start, aut.accepting,
                               tables["glue_table"], tables["j_table"],
                               dict(aut.a_table), aut.small_members)
            if not validate_automaton(mutant, is_path_graph, 5).ok:
                caught.append((table_name, key))
    assert caught, "no single-transition mutation was caught"
    print(f"criterion 8: PASS — frozen recogniser has 4 states, validation "
          f"clean, {len(caught)} single-transition mutations caught")


def test_criterion_09_clique_reduction():
    """The product pair built from a source graph is distinguishable over
    graphs on <= 3 vertices exactly when the source contains a triangle."""
    rng = random.Random(909)
    outcomes = {True: 0, False: 0}
    for _ in range(5):
        g = random_graph(rng, rng.randrange(3, 6))
        left, right, k = gen_clique_reduction(g, 3)
        verdict = homind_bruteforce(left, right, "all", k)
        has_triangle = hom_count(complete_graph(3), g) > 0
        assert verdict.indistinguishable == (not has_triangle), g
        outcomes[has_triangle] += 1
    assert outcomes[True] and outcomes[False], (
        "sample must cover both outcomes; reseed the draw"
    )
    print(f"criterion 9: PASS — 5 reductions ({outcomes[True]} with, "
          f"{outcomes[False]} without a triangle), 0 mismatches")


def test_criterion_10_soundness_on_isomorphic_pairs():
    """100 random isomorphic pairs (<= 8 vertices, permuted) are accepted
    by the randomized treewidth mode, the deterministic-CRT pathwidth
    mode, and the level-1 relaxation.  Acceptance of genuinely equal
    counts is independent of the class, so the recognisable-class legs
    run at arity 1, where the certified bound keeps 100 randomized runs
    and 100 CRT prime sets affordable."""
    start = time.time()
    rng = random.Random(1010)
    aut = builtin("tw-all", 1)
    rejections = 0
    for index in range(100):
        g = random_graph(rng, rng.randrange(1, 9))
        h = permuted_copy(rng, g)
        if not homind_randomized(g, h, aut, "tw", seed=index).accept:
            rejections += 1
        if not homind_deterministic_crt(g, h, aut, "pw").accept:
            rejections += 1
        if not lasserre_mod(g, h, 1, random_prime_32(rng)).accept:
            rejections += 1
    assert rejections == 0
    elapsed = time.time() - start
    print(f"criterion 10: PASS — 100 isomorphic pairs x 3 modes, "
          f"0 rejections, {elapsed:.1f}s")


def test_criterion_11_lasserre_sanity():
    """Level-1 verdicts: isomorphic pairs accept; unequal orders reject
    once p exceeds both orders; and every accepted pair on <= 5 vertices
    agrees mod p on hom counts from all enumerated level-1 members."""
    start = time.time()
    rng = random.Random(1111)
    members = enumerate_lasserre(1, 3, 6)
    assert members

    def agree_on_members(g, h, p):
        return all(hom_count(f, g) % p == hom_count(f, h) % p for f in members)

    # isomorphic pairs accept (and trivially agree on members)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(1, 6))
        h = permuted_copy(rng, g)
        p = random_prime_32(rng)
        assert lasserre_mod(g, h, 1, p).accept, (g, h)
        assert agree_on_members(g, h, p)

    # unequal orders reject whenever p > max(order): the all-coincident
    # atomic reads |V| mod p
    small = enumerate_graphs_up_to(4)
    unequal = 0
    for i, g in enumerate(small):
        for h in small[i + 1:]:
            if g.n != h.n:
                assert not lasserre_mod(g, h, 1, 11).accept, (g, h)
                unequal += 1
    assert unequal > 0

    # accepted pairs on <= 5 vertices agree on every enumerated member
    graphs = enumerate_graphs_up_to(5)
    p = random_prime_32(rng)
    accepted = 0
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            if lasserre_mod(g, h, 1, p).accept:
                accepted += 1
                assert agree_on_members(g, h, p), (g, h)
    elapsed = time.time() - start
    print(f"criterion 11: PASS — iso pairs accept, {unequal} unequal-order "
          f"pairs reject, {accepted} non-isomorphic pairs accepted (each "
          f"checked member-consistent), {elapsed:.1f}s")


def test_criterion_12_paths_exact_modes_vs_walk_oracle(tmp_path, capsys):
    """``pwhomind --builtin paths`` agrees with the walk-count oracle in
    its exact mode (``--mode deterministic``) on every pair of equal order
    and size on <= 5 vertices, on the cospectral K_{1,4} vs C4 + K1 (equal
    closed walks, unequal totals) once more as drawn, and on permuted
    copies.
    A seeded quarter of those pairs runs in ``--mode random`` too, and
    must give the oracle's verdict as well."""
    from homind.cli import main

    start = time.time()
    rng = random.Random(1212)
    graphs = enumerate_graphs_up_to(5)
    pairs = [(g, h) for i, g in enumerate(graphs) for h in graphs[i + 1:]
             if (g.n, g.m) == (h.n, h.m)]
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    c4_k1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not paths_oracle(star, c4_k1)
    pairs.append((star, c4_k1))
    pairs += [(g, permuted_copy(rng, g)) for g in rng.sample(graphs, 6)]

    def pwhomind(g, h, *mode):
        paths = []
        for name, graph in (("g", g), ("h", h)):
            paths.append(tmp_path / f"{name}.graph")
            paths[-1].write_text(serialize_graph(graph))
        code = main(["pwhomind", "--builtin", "paths", *mode, *map(str, paths)])
        out = capsys.readouterr().out
        assert code in (0, 1)
        return code == 0, out

    accepts = 0
    for index, (g, h) in enumerate(pairs):
        want = paths_oracle(g, h)
        accepts += want
        assert pwhomind(g, h, "--mode", "deterministic")[0] == want, (g, h)
        if index % 4 == 0:
            got, out = pwhomind(g, h, "--mode", "random", "--seed", str(index))
            assert got == want, (g, h, out)
    assert accepts == 6
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"criterion 12: PASS — {len(pairs)} pairs in deterministic mode "
          f"({accepts} accepts), {len(pairs[::4])} in random mode, against "
          f"the walk oracle, {elapsed:.1f}s")
