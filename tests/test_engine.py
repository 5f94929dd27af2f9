"""Tests for the modular indistinguishability engine.

The operator kernels are checked against brute-force homomorphism
tensors, the closure against brute-force class oracles, and the
integer-level wrappers (the exact check at p None, randomized primes,
deterministic CRT prime set) against worked examples whose expected
values were derived from the oracles first.
"""

import random

import numpy as np
import pytest

from homind.engine import (
    BlockOps,
    Verdict,
    _Basis,
    _blocks_balanced,
    _closure_verdict,
    _first_reject,
    _linear_closure,
    _small_counts,
    _tw_partitions,
    format_verdict,
    homind_deterministic_crt,
    homind_randomized,
    modhomind,
    modhomind_pw,
    term_block,
    verdict_pairs,
)
from homind.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hom_count,
    is_isomorphic_small,
    path_graph,
    star_graph,
    walk_counts,
)
from homind.labelled import TApplyA, TApplyJ, TOne, enumerate_tw
from homind.lasserre import lasserre_exact
from homind.modular import (
    BoundOverflow,
    Xoshiro256StarStar,
    bound_pw,
    bound_tw,
    certified_prime_count,
    is_prime,
    sample_prime_in_range,
    smallest_primes_with_product_exceeding,
    trial_count,
)
from homind.oracle import enumerate_graphs_up_to, paths_oracle
from homind.recognizer import builtin, parse_automaton, trace_term

from conftest import (
    closure_runs,
    enumerate_pw,
    hom_tensor,
    permuted_copy,
    random_graph,
    span_check,
    stacked_tensors,
)
from test_cli_golden import GRAPHS, ONE_STATE_NONE

BIG_PRIME = (1 << 128) - 159

TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# === Operator kernels against brute-force tensors ===


def test_kernels_match_hom_tensors_small():
    """term_block drives a term through the A/J/schur kernels only; the
    result must equal the brute-force homomorphism tensor mod p."""
    bases = enumerate_graphs_up_to(3)
    for k in (1, 2):
        records = enumerate_tw(k, 4, 3)
        for g in bases:
            exact = {}
            for rec in records:
                exact[id(rec)] = hom_tensor(rec.value, g).ravel()
            for p in (2, 97):
                ops = BlockOps(g, k, p)
                for rec in records:
                    got = [int(x) for x in term_block(ops, rec.term)]
                    want = [int(x) % p for x in exact[id(rec)]]
                    assert got == want, (k, g, p, rec.term)


def test_kernels_big_prime_python_path():
    """Moduli at 128 bits leave uint64 range and use Python-integer arrays."""
    g = cycle_graph(4)
    ops = BlockOps(g, 2, BIG_PRIME)
    assert ops.dtype == object
    for rec in enumerate_tw(2, 4, 3):
        got = term_block(ops, rec.term)
        want = [int(x) % BIG_PRIME for x in hom_tensor(rec.value, g).ravel()]
        assert list(got) == want


def test_mod_matmul_exact_past_uint64_accumulation_limit():
    """65,538 products of (p-1)^2 overflow one uint64 accumulation of the
    16-bit split; the chunked sum must match the Python-integer result."""
    from homind.engine import _mod_matmul

    p = 4294967291
    rows = (1 << 16) + 2
    c = np.full(rows, p - 1, dtype=np.uint64)
    mat = np.full((rows, 1), p - 1, dtype=np.uint64)
    want = _mod_matmul(c.astype(object), mat.astype(object), p)
    assert [int(x) for x in want] == [rows % p]
    assert [int(x) for x in _mod_matmul(c, mat, p)] == [rows % p]


@pytest.mark.parametrize("p", [2, 101, (1 << 31) - 1, 4294967291])
@pytest.mark.parametrize("terms", [1, 1 << 16, (1 << 16) + 3])
def test_mod_matmul_matches_python_integers(p, terms):
    """Both uint64 paths (the 1-D matrix-vector product and a 2-D left
    operand as float64 products on 16-bit halves, given b's halves or
    not) against Python-integer products, with residues at p-1 and random
    ones, on contractions up to and past one 2^16-term chunk."""
    from homind.engine import _float_halves, _mod_matmul

    rng = np.random.default_rng(terms + p)
    a = rng.integers(0, p, size=(3, terms), dtype=np.uint64)
    b = rng.integers(0, p, size=(terms, 4), dtype=np.uint64)
    a[0] = p - 1
    b[:, 0] = p - 1
    want = (a.astype(object) @ b.astype(object)) % p
    got = _mod_matmul(a, b, p)
    assert got.dtype == np.uint64 and got.shape == (3, 4)
    assert got.tolist() == want.tolist()
    assert _mod_matmul(a, b, p, _float_halves(b)).tolist() == want.tolist()
    for row in range(3):
        assert _mod_matmul(a[row], b, p).tolist() == want[row].tolist()


def test_inserted_rows_do_not_pin_the_basis_matrix():
    """try_insert returns each new row as its own array: a view of the
    basis matrix, held in a worklist, would keep every superseded matrix
    alive."""
    from homind.engine import _Basis

    basis = _Basis(101, 4)
    rows = [basis.try_insert(np.array(v, dtype=np.uint64))
            for v in ([2, 4, 6, 8], [1, 3, 5, 7], [0, 0, 1, 9])]
    assert all(row.base is None for row in rows)
    assert rows[-1].tolist() == basis.matrix[-1].tolist()


def _residues(ops, values):
    """A vector of ``ops``'s dtype holding the values mod ``ops.p``."""
    return np.array([v % ops.p for v in values], dtype=ops.dtype)


def test_apply_a_ones_is_adjacency_indicator():
    ops = BlockOps(complete_graph(2), 2, 97)
    masked = ops.apply_a(ops.ones(), 1, 2)
    # flat index x = 2*x_1 + x_2; the two mixed tuples are adjacent
    assert [int(x) for x in masked] == [0, 1, 1, 0]


def test_apply_a_is_idempotent():
    rng = random.Random(11)
    g = random_graph(rng, 5, 0.5)
    ops = BlockOps(g, 2, 101)
    v = _residues(ops, [rng.randrange(101) for _ in range(ops.length)])
    once = ops.apply_a(v, 1, 2)
    assert list(ops.apply_a(once, 1, 2)) == list(once)


def test_apply_j_twice_scales_by_n():
    rng = random.Random(12)
    g = random_graph(rng, 5, 0.4)
    p = 103
    ops = BlockOps(g, 2, p)
    v = _residues(ops, [rng.randrange(p) for _ in range(ops.length)])
    once = ops.apply_j(v, 2)
    twice = ops.apply_j(once, 2)
    assert list(twice) == [(g.n * int(x)) % p for x in once]


def test_apply_j_constant_result_on_degree_vector():
    """At k = 1, J applied to the degree vector broadcasts 2|E|."""
    g = cycle_graph(5)
    p = 97
    ops = BlockOps(g, 1, p)
    degrees = _residues(ops, g.degree_sequence())
    out = ops.apply_j(degrees, 1)
    assert list(out) == [(2 * g.m) % p] * g.n


def test_schur_with_ones_is_identity():
    g = path_graph(4)
    ops = BlockOps(g, 2, 89)
    v = _residues(ops, range(ops.length))
    assert list(ops.schur(v, ops.ones())) == [x % 89 for x in range(ops.length)]


def test_kernel_label_range_errors():
    ops = BlockOps(path_graph(3), 2, 7)
    with pytest.raises(ValueError):
        ops.apply_a(ops.ones(), 2, 1)
    with pytest.raises(ValueError):
        ops.apply_a(ops.ones(), 1, 3)
    with pytest.raises(ValueError):
        ops.apply_j(ops.ones(), 0)
    with pytest.raises(ValueError):
        term_block(ops, TOne(3))


def test_pair_ops_route_both_blocks():
    """J_1 A_12 of the all-ones tensor sums to 2·m·n on either graph."""
    for g in (path_graph(3), star_graph(3)):
        ops = BlockOps(g, 2, 101)
        block = ops.apply_j(ops.apply_a(ops.ones(), 1, 2), 1)
        assert ops.total(block) == (2 * g.m * g.n) % 101


# === modhomind: closure + small stage ===


def test_isomorphic_pairs_accept_any_prime():
    rng = random.Random(2026)
    aut = builtin("tw-all", 2)
    for trial in range(8):
        g = random_graph(rng, rng.randrange(2, 7), 0.5)
        h = permuted_copy(rng, g)
        p = random.Random(trial).choice([2, 3, 97, 4294967291])
        verdict = modhomind(g, h, aut, p)
        assert verdict.accept, (g, h, p)
        assert verdict.mode == "single-prime"
        assert verdict.primes_used == [p]
        assert verdict.rejecting_prime is None


def test_forest_counts_do_not_separate_c6_from_two_triangles():
    """C_6 and K_3 + K_3 agree on homomorphism counts from every forest,
    so the arity-2 closure accepts them at any prime."""
    aut = builtin("tw-all", 2)
    rng = random.Random(5)
    for _ in range(6):
        p = 4294967291 if rng.random() < 0.3 else rng.choice([3, 5, 101, 65537])
        assert modhomind(cycle_graph(6), TWO_TRIANGLES, aut, p).accept


def test_triangle_counts_separate_c6_from_two_triangles():
    """At arity 3 the small stage compares hom(K_3, -): 0 against 12."""
    aut = builtin("tw-all", 3)
    for G, H in [(cycle_graph(6), TWO_TRIANGLES), (TWO_TRIANGLES, cycle_graph(6))]:
        verdict = modhomind(G, H, aut, 97)
        assert not verdict.accept
        assert verdict.rejecting_prime == 97
        assert verdict.small_stage_witness is not None
        assert is_isomorphic_small(verdict.small_stage_witness, complete_graph(3))
    assert hom_count(complete_graph(3), cycle_graph(6)) == 0
    assert hom_count(complete_graph(3), TWO_TRIANGLES) == 12


def test_small_stage_respects_none_policy():
    text = (
        "k 1\nstates 1\nstart 0\naccept 0\n"
        "glue 0 0 -> 0\nJ 1 0 -> 0\nsmall none\n"
    )
    aut = parse_automaton(text)
    g = path_graph(4)
    verdict = modhomind(g, permuted_copy(random.Random(3), g), aut, 13)
    assert verdict.accept
    assert "small stage skipped" in verdict.notes


def test_small_stage_enumeration_cap():
    aut = builtin("tw-all", 8)
    with pytest.raises(ValueError, match="capped at 7"):
        modhomind(path_graph(2), path_graph(2), aut, 5)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError, match="not prime"):
        modhomind(path_graph(2), path_graph(2), builtin("tw-all", 1), 15)


def test_closure_dimension_bounded_and_counted():
    aut = builtin("tw-all", 2)
    G, H = cycle_graph(6), TWO_TRIANGLES
    stats = {}
    modhomind(G, H, aut, 101, stats=stats)
    assert stats["dim_total"] == stats["inserts"]
    assert stats["dim_total"] <= aut.states * (G.n**2 + H.n**2)


def test_stats_filled_when_small_stage_decides():
    """P3 and K3 differ on K2 (4 against 6 homomorphisms), a member on
    two vertices, so the closure never runs; stats still carry every key,
    at zero."""
    for decide in (modhomind, modhomind_pw):
        stats = {}
        verdict = decide(path_graph(3), complete_graph(3), builtin("tw-all", 2),
                         101, stats=stats)
        assert verdict.small_stage_witness is not None
        assert stats == {"dim_total": 0, "inserts": 0, "candidates": 0,
                         "per_state": {}}


def test_closure_counts_candidates():
    """Every candidate row offered to a basis is counted once, the ones
    that leave the span among them."""
    G, H = cycle_graph(6), TWO_TRIANGLES
    aut = builtin("paths", 2)
    for decide in (modhomind, modhomind_pw):
        stats = {}
        assert decide(G, H, aut, 101, stats=stats).small_stage_witness is None
        assert stats["candidates"] > stats["inserts"] == stats["dim_total"] > 0


def test_closure_verdict_is_order_independent(monkeypatch):
    """Randomizing the worklist pop order changes intermediate bases but
    never the verdict, and the closure span (hence dimension) is
    canonical."""
    def linear_tw(G, H, aut, p, **kwargs):  # modhomind refines partitions
        return _linear_closure(G, H, aut, p, True, **kwargs)

    def pw(G, H, aut, p, **kwargs):
        return modhomind_pw(G, H, aut, p, **kwargs).accept

    fixtures = [
        (cycle_graph(6), TWO_TRIANGLES, builtin("tw-all", 2), 101, linear_tw),
        (path_graph(4), star_graph(3), builtin("paths", 2), 10007, pw),
    ]
    for G, H, aut, p, decide in fixtures:
        base_stats = {}
        expected = decide(G, H, aut, p, stats=base_stats)
        for seed in range(10):
            stats = {}
            closure_runs(monkeypatch, order_rng=Xoshiro256StarStar(seed))
            assert decide(G, H, aut, p, stats=stats) == expected
            monkeypatch.undo()
            assert stats["dim_total"] == base_stats["dim_total"]


def test_engine_matches_bruteforce_oracle_on_random_pairs():
    """Arity-2 closure over all graphs == brute force over treewidth <= 1
    members (forests), one extra vertex of headroom on the oracle side."""
    from homind.oracle import homind_bruteforce

    rng = random.Random(99)
    aut = builtin("tw-all", 2)
    for _ in range(6):
        g = random_graph(rng, rng.randrange(2, 6), 0.5)
        h = random_graph(rng, rng.randrange(2, 6), 0.5)
        p = rng.choice([3, 97, 1009])
        want = homind_bruteforce(g, h, "tw<=1", 7, modulus=p).indistinguishable
        got = modhomind(g, h, aut, p).accept
        assert got == want, (g, h, p)


def _rewire_one_edge(g):
    """Move one endpoint of g's first edge to a non-neighbour: same order
    and size, different degree sequence."""
    u, v = g.edges[0]
    nbrs = {b for a, b in g.edges if a == u} | {a for a, b in g.edges if b == u}
    w = next(x for x in range(g.n) if x != u and x not in nbrs)
    return Graph.from_edges(g.n, [e for e in g.edges if e != (u, v)] + [(u, w)])


def test_closure_agrees_across_array_backends():
    """The same closures on uint64 arrays (p = 2^31-1) and on Python-integer
    arrays (a 128-bit prime): verdicts follow (k-1)-WL or the known
    Lasserre outcome, and the closure dimension is the same at both primes.
    Every pair has equal order and size, so the closure decides."""
    from homind.lasserre import lasserre_mod
    from homind.wl import wl_refine

    two_c4 = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
    g = random_graph(random.Random(2), 7, 0.5)
    tw_cases = [  # (G, H, k, expected dim_total)
        (cycle_graph(8), two_c4, 2, 2),
        (cycle_graph(8), two_c4, 3, 44),
        (g, permuted_copy(random.Random(102), g), 2, 49),
        (g, _rewire_one_edge(g), 2, 98),
    ]
    for p in ((1 << 31) - 1, BIG_PRIME):
        for G, H, k, dim in tw_cases:
            stats = {}
            verdict = modhomind(G, H, builtin("tw-all", k), p, stats=stats)
            assert verdict.small_stage_witness is None
            assert verdict.accept == wl_refine(G, H, k - 1), (G, H, k, p)
            assert stats["dim_total"] == dim, (G, H, k, p)
        stats = {}
        assert not lasserre_mod(cycle_graph(8), two_c4, 1, p, stats=stats).accept
        assert stats["dim_total"] == 9


# === modhomind_pw ===


def test_pw_acceptance_implied_by_tw_acceptance():
    """Dropping the glue closure can only lose separating vectors."""
    rng = random.Random(17)
    aut = builtin("tw-all", 2)
    for _ in range(6):
        g = random_graph(rng, rng.randrange(2, 6), 0.5)
        h = random_graph(rng, rng.randrange(2, 6), 0.5)
        p = rng.choice([5, 101])
        if modhomind(g, h, aut, p).accept:
            assert modhomind_pw(g, h, aut, p).accept


def test_paths_engine_agrees_with_paths_oracle():
    aut = builtin("paths", 2)
    pairs = [
        (path_graph(4), star_graph(3)),
        (path_graph(5), cycle_graph(5)),
        (cycle_graph(6), TWO_TRIANGLES),
        (cycle_graph(4), Graph.from_edges(4, [(0, 1), (2, 3)])),
    ]
    rng = random.Random(31)
    for G, H in pairs:
        for _ in range(3):
            p = rng.choice([2, 3, 5, 10007, 4294967291])
            got = modhomind_pw(G, H, aut, p, stats={}).accept
            want = paths_oracle(G, H, modulus=p)
            assert got == want, (G, H, p)


def test_paths_reject_matches_first_walk_disagreement():
    """P_4 and K_{1,3} first disagree at walks of length 2 (10 vs 12);
    the counts agree mod 2 everywhere but split mod 3."""
    P4, K13 = path_graph(4), star_graph(3)
    wp, wk = walk_counts(P4, 7), walk_counts(K13, 7)
    assert wp[2] == 10 and wk[2] == 12
    assert all(a % 2 == b % 2 for a, b in zip(wp, wk))
    aut = builtin("paths", 2)
    assert modhomind_pw(P4, K13, aut, 2).accept
    assert not modhomind_pw(P4, K13, aut, 3).accept


_PERMUTED_G5 = random_graph(random.Random(5), 5, 0.5)


@pytest.mark.parametrize("G, H", [
    (cycle_graph(6), TWO_TRIANGLES),
    (_PERMUTED_G5, permuted_copy(random.Random(6), _PERMUTED_G5)),
], ids=["C6-vs-2K3", "permuted-G5"])
def test_pw_closure_spans_every_term_tensor(monkeypatch, G, H):
    """The span gate of the linear closure: every pathwidth term of depth
    <= 6 is traced through the ``paths`` automaton to its state, and the
    brute-force tensor F_G (+) F_H of its value must lie in that state's
    basis; the terms of each state must span all of it."""
    aut = builtin("paths", 2)
    records = enumerate_pw(2, 6)
    assert len(records) == 346
    states = np.array([trace_term(aut, rec.term) for rec in records])
    exact = stacked_tensors([rec.value for rec in records], G, H)
    for p in (2, 97, (1 << 61) - 1):
        runs = closure_runs(monkeypatch)
        stats = {}
        modhomind_pw(G, H, aut, p, stats=stats)
        monkeypatch.undo()
        [bases] = runs
        for q, basis in enumerate(bases):
            in_span, rank = span_check(basis, exact[states == q], p)
            assert in_span and rank == stats["per_state"][q], (p, q)


# === Randomized wrapper ===

PATHS = builtin("paths", 2)

# Equal walk counts, but 1-WL tells them apart: the tw-all partition is
# unbalanced, so a pathwidth accept under ``paths`` is not certified.
_G7 = Graph.from_edges(7, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 6),
                           (3, 5), (3, 6), (5, 6)])
_H7 = Graph.from_edges(7, [(0, 1), (0, 2), (1, 5), (1, 6), (2, 4), (3, 5),
                           (3, 6), (4, 6), (5, 6)])


def _counted(monkeypatch, name):
    """Patch the engine's prime sampler ``name``; the returned list
    collects every prime it hands out."""
    import homind.engine

    primes = []
    sample = getattr(homind.engine, name)

    def counted(*args):
        primes.append(sample(*args))
        return primes[-1]

    monkeypatch.setattr(homind.engine, name, counted)
    return primes


def test_randomized_accepts_isomorphic_pairs():
    """Permuted copies are certified by the integer partition: the
    pathwidth flavour of the multi-state ``paths`` accepts them exactly,
    with no prime, as tw-all does."""
    rng = random.Random(7)
    for seed in range(4):
        g = random_graph(rng, 8, 0.5)
        h = permuted_copy(rng, g)
        for aut, variant in ((PATHS, "pw"), (builtin("tw-all", 1), "tw")):
            verdict = homind_randomized(g, h, aut, variant, seed=seed)
            assert verdict.accept and verdict.mode == "exact"
            assert not verdict.primes_used


def test_randomized_rejects_at_first_prime_found():
    """P4 against K_{1,3} passes the small stage of ``paths`` (both have 3
    edges), and its partition is unbalanced; every prime above L rejects,
    so the wrapper stops at its first prime, the same one for the same
    seed.  P3 against K3 differs on hom(K_2, -) = 4 vs 6: an exact
    reject with witness K_2, and no prime."""
    P4, star = path_graph(4), star_graph(3)
    verdict = homind_randomized(P4, star, PATHS, "pw", seed=1)
    assert not verdict.accept and verdict.mode == "randomized"
    assert verdict.primes_used == [verdict.rejecting_prime]
    assert verdict.small_stage_witness is None
    bounds = bound_pw(4, 2, PATHS.states)
    assert bounds.L < verdict.rejecting_prime <= bounds.L**2
    assert homind_randomized(P4, star, PATHS, "pw", seed=1) == verdict
    for variant in ("pw", "tw"):
        exact = homind_randomized(path_graph(3), complete_graph(3), PATHS,
                                  variant, seed=1)
        assert not exact.accept
        assert (exact.mode, exact.primes_used) == ("exact", [])
        assert exact.rejecting_prime is None
        assert exact.small_stage_witness == complete_graph(2)


def test_randomized_pw_variant_runs():
    g = path_graph(5)
    verdict = homind_randomized(g, permuted_copy(random.Random(2), g),
                                builtin("tw-all", 1), "pw", seed=3)
    assert verdict.accept


def test_randomized_refines_once_per_decision(monkeypatch):
    """The prime loop refines the tw-all partition once per decision, over
    the integers, and checks every prime against it: the 7-bit primes of
    G7/H7 exceed the order, so their partitions coincide with the integer
    one.  The exact decision refines once, over the integers."""
    import homind.engine

    calls = []
    refine = homind.engine._refine

    def counted(G, H, k, modulus):
        calls.append(modulus)
        return refine(G, H, k, modulus)

    monkeypatch.setattr(homind.engine, "_refine", counted)
    verdict = homind_randomized(_G7, _H7, PATHS, "pw", seed=2, prime_bits=7)
    assert verdict.accept
    assert len(set(verdict.primes_used)) > 1
    assert calls == [None]
    calls.clear()
    g = random_graph(random.Random(4), 6, 0.5)
    h = permuted_copy(random.Random(5), g)
    verdict = homind_randomized(g, h, builtin("tw-all", 2), "tw", seed=2, prime_bits=7)
    assert verdict.accept and not verdict.primes_used
    assert calls == [None]


def test_randomized_draws_only_the_primes_it_decides(monkeypatch):
    """A decision that rejects at its first prime draws no further prime."""
    draws = _counted(monkeypatch, "sample_prime_in_range")
    verdict = homind_randomized(path_graph(4), star_graph(3), PATHS, "pw", seed=1)
    assert not verdict.accept and draws == verdict.primes_used
    assert len(draws) == 1


def test_randomized_heuristic_mode_is_flagged():
    """--prime-bits decides trial_count(2^(bits-1)) primes of that width
    on an uncertified accept, and flags the verdict."""
    verdict = homind_randomized(_G7, _H7, PATHS, "pw", seed=2, prime_bits=24)
    assert verdict.accept
    assert "heuristic" in verdict.notes
    assert len(verdict.primes_used) == trial_count(1 << 23)
    for p in verdict.primes_used:
        assert p.bit_length() == 24 and is_prime(p)


def test_randomized_overflow_suggests_heuristic_mode():
    """An uncertified pair needs the bound; a certified one computes none."""
    with pytest.raises(BoundOverflow, match="prime_bits"):
        homind_randomized(path_graph(4), star_graph(3), PATHS, "pw", bit_cap=4)
    verdict = homind_randomized(cycle_graph(6), TWO_TRIANGLES, PATHS, "pw", bit_cap=4)
    assert verdict.accept and verdict.mode == "exact"


def test_randomized_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        homind_randomized(path_graph(2), path_graph(2), builtin("tw-all", 1), "qq")


def test_multi_state_random_rejects_p4_against_the_star_at_every_seed():
    """P4 against K_{1,3} under ``paths``: walks of length 2 count 10
    against 12.  A seed whose draws were all composite used to accept it
    unchecked; every draw is now a prime, and every prime above L
    rejects.  The pathwidth flavour at seeds 0-299, the treewidth flavour
    (primes of 800-odd bits) at three seeds."""
    P4, star = path_graph(4), star_graph(3)
    for variant, seeds in (("pw", range(300)), ("tw", range(3))):
        for seed in seeds:
            verdict = homind_randomized(P4, star, PATHS, variant, seed=seed)
            assert not verdict.accept, (variant, seed)
            assert verdict.primes_used == [verdict.rejecting_prime], (variant, seed)


@pytest.mark.parametrize("seed", [0, 5])
def test_uncertified_random_accept_decides_the_certified_prime_count(seed):
    """G7/H7 under ``paths`` in the pathwidth flavour: the accept decides
    exactly ``certified_prime_count(L, trials)`` primes, five, each in
    (L, L^2], and the same list for the same seed."""
    bounds = bound_pw(7, 2, PATHS.states)
    count = certified_prime_count(bounds.L, bounds.trials)
    assert count == 5
    verdict = homind_randomized(_G7, _H7, PATHS, "pw", seed=seed)
    assert verdict.accept and verdict.mode == "randomized"
    assert len(verdict.primes_used) == count
    for p in verdict.primes_used:
        assert bounds.L < p <= bounds.L**2 and is_prime(p)
    assert homind_randomized(_G7, _H7, PATHS, "pw", seed=seed) == verdict
    other = homind_randomized(_G7, _H7, PATHS, "pw", seed=seed + 1)
    assert other.primes_used != verdict.primes_used


# === Exact decision of one-state classes ===


def test_one_state_random_rejects_p4_against_the_star_at_every_seed():
    """P4 against K_{1,3}: hom(P3, .) is 10 against 12, so tw-all at k = 2
    and Lasserre at t = 1 must reject.  Drawing primes, a seed whose draws
    found no prime accepted it unchecked; the exact decision rejects at
    every seed."""
    P4, star = path_graph(4), star_graph(3)
    tw_all = builtin("tw-all", 2)
    for seed in range(300):
        verdict = homind_randomized(P4, star, tw_all, "tw", seed=seed)
        assert not verdict.accept, seed
        assert (verdict.mode, verdict.primes_used) == ("exact", [])
        assert verdict.small_stage_witness is None
    assert verdict_pairs(lasserre_exact(P4, star, 1)) == verdict_pairs(verdict)


def test_one_state_random_decisions_never_draw(monkeypatch):
    """With both prime samplers patched to raise, one-state treewidth
    decisions (certified, prime-bits, a ``small none`` automaton file),
    Lasserre decisions, and the certified accepts and small-stage rejects
    of the multi-state ``paths`` in both flavours still decide; an
    uncertified pair draws."""
    import homind.engine

    def refuse(*args):
        raise AssertionError("a prime was drawn")

    monkeypatch.setattr(homind.engine, "sample_prime_in_range", refuse)
    monkeypatch.setattr(homind.engine, "sample_prime_with_bits", refuse)
    c6, c6r, two_k3 = GRAPHS["c6"], GRAPHS["c6r"], GRAPHS["2k3"]
    none = parse_automaton(ONE_STATE_NONE)
    for kwargs in ({}, {"prime_bits": 12}, {"bit_cap": 20}):
        assert homind_randomized(c6, c6r, builtin("tw-all", 2), **kwargs).accept
        assert not homind_randomized(c6, two_k3, builtin("tw-all", 3), **kwargs).accept
        verdict = homind_randomized(c6, c6r, none, seed=3, **kwargs)
        assert verdict.accept and verdict.notes.startswith("small stage skipped")
        for variant in ("pw", "tw"):
            for G, H in ((c6, c6r), (c6, two_k3)):
                verdict = homind_randomized(G, H, PATHS, variant, **kwargs)
                assert verdict.accept and verdict.mode == "exact"
            verdict = homind_randomized(path_graph(3), complete_graph(3), PATHS,
                                        variant, **kwargs)
            assert not verdict.accept and verdict.mode == "exact"
    assert lasserre_exact(c6, c6r, 1).accept
    assert not lasserre_exact(c6, two_k3, 1).accept
    with pytest.raises(AssertionError, match="drawn"):
        homind_randomized(path_graph(4), star_graph(3), builtin("tw-all", 2), "pw")


def test_exact_verdict_is_the_verdict_at_every_certified_prime():
    """On the seeded pairs the exact tw-all verdict (``_closure_verdict``
    at p None), its witness and its dimension equal those of ``modhomind``
    at a prime above the bound L; the small stage and the partition have
    no prime to disagree at.  CRT mode prints the exact verdict."""
    rng = Xoshiro256StarStar(21)
    for G, H in _seeded_pairs():
        for k in (1, 2):
            aut = builtin("tw-all", k)
            bounds = bound_tw(max(G.n, H.n, 1), k, 1)
            p = sample_prime_in_range(bounds.L, rng)
            exact, modular = {}, {}
            got = _closure_verdict(G, H, aut, None, True, _small_counts(G, H, 10**8),
                                   stats=exact)
            want = modhomind(G, H, aut, p, stats=modular)
            assert (got.mode, got.primes_used) == ("exact", [])
            assert (got.accept, got.small_stage_witness, got.notes) == (
                want.accept, want.small_stage_witness, want.notes), (G, H, k)
            assert exact == modular
            crt = homind_deterministic_crt(G, H, aut, "tw")
            assert verdict_pairs(crt) == verdict_pairs(got), (G, H, k)


# === Deterministic CRT wrapper ===


def test_crt_prime_set_for_worked_example():
    """n = 4, k = 2, one state: N = 33, counts below 4^33 = 2^66, and the
    minimal prime set is the 17 primes up to 59 (16 fall short)."""
    bounds = bound_pw(4, 2, 1)
    assert bounds.N == 33
    primes = smallest_primes_with_product_exceeding(4**33)
    assert len(primes) == 17
    assert primes[-1] == 59
    product = 1
    for p in primes:
        product *= p
    assert product > 4**33
    assert product // 59 <= 4**33


def test_crt_rejects_p4_vs_star():
    verdict = homind_deterministic_crt(path_graph(4), star_graph(3), builtin("paths", 2))
    assert not verdict.accept
    assert verdict.mode == "deterministic-crt"
    assert verdict.rejecting_prime == 3  # counts agree mod 2, split mod 3
    assert verdict.primes_used == [2, 3]


def test_crt_accepts_isomorphic_paths():
    g = path_graph(5)
    h = permuted_copy(random.Random(8), g)
    verdict = homind_deterministic_crt(g, h, builtin("paths", 2))
    assert verdict.accept
    n = 5
    bounds = bound_pw(n, 2, 13)
    primes = smallest_primes_with_product_exceeding(n**bounds.N)
    assert verdict.primes_used == primes


def test_crt_counts_small_members_once_per_decision(monkeypatch):
    """The small stage counts hom(F, G) and hom(F, H) once per decision
    and reduces them mod every prime: P4 against a relabelled P4 runs 112
    primes over the two small members of ``paths`` with 4 counts."""
    import homind.engine

    calls = []

    def counted(F, G, budget=10**8):
        calls.append(F)
        return hom_count(F, G, budget=budget)

    monkeypatch.setattr(homind.engine, "hom_count", counted)
    relabelled = Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])
    verdict = homind_deterministic_crt(path_graph(4), relabelled,
                                       builtin("paths", 2))
    assert verdict.accept
    assert len(verdict.primes_used) == 112
    assert len(calls) == 4


def _crt_smallest_primes(G, H, aut):
    """The deterministic verdict from deciding the smallest primes one by
    one, each with a partition of its own."""
    n = max(G.n, H.n, 1)
    bound = max(n, 2) ** bound_pw(n, aut.k, aut.states).N
    counts = _small_counts(G, H, 10**8)
    return _first_reject(
        smallest_primes_with_product_exceeding(bound),
        lambda p: _closure_verdict(G, H, aut, p, False, counts),
        "deterministic-crt", [],
    )


_G6 = random_graph(random.Random(11), 6, 0.5)


_CRT_PAIRS = [
    # accepts
    (_G6, permuted_copy(random.Random(12), _G6), "paths", True, None),
    (cycle_graph(8), Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                          (4, 5), (5, 6), (6, 7), (7, 4)]),
     "paths", True, None),
    # small-stage rejects: hom(K1) is 3 against 4; hom(K2) 4 against 6
    (path_graph(3), path_graph(4), "paths", False, 2),
    (path_graph(3), complete_graph(3), "paths", False, 3),
    # closure reject: walks of length 2 count 10 against 12
    (path_graph(4), star_graph(3), "paths", False, 3),
    # the one-state automaton without a small stage
    (GRAPHS["c6"], GRAPHS["c6r"], "none", True, None),
    (GRAPHS["a5"], GRAPHS["b5"], "none", False, 3),
]


def _automaton(name):
    return builtin("paths", 2) if name == "paths" else parse_automaton(ONE_STATE_NONE)


@pytest.mark.parametrize("G, H, aut, accept, rejecting", _CRT_PAIRS,
                         ids=["gnp6", "c8-2c4", "small-2", "small-3",
                              "closure-3", "none-accept", "none-reject"])
def test_crt_verdict_is_the_smallest_primes_decided_one_by_one(
        G, H, aut, accept, rejecting):
    aut = _automaton(aut)
    verdict = homind_deterministic_crt(G, H, aut)
    assert verdict.accept == accept
    assert verdict.rejecting_prime == rejecting
    assert verdict_pairs(verdict) == verdict_pairs(_crt_smallest_primes(G, H, aut))


def _decided_primes(monkeypatch):
    """Patch ``engine._closure_verdict``; the returned list collects the
    prime of every single-prime decision."""
    import homind.engine

    decided = []
    decide = homind.engine._closure_verdict

    def counted(G, H, aut, p, *args, **kwargs):
        decided.append(p)
        return decide(G, H, aut, p, *args, **kwargs)

    monkeypatch.setattr(homind.engine, "_closure_verdict", counted)
    return decided


def test_crt_accept_decides_exactly_its_printed_primes(monkeypatch):
    """An accept on a permuted G(6, 1/2) decides the 269 primes it prints,
    each certified by the tw-all partition, so it runs no linear closure."""
    decided = _decided_primes(monkeypatch)
    runs = closure_runs(monkeypatch)
    aut = builtin("paths", 2)
    verdict = homind_deterministic_crt(
        _G6, permuted_copy(random.Random(12), _G6), aut)
    primes = smallest_primes_with_product_exceeding(
        6 ** bound_pw(6, 2, aut.states).N)
    assert verdict.accept and len(primes) == 269
    assert decided == verdict.primes_used == primes
    assert not runs


def test_crt_reject_decides_up_to_its_rejecting_prime(monkeypatch):
    """P4 against K_{1,3}: the partition certifies the accept at 2, and the
    one linear closure, at 3, rejects (walks of length 2: 10 against 12)."""
    decided = _decided_primes(monkeypatch)
    runs = closure_runs(monkeypatch)
    verdict = homind_deterministic_crt(path_graph(4), star_graph(3),
                                       builtin("paths", 2))
    assert not verdict.accept and verdict.rejecting_prime == 3
    assert decided == verdict.primes_used == [2, 3]
    assert [bases[0].p for bases in runs] == [3]


def test_crt_uncertified_accept_runs_one_closure_per_unbalanced_prime(
        monkeypatch):
    """The tw-all partition of G7 and H7 is unbalanced, so it cannot
    certify their pathwidth accept under ``paths``: the CRT accept runs a
    linear closure at each of its 374 printed primes but 2, where the
    partition is balanced."""
    aut = builtin("paths", 2)
    assert paths_oracle(_G7, _H7)
    partitions = _tw_partitions(_G7, _H7, 2)
    runs = closure_runs(monkeypatch)
    verdict = homind_deterministic_crt(_G7, _H7, aut)
    unbalanced = [p for p in verdict.primes_used
                  if not _blocks_balanced(*partitions(p), p)]
    assert verdict.accept and len(verdict.primes_used) == 374
    assert unbalanced == verdict.primes_used[1:]
    assert len(runs) == 373


# === The tw-all certificate of pathwidth and multi-state accepts ===


def _rewired(rng, g):
    """g after degree-preserving double-edge swaps (a new graph with the
    same degrees, so the small stage of ``paths`` cannot reject it)."""
    edges = set(g.edges)
    for _ in range(50):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges = (edges - {(a, b), (c, d)}) | new
            if rng.random() < 0.5:
                break
    return Graph.from_edges(g.n, sorted(edges))


def _seeded_pairs():
    """The CRT pairs above and 20 seeded pairs on 5 and 6 vertices: ten
    permuted copies and ten rewirings."""
    pairs = [(G, H) for G, H, _, _, _ in _CRT_PAIRS]
    rng = random.Random(2024)
    for index in range(20):
        g = random_graph(rng, 5 + index % 2)
        while len(g.edges) < 3:
            g = random_graph(rng, g.n)
        pairs.append((g, permuted_copy(rng, g) if index < 10 else _rewired(rng, g)))
    return pairs


def _two_regular_pairs():
    """C_a + C_b against C_(a+b), for a + b from 6 to 9: both 2-regular,
    so 1-WL cannot tell them apart."""
    return [(disjoint_union(cycle_graph(a), cycle_graph(c - a)), cycle_graph(c))
            for c in range(6, 10) for a in range(3, c // 2 + 1)]


def test_certified_accept_is_the_closure_verdict(monkeypatch):
    """``_closure_verdict`` without ``stats`` (the tw-all certificate
    first) prints what it prints with ``stats`` (the linear closure
    always), for ``paths`` and the forests automaton in both flavours, on
    the seeded and 2-regular pairs, at small primes and a word prime.  The
    certificate decides at least half of the cases; a case it leaves to
    the closure, or to the small stage, takes the same path either way."""
    from test_refinement import FORESTS_K2

    automata = [builtin("paths", 2), parse_automaton(FORESTS_K2)]
    cases = certified = 0
    for G, H in _seeded_pairs() + _two_regular_pairs():
        counts = _small_counts(G, H, 10**8)
        for aut in automata:
            for include_schur in (False, True):
                for p in (2, 3, 5, 7, 97, 4294967291):
                    cases += 1
                    runs = closure_runs(monkeypatch)
                    got = _closure_verdict(G, H, aut, p, include_schur, counts)
                    monkeypatch.undo()
                    if runs or not got.accept:
                        continue
                    certified += 1
                    want = _closure_verdict(G, H, aut, p, include_schur, counts,
                                            stats={})
                    assert verdict_pairs(got) == verdict_pairs(want), (G, H, p)
    assert 2 * certified >= cases, (certified, cases)


# === The early stop of the linear closure ===


def test_closure_verdict_without_stats_is_the_full_closure_verdict(monkeypatch):
    """Without ``stats`` the linear closure stops at its first unequal
    readout; with ``stats`` it runs to the end.  The verdicts agree in
    both flavours of ``paths``, at small primes and a word prime, on every
    seeded pair (and G7/H7) the tw-all partition leaves to the closure,
    the cases a decision runs it on.  A reject, where the row it stops at
    depends on the pop order, is also decided in a randomized order."""
    aut = builtin("paths", 2)
    verdicts = []
    for index, (G, H) in enumerate(_seeded_pairs() + [(_G7, _H7)]):
        partitions = _tw_partitions(G, H, aut.k)
        for p in (2, 3, 5, 97, 2**31 - 1):
            if _blocks_balanced(*partitions(p), p):
                continue
            for include_schur in (False, True):
                want = _linear_closure(G, H, aut, p, include_schur, {})
                assert _linear_closure(G, H, aut, p, include_schur) == want
                verdicts.append(want)
                if want:
                    continue
                closure_runs(monkeypatch, order_rng=Xoshiro256StarStar(index))
                got = _linear_closure(G, H, aut, p, include_schur)
                monkeypatch.undo()
                assert not got, (G, H, p, include_schur)
    assert verdicts.count(False) >= 20 and True in verdicts, verdicts


@pytest.mark.parametrize("include_schur", [False, True], ids=["pw", "tw"])
def test_closure_reject_stops_before_the_full_span(monkeypatch, include_schur):
    """P4 against K_{1,3} at 3: the closure without ``stats`` rejects after
    fewer inserts than the full closure's dimension."""
    aut = builtin("paths", 2)
    G, H = path_graph(4), star_graph(3)
    stats = {}
    assert not _linear_closure(G, H, aut, 3, include_schur, stats)
    runs = closure_runs(monkeypatch)
    assert not _linear_closure(G, H, aut, 3, include_schur)
    [bases] = runs
    inserts = sum(len(basis) for basis in bases)
    assert 0 < inserts < stats["inserts"] == stats["dim_total"], (inserts, stats)


def test_randomized_pw_reject_draws_only_its_first_prime(monkeypatch):
    """P4 against K_{1,3} is rejected by the closure at its first 12-bit
    prime, so the decision draws that prime only, of 44, and runs one
    closure."""
    draws = _counted(monkeypatch, "sample_prime_with_bits")
    runs = closure_runs(monkeypatch)
    verdict = homind_randomized(path_graph(4), star_graph(3), builtin("paths", 2),
                                "pw", seed=7, prime_bits=12)
    assert not verdict.accept and verdict.small_stage_witness is None
    assert draws == verdict.primes_used == [verdict.rejecting_prime]
    assert len(runs) == 1


def test_crt_requires_pathwidth_variant():
    """A multi-state treewidth automaton has no deterministic mode; a
    one-state one is decided exactly."""
    with pytest.raises(ValueError, match="pathwidth"):
        homind_deterministic_crt(path_graph(2), path_graph(2), PATHS, variant="tw")
    verdict = homind_deterministic_crt(path_graph(2), path_graph(2),
                                       builtin("tw-all", 1), variant="tw")
    assert verdict.accept and (verdict.mode, verdict.primes_used) == ("exact", [])


def test_crt_prime_budget_error_reports_required_count():
    with pytest.raises(ValueError, match=r"needs \d+ primes"):
        homind_deterministic_crt(path_graph(4), star_graph(3),
                                 builtin("paths", 2), prime_budget=1)


# === Verdict formatting ===


def test_format_verdict_lines():
    text = format_verdict(Verdict(True, "single-prime", [97]))
    assert text.splitlines() == ["verdict=accept", "mode=single-prime",
                                 "prime=97", "witness=none"]
    reject = Verdict(False, "randomized", [5, 11], rejecting_prime=11,
                     small_stage_witness=complete_graph(3))
    lines = format_verdict(reject).splitlines()
    assert lines[0] == "verdict=reject"
    assert "prime=5" in lines and "prime=11" in lines
    assert "rejecting_prime=11" in lines
    assert any(line.startswith("witness=n 3 m 3") for line in lines)
    assert bool(reject) is False
