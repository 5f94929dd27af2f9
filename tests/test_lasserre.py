"""Tests for the level-t matrix-algebra indistinguishability engine.

The partition refinement of ``lasserre_mod`` is gated by its span: the
brute-force homomorphism tensor of every enumerated level-t value, mod
p, must be constant on every colour class, and where the values reach
every dimension their rank must be ``dim_total``.  Its verdict and
``dim_total`` are gated against the linear closure by Gaussian
elimination (``lasserre_reference``) on seeded and structured pairs, and
against exact tw-all accepts at arity 3 on larger pairs, where no
reference runs.  The reference closure's kernels are checked against
each other, and verdict semantics against hand-derived atomic read-outs
(vertex and edge counts) and the brute-force member oracle.
"""

import random
from functools import cache

import numpy as np
import pytest

from homind import engine, lasserre
from homind.engine import _concat, _refine, _split
from homind.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hom_count,
    path_graph,
)
from homind.labelled import enumerate_atomic, enumerate_lasserre, enumerate_lasserre_values
from homind.engine import verdict_pairs
from homind.lasserre import MatrixOps, lasserre_exact, lasserre_mod
from homind.modular import (
    Xoshiro256StarStar,
    bound_lasserre,
    sample_prime_in_range,
)
from homind.oracle import enumerate_graphs_up_to
from homind.wl import cfi

from conftest import closure_runs, permuted_copy, random_graph, rank_mod, stacked_tensors
from lasserre_reference import lasserre_linear, products

BIG_PRIME = (1 << 128) - 159

TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# === the refinement's span against brute-force tensors ===


@cache
def _values(t, depth, max_vertices):
    return enumerate_lasserre_values(t, depth, max_vertices)


@cache
def _exact(t, depth, max_vertices, G, H):
    return stacked_tensors(_values(t, depth, max_vertices), G, H)


def _span_gate(G, H, t, depth, max_vertices, p):
    """Refine G and H at p, then compare the brute-force tensor
    M_G (+) M_H of every enumerated level-t value, mod p, with the colour
    classes.  Returns (every value constant on every class, the values'
    rank, dim_total)."""
    stats = {}
    lasserre_mod(G, H, t, p, stats=stats)
    # the decision counts mod p only where a count can reach p
    colours = lasserre._level_refine(G, H, t, p if p <= max(G.n, H.n) ** t else None)[0]
    exact = _exact(t, depth, max_vertices, G, H)
    residues = exact % p
    first = np.unique(colours, return_index=True)[1]  # a tuple of each class
    constant = bool((residues == residues[:, first[colours]]).all())
    return constant, rank_mod(exact, p), stats["dim_total"]


# (G, H, p, rank of the depth-3 level-1 values on <= 5 vertices, which
# is the dimension of the closure)
LEVEL1_SPANS = [
    (cycle_graph(4), path_graph(5), 2, 16),
    (cycle_graph(4), path_graph(5), 97, 16),
    (cycle_graph(6), TWO_TRIANGLES, 2, 5),
    (cycle_graph(6), TWO_TRIANGLES, 97, 7),
]


def test_level1_term_tensors_match_brute_force():
    """Every level-1 value of depth <= 3 on <= 5 vertices has a
    brute-force tensor that is constant on every colour class of the
    refinement, and the values span all of the classes' indicators."""
    assert len(_values(1, 3, 5)) == 173
    for G, H, p, dim in LEVEL1_SPANS:
        assert _span_gate(G, H, 1, 3, 5, p) == (True, dim, dim), (G, p)


def test_level2_term_tensors_match_brute_force():
    """Level 2 on C3 vs P3: the depth-2 values on <= 3 vertices are
    constant on the colour classes and reach all but one of their 55
    dimensions."""
    assert len(_values(2, 2, 3)) == 121
    G, H = cycle_graph(3), path_graph(3)
    assert _span_gate(G, H, 2, 2, 3, 97) == (True, 54, 55)


def test_term_tensors_big_prime_python_path():
    """The level-1 span gate at a prime above 2^64, where residues are
    Python integers and the partition is the integer one."""
    assert MatrixOps(path_graph(4), 1, BIG_PRIME).dtype == object
    for G, H, dim in [(cycle_graph(4), path_graph(5), 16),
                      (cycle_graph(6), TWO_TRIANGLES, 7)]:
        assert _span_gate(G, H, 1, 3, 5, BIG_PRIME) == (True, dim, dim)


def test_level1_span_is_transpose_closed_without_transpositions(monkeypatch):
    """At t = 1 the reference closure offers no transposition block, since
    its span is closed under the matrix transpose without one (see the
    ``lasserre`` docstring).  On seeded pairs the transpose of every basis
    row reduces to zero against the final basis, and the dimension is that
    of the closure with the transposition block put back."""
    closure = engine._closure

    def with_transposes(bases, seeds, expand, accepting, og, oh, *args):
        def expanded(q, row):
            yield from expand(q, row)
            g, h = _split(row, og.length)
            yield q, _concat(og.transpose(g, 0, 1), oh.transpose(h, 0, 1))
        return closure(bases, seeds, expanded, accepting, og, oh, *args)

    rng = random.Random(41)
    for index in range(12):
        G = random_graph(rng, 3 + index % 5)
        H = permuted_copy(rng, G) if index % 3 == 0 else random_graph(rng, G.n)
        p = (2, 3, 97, 2**31 - 1)[index % 4]
        runs = closure_runs(monkeypatch)
        stats = {}
        lasserre_linear(G, H, 1, p, stats=stats)
        monkeypatch.undo()
        [[basis]] = runs
        ng, nh, rows = G.n, H.n, len(basis)
        mat_g, mat_h = _split(basis.matrix, ng * ng)
        transposed = np.concatenate(
            (mat_g.reshape(rows, ng, ng).transpose(0, 2, 1).reshape(rows, -1),
             mat_h.reshape(rows, nh, nh).transpose(0, 2, 1).reshape(rows, -1)),
            axis=1)
        assert not basis.reduce(transposed).any(), (G, H, p)
        monkeypatch.setattr(engine, "_closure", with_transposes)
        with_block = {}
        lasserre_linear(G, H, 1, p, stats=with_block)
        monkeypatch.undo()
        assert with_block["dim_total"] == stats["dim_total"], (G, H, p)


# === the refinement against the reference closure ===


def _agreed(G, H, t, p):
    """The verdict and dim_total of ``lasserre_mod``, asserted equal to
    those of the reference closure."""
    refined, linear = {}, {}
    accept = lasserre_mod(G, H, t, p, stats=refined).accept
    expected = lasserre_linear(G, H, t, p, stats=linear).accept
    assert (accept, refined["dim_total"]) == (expected, linear["dim_total"]), (
        G, H, t, p)
    assert refined["inserts"] == refined["candidates"] == refined["dim_total"]
    assert refined["per_state"] == {0: refined["dim_total"]}
    return accept, refined["dim_total"]


def test_refinement_matches_reference_closure_on_seeded_pairs():
    """Same verdict and dim_total from the refinement and the linear
    closure on seeded pairs, level 1 on 2-6 vertices and level 2 on 3, at
    five primes up to 2^128 - 159.  (Level 2 on 4 vertices, where the
    reference takes seconds per prime, is gated on C4 against P4.)"""
    rng = random.Random(16)
    verdicts = []
    for index in range(21):
        t, n = (2, 3) if index % 7 == 0 else (1, 2 + index % 5)
        G = random_graph(rng, n)
        H = permuted_copy(rng, G) if index % 3 == 0 else random_graph(rng, n)
        for p in (2, 3, 97, (1 << 31) - 1, BIG_PRIME):
            verdicts.append(_agreed(G, H, t, p)[0])
    assert 30 <= sum(verdicts) <= len(verdicts) - 30, sum(verdicts)


def _rook_and_shrikhande():
    """The 4x4 rook's graph and the Shrikhande graph: both strongly
    regular with parameters (16, 6, 2, 2), so 2-WL cannot split them."""
    cells = [(i, j) for i in range(4) for j in range(4)]
    index = {c: v for v, c in enumerate(cells)}

    def cayley(steps):
        return Graph.from_edges(16, sorted({
            tuple(sorted((index[(i, j)], index[((i + a) % 4, (j + b) % 4)])))
            for i, j in cells for a, b in steps}))

    rook = cayley([(a, 0) for a in (1, 2, 3)] + [(0, b) for b in (1, 2, 3)])
    shrikhande = cayley([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
    return rook, shrikhande


def _structured_pairs():
    c8 = cycle_graph(8)
    cube = Graph.from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4)
                                if u < u ^ bit])
    wagner = Graph.from_edges(8, list(c8.edges) + [(i, i + 4) for i in range(4)])
    k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                 (0, 3), (1, 4), (2, 5)])
    rook, shrikhande = _rook_and_shrikhande()
    every = (2, 3, 5, 7, 97, (1 << 31) - 1, BIG_PRIME)
    return [  # (G, H, t, primes, (accept, dim_total) at each of them)
        (cycle_graph(6), TWO_TRIANGLES, 1, every, None),
        (c8, disjoint_union(cycle_graph(4), cycle_graph(4)), 1, every, None),
        (k33, prism, 1, every, None),
        (cube, wagner, 1, every, None),
        (rook, shrikhande, 1, every, (True, 3)),
        (cycle_graph(5), Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]),
         2, (97,), (True, 63)),
        (cycle_graph(4), path_graph(4), 2, (2,), (True, 164)),
    ]


def test_refinement_matches_reference_closure_on_structured_pairs():
    """Same verdict and dim_total on cospectral, strongly regular and
    relabelled pairs.  Rook 4x4 against Shrikhande accepts at every
    prime with three colours (equal, adjacent, neither)."""
    for G, H, t, primes, expected in _structured_pairs():
        for p in primes:
            got = _agreed(G, H, t, p)
            assert expected is None or got == expected, (G, H, t, p, got)


def test_exact_tw3_accept_implies_level1_accept():
    """A level-1 value has treewidth at most 2 with its labels in one bag
    (a matrix product's bag holds the row, middle and column vertex), so
    an exact tw-all accept at arity 3, equal counts over the integers
    from every graph on at most 3 vertices and a balanced integer
    ``_refine`` partition, implies a level-1 accept at every prime.
    Checked in that one direction on seeded pairs on 6-10 vertices,
    permuted or not, on rook 4x4 against Shrikhande and on the even and
    odd CFI graphs over K4 (treewidth 3), with no size cap from a
    reference."""
    rng = random.Random(3)
    pairs = [_rook_and_shrikhande(),
             tuple(cfi(complete_graph(4), parity).result for parity in (0, 1))]
    for index in range(12):
        G = random_graph(rng, 6 + index % 5)
        H = permuted_copy(rng, G) if index % 2 else random_graph(rng, G.n)
        pairs.append((G, H))
    small = enumerate_graphs_up_to(3)
    accepted = 0
    for G, H in pairs:
        if any(hom_count(F, G) != hom_count(F, H) for F in small):
            continue
        sizes_g, sizes_h = _refine(G, H, 3, None)
        if (sizes_g != sizes_h).any():
            continue
        accepted += 1
        for p in (2, 3, 97, (1 << 31) - 1, BIG_PRIME):
            assert lasserre_mod(G, H, 1, p).accept, (G, H, p)
    assert accepted >= 8, accepted


def test_atomic_enumeration_sizes():
    assert len(enumerate_atomic(1)) == 3
    assert len(enumerate_atomic(2)) == 127


def _atomic_identity(t):
    """The atomic with u_i = v_i and no edges; its tensor is the identity."""
    return next(a for a in enumerate_atomic(t)
                if a.graph.m == 0 and a.in_labels == a.out_labels == tuple(range(t)))


def test_identity_atomic_tensor_is_identity_matrix():
    g = cycle_graph(4)
    ops = MatrixOps(g, 1, 101)
    ident = ops.atomic_tensor(_atomic_identity(1))
    assert list(ident) == list(np.eye(4, dtype=np.uint64).reshape(-1))


def test_atomic_readouts_are_vertex_and_edge_counts():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    ops = MatrixOps(g, 1, 997)
    coincident = ops.atomic_tensor(_atomic_identity(1))
    assert ops.total(coincident) == g.n
    edge_atomic = next(
        a
        for a in enumerate_atomic(1)
        if a.graph.n == 2 and a.graph.m == 1
    )
    assert ops.total(ops.atomic_tensor(edge_atomic)) == 2 * g.m


def test_matmul_python_and_numpy_paths_agree():
    rng = random.Random(13)
    g = random_graph(rng, 4, 0.5)
    small = MatrixOps(g, 1, 10007)
    big = MatrixOps(g, 1, BIG_PRIME)
    a = [rng.randrange(10007) for _ in range(16)]
    b = [rng.randrange(10007) for _ in range(16)]
    an = np.array(a, dtype=np.uint64)
    bn = np.array(b, dtype=np.uint64)
    got_np = [int(x) for x in small.matmul(an, bn)]
    ao = np.array(a, dtype=object)
    bo = np.array(b, dtype=object)
    got_py = [x % 10007 for x in big.matmul(ao, bo)]
    assert got_np == got_py


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("p", [101, (1 << 31) - 1, BIG_PRIME])
def test_products_are_matmuls_in_closure_order(t, p):
    """Row 2b of the reference closure's ``products`` is M X_b and row
    2b+1 is X_b M: the order the closure offers them in, which fixes the
    order of its basis rows."""
    rng = random.Random(31 + t)
    ops = MatrixOps(random_graph(rng, 3, 0.5), t, p)
    dtype = ops.dtype
    m = np.array([rng.randrange(p) for _ in range(ops.length)], dtype=dtype)
    others = np.array([[rng.randrange(p) for _ in range(ops.length)]
                       for _ in range(5)], dtype=dtype)
    got = products(ops, m, others)
    assert got.shape == (10, ops.length) and got.dtype == dtype
    for b, x in enumerate(others):
        assert got[2 * b].tolist() == ops.matmul(m, x).tolist()
        assert got[2 * b + 1].tolist() == ops.matmul(x, m).tolist()


# === verdict semantics ===


def test_isomorphic_pairs_accept_both_levels():
    rng = random.Random(77)
    for t in (1, 2):
        g = random_graph(rng, 4, 0.5)
        h = permuted_copy(rng, g)
        verdict = lasserre_mod(g, h, t, 101)
        assert verdict.accept, (t, g)
        assert verdict.mode == "single-prime"


def test_unequal_order_rejected_above_order():
    """The all-coincident atomic reads off |V| mod p, so any p larger
    than both orders separates graphs of different sizes."""
    verdict = lasserre_mod(path_graph(4), path_graph(5), 1, 11)
    assert not verdict.accept
    assert verdict.rejecting_prime == 11


def test_edge_count_difference_rejected():
    a = Graph.from_edges(4, [(0, 1), (1, 2)])
    b = Graph.from_edges(4, [(0, 1)])
    assert not lasserre_mod(a, b, 1, 101).accept


def test_level_and_modulus_validation():
    with pytest.raises(ValueError, match="level"):
        lasserre_mod(path_graph(2), path_graph(2), 3, 7)
    with pytest.raises(ValueError, match="not prime"):
        lasserre_mod(path_graph(2), path_graph(2), 1, 9)


def test_closure_order_independent_and_dimension_bounded():
    """The reference closure's verdict and dimension do not depend on its
    pop order."""
    G, H = cycle_graph(6), TWO_TRIANGLES
    base_stats = {}
    expected = lasserre_linear(G, H, 1, 101, stats=base_stats).accept
    assert base_stats["dim_total"] <= G.n**2 + H.n**2
    for seed in range(5):
        stats = {}
        verdict = lasserre_linear(G, H, 1, 101,
                                  order_rng=Xoshiro256StarStar(seed), stats=stats)
        assert verdict.accept == expected
        assert stats["dim_total"] == base_stats["dim_total"]


def test_level1_accept_implies_member_agreement():
    """Accepted pairs agree mod p on hom counts from every enumerated
    level-1 member — the sound direction of the class characterization."""
    rng = random.Random(404)
    members = enumerate_lasserre(1, 3, 6)
    assert members
    checked_accept = 0
    for _ in range(6):
        g = random_graph(rng, rng.randrange(3, 6), 0.5)
        h = permuted_copy(rng, g) if rng.random() < 0.5 else random_graph(
            rng, rng.randrange(3, 6), 0.5
        )
        p = rng.choice([101, 10007])
        if lasserre_mod(g, h, 1, p).accept:
            checked_accept += 1
            for F in members:
                assert hom_count(F, g) % p == hom_count(F, h) % p, (g, h, F)
    assert checked_accept >= 1


def test_level1_separates_cycle_from_triangles():
    """Level 1 sees closed walks against edge indicators (Schur of the
    adjacency atomic with a product term), which counts triangles:
    C_6 has none, the triangle pair has 36 ordered ones."""
    verdict = lasserre_mod(cycle_graph(6), TWO_TRIANGLES, 1, 101)
    assert not verdict.accept


# === random mode: the exact decision ===


def test_randomized_bound_example_and_prime_range():
    """The level-1 bound at n = 2; every prime a certified draw returns
    exceeds L = 512 > n^2, so random mode decides exactly and draws none:
    its verdict is the exact one, with no prime listed."""
    bounds = bound_lasserre(2, 1)
    assert (bounds.N, bounds.L, bounds.trials) == (512, 512, 36)
    g = complete_graph(2)
    h = permuted_copy(random.Random(1), g)
    verdict = lasserre_exact(g, h, 1)
    assert verdict.accept
    assert verdict_pairs(verdict) == [("verdict", "accept"), ("mode", "exact"),
                                      ("witness", "none")]


def test_randomized_refines_once_per_decision(monkeypatch):
    """A random-mode decision refines the partition once, over the
    integers: every prime a certified draw returns exceeds n^t, the
    largest product count, so its partition is the integer one."""
    calls = []
    colours = lasserre._level_refine

    def counted(G, H, t, modulus):
        calls.append(modulus)
        return colours(G, H, t, modulus)

    monkeypatch.setattr(lasserre, "_level_refine", counted)
    g = random_graph(random.Random(4), 5)
    verdict = lasserre_exact(g, permuted_copy(random.Random(5), g), 1)
    assert verdict.accept
    assert verdict.primes_used == []
    assert calls == [None]


def test_randomized_draws_only_the_primes_it_decides(monkeypatch):
    """A level-1 decision draws no prime at all."""
    draws = []
    sample = engine.sample_prime_in_range

    def counted(L, rng):
        draws.append(L)
        return sample(L, rng)

    monkeypatch.setattr(engine, "sample_prime_in_range", counted)
    verdict = lasserre_exact(path_graph(3), complete_graph(3), 1)
    assert not verdict.accept and verdict.primes_used == []
    assert draws == []


def test_randomized_rejects_edge_count_difference():
    a = Graph.from_edges(4, [(0, 1), (1, 2)])
    b = Graph.from_edges(4, [(0, 1)])
    verdict = lasserre_exact(a, b, 1)
    assert not verdict.accept
    assert verdict.rejecting_prime is None and verdict.mode == "exact"


def test_exact_verdict_is_the_verdict_at_a_certified_prime():
    """At a prime above the level-t bound L the modular verdict and
    dimension are the exact ones, on seeded pairs at both levels."""
    rng = Xoshiro256StarStar(5)
    pairs = [(cycle_graph(6), TWO_TRIANGLES), (path_graph(4), Graph.from_edges(
        4, [(0, 1), (0, 2), (0, 3)]))]
    seeded = random.Random(17)
    for n in (3, 4, 5):
        g = random_graph(seeded, n)
        pairs += [(g, permuted_copy(seeded, g)), (g, random_graph(seeded, n))]
    for G, H in pairs:
        for t in (1, 2) if max(G.n, H.n) <= 3 else (1,):
            p = sample_prime_in_range(bound_lasserre(max(G.n, H.n), t).L, rng)
            exact, modular = {}, {}
            assert (lasserre_exact(G, H, t, stats=exact).accept
                    == lasserre_mod(G, H, t, p, stats=modular).accept), (G, H, t)
            assert exact == modular

