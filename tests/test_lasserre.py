"""Tests for the level-t matrix-algebra indistinguishability engine.

The closure is gated by its span: the brute-force homomorphism tensor
of every enumerated level-t value must reduce to zero against the basis
the closure ends with, and where the values reach every dimension their
rank must be ``dim_total``.  The matrix-product kernels are checked
against each other, verdict semantics against hand-derived atomic
read-outs (vertex and edge counts) and the brute-force member oracle.
"""

import random
from functools import cache

import numpy as np
import pytest

from homind import lasserre
from homind.engine import _concat, _split
from homind.graphs import Graph, complete_graph, cycle_graph, hom_count, path_graph
from homind.labelled import enumerate_atomic, enumerate_lasserre, enumerate_lasserre_values
from homind.lasserre import MatrixOps, lasserre_mod, lasserre_randomized
from homind.modular import BoundOverflow, Xoshiro256StarStar, bound_lasserre

from conftest import closure_runs, permuted_copy, random_graph, span_check, stacked_tensors

BIG_PRIME = (1 << 128) - 159

TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# === the closure's span against brute-force tensors ===


@cache
def _values(t, depth, max_vertices):
    return enumerate_lasserre_values(t, depth, max_vertices)


@cache
def _exact(t, depth, max_vertices, G, H):
    return stacked_tensors(_values(t, depth, max_vertices), G, H)


def _span_gate(monkeypatch, G, H, t, depth, max_vertices, p):
    """Close G and H at p, then reduce the brute-force tensor M_G (+) M_H
    of every enumerated level-t value against the closure's basis.
    Returns (every value in the span, the values' rank, dim_total)."""
    runs = closure_runs(monkeypatch)
    stats = {}
    lasserre_mod(G, H, t, p, stats=stats)
    monkeypatch.undo()
    [[basis]] = runs
    in_span, rank = span_check(basis, _exact(t, depth, max_vertices, G, H), p)
    return in_span, rank, stats["dim_total"]


# (G, H, p, rank of the depth-3 level-1 values on <= 5 vertices, which
# is the dimension of the closure)
LEVEL1_SPANS = [
    (cycle_graph(4), path_graph(5), 2, 16),
    (cycle_graph(4), path_graph(5), 97, 16),
    (cycle_graph(6), TWO_TRIANGLES, 2, 5),
    (cycle_graph(6), TWO_TRIANGLES, 97, 7),
]


def test_level1_term_tensors_match_brute_force(monkeypatch):
    """Every level-1 value of depth <= 3 on <= 5 vertices has its
    brute-force tensor in the span the closure builds from the kernels,
    and the values span all of it."""
    assert len(_values(1, 3, 5)) == 173
    for G, H, p, dim in LEVEL1_SPANS:
        assert _span_gate(monkeypatch, G, H, 1, 3, 5, p) == (True, dim, dim), (G, p)


def test_level2_term_tensors_match_brute_force(monkeypatch):
    """Level 2 on C3 vs P3: the depth-2 values on <= 3 vertices lie in the
    closure's span and reach all but one of its 55 dimensions."""
    assert len(_values(2, 2, 3)) == 121
    G, H = cycle_graph(3), path_graph(3)
    assert _span_gate(monkeypatch, G, H, 2, 2, 3, 97) == (True, 54, 55)


def test_term_tensors_big_prime_python_path(monkeypatch):
    """The level-1 span gate on Python-integer residues."""
    assert MatrixOps(path_graph(4), 1, BIG_PRIME).dtype == object
    for G, H, dim in [(cycle_graph(4), path_graph(5), 16),
                      (cycle_graph(6), TWO_TRIANGLES, 7)]:
        assert _span_gate(monkeypatch, G, H, 1, 3, 5, BIG_PRIME) == (True, dim, dim)


def test_level1_span_is_transpose_closed_without_transpositions(monkeypatch):
    """At t = 1 the closure offers no transposition block, since its span
    is closed under the matrix transpose without one (see the module
    docstring).  On seeded pairs the transpose of every basis row reduces
    to zero against the final basis, and the dimension is that of the
    closure with the transposition block put back."""
    closure = lasserre._closure

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
        lasserre_mod(G, H, 1, p, stats=stats)
        monkeypatch.undo()
        [[basis]] = runs
        ng, nh, rows = G.n, H.n, len(basis)
        mat_g, mat_h = _split(basis.matrix, ng * ng)
        transposed = np.concatenate(
            (mat_g.reshape(rows, ng, ng).transpose(0, 2, 1).reshape(rows, -1),
             mat_h.reshape(rows, nh, nh).transpose(0, 2, 1).reshape(rows, -1)),
            axis=1)
        assert not basis.reduce(transposed).any(), (G, H, p)
        monkeypatch.setattr(lasserre, "_closure", with_transposes)
        with_block = {}
        lasserre_mod(G, H, 1, p, stats=with_block)
        monkeypatch.undo()
        assert with_block["dim_total"] == stats["dim_total"], (G, H, p)


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
    """Row 2b of ``products`` is M X_b and row 2b+1 is X_b M: the order
    the closure offers them in, which fixes the order of its basis rows."""
    rng = random.Random(31 + t)
    ops = MatrixOps(random_graph(rng, 3, 0.5), t, p)
    dtype = ops.dtype
    m = np.array([rng.randrange(p) for _ in range(ops.length)], dtype=dtype)
    others = np.array([[rng.randrange(p) for _ in range(ops.length)]
                       for _ in range(5)], dtype=dtype)
    got = ops.products(m, others)
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
    G, H = cycle_graph(6), TWO_TRIANGLES
    base_stats = {}
    expected = lasserre_mod(G, H, 1, 101, stats=base_stats).accept
    assert base_stats["dim_total"] <= G.n**2 + H.n**2
    for seed in range(5):
        stats = {}
        verdict = lasserre_mod(G, H, 1, 101,
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


# === randomized wrapper ===


def test_randomized_bound_example_and_prime_range():
    bounds = bound_lasserre(2, 1)
    assert (bounds.N, bounds.L, bounds.trials) == (512, 512, 36)
    g = complete_graph(2)
    h = permuted_copy(random.Random(1), g)
    verdict = lasserre_randomized(g, h, 1, seed=4)
    assert verdict.accept
    for p in verdict.primes_used:
        assert 512 < p <= 512**2


def test_randomized_rejects_edge_count_difference():
    a = Graph.from_edges(4, [(0, 1), (1, 2)])
    b = Graph.from_edges(4, [(0, 1)])
    verdict = lasserre_randomized(a, b, 1, seed=9)
    assert not verdict.accept
    assert verdict.rejecting_prime == verdict.primes_used[-1]


def test_randomized_heuristic_mode_is_flagged():
    g = path_graph(4)
    h = permuted_copy(random.Random(3), g)
    verdict = lasserre_randomized(g, h, 1, seed=2, prime_bits=24)
    assert verdict.accept
    assert "heuristic" in verdict.notes
    for p in verdict.primes_used:
        assert p.bit_length() == 24


def test_randomized_overflow_suggests_heuristic_mode():
    with pytest.raises(BoundOverflow, match="prime_bits"):
        lasserre_randomized(cycle_graph(6), TWO_TRIANGLES, 2, bit_cap=50)
