"""Tests for tuple refinement, parity gadgets, and instance generators.

Expected values are produced by the brute-force oracles (hom_count,
is_isomorphic_small, homind_bruteforce) before being asserted; the
tiny gadget identities (the 2-vertex and triangle bases) were derived by
hand from the construction and double-checked by the same oracles here.
"""

import random

import pytest

from homind.engine import modhomind
from homind.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hom_count,
    is_connected,
    is_isomorphic_small,
    path_graph,
    star_graph,
)
from homind.oracle import enumerate_graphs_up_to, homind_bruteforce
from homind.recognizer import builtin
from homind.wl import (
    CFIInstance,
    categorical_product,
    cfi,
    gen_clique_reduction,
    gen_wl_hardness,
    wl_refine,
)

from conftest import permuted_copy, random_graph

TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


# === gadget construction ===


def test_gadget_of_single_edge():
    """Base K_2: the even twist is K_2 itself, the odd twist drops the
    edge (the two parity assignments disagree on it)."""
    even, odd = cfi(complete_graph(2), 0), cfi(complete_graph(2), 1)
    assert (even.result.n, even.result.m) == (2, 1)
    assert (odd.result.n, odd.result.m) == (2, 0)


def test_gadget_of_triangle():
    even, odd = cfi(complete_graph(3), 0), cfi(complete_graph(3), 1)
    assert even.result.n == odd.result.n == 6  # 3 * 2^(2-1)
    assert is_isomorphic_small(even.result, TWO_TRIANGLES)
    assert is_isomorphic_small(odd.result, cycle_graph(6))


def test_gadget_size_formula_random_bases():
    rng = random.Random(41)
    produced = 0
    while produced < 8:
        g = random_graph(rng, rng.randrange(3, 7), 0.55)
        if any(d == 0 for d in g.degree_sequence()):
            continue
        if max(g.degree_sequence()) > 5:
            continue
        produced += 1
        for parity in (0, 1):
            inst = cfi(g, parity)
            assert inst.result.n == sum(2 ** (d - 1) for d in g.degree_sequence())


def test_gadget_legend_is_a_faithful_witness():
    """Re-derive the graph from the legend: membership parities match the
    twist and adjacency holds iff the assignments agree on the base edge."""
    base = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    for parity in (0, 1):
        inst = cfi(base, parity)
        legend = inst.legend
        assert len(legend) == inst.result.n
        assert len(set(legend)) == len(legend)
        for v, ones in legend:
            incident = {tuple(sorted(e)) for e in base.edges if v in e}
            assert set(ones) <= incident
            assert len(ones) % 2 == (parity if v == 0 else 0)
        for i in range(inst.result.n):
            for j in range(i + 1, inst.result.n):
                u, s = legend[i]
                v, t = legend[j]
                e = tuple(sorted((u, v)))
                expected = (
                    u != v
                    and frozenset((u, v)) in base.edges
                    and ((e in s) == (e in t))
                )
                actual = frozenset((i, j)) in inst.result.edges
                assert actual == expected


def test_gadget_rejects_isolated_vertices_and_bad_parity():
    with pytest.raises(ValueError, match="isolated vertex"):
        cfi(Graph.from_edges(3, [(0, 1)]), 0)
    with pytest.raises(ValueError, match="parity"):
        cfi(complete_graph(2), 2)


def test_parity_dichotomy_and_hom_separation_small_bases():
    """For every connected base on 2..4 vertices the two twists are
    non-isomorphic, and the base itself separates their hom counts."""
    bases = [
        g
        for g in enumerate_graphs_up_to(4)
        if g.n >= 2 and is_connected(g)
    ]
    assert len(bases) == 9
    for g in bases:
        even, odd = cfi(g, 0).result, cfi(g, 1).result
        assert not is_isomorphic_small(even, odd, cap=16)
        assert hom_count(g, even) != hom_count(g, odd)


def test_gadget_of_k5_at_full_scale():
    even, odd = cfi(complete_graph(5), 0), cfi(complete_graph(5), 1)
    assert even.result.n == odd.result.n == 40  # 5 * 2^3
    assert hom_count(complete_graph(5), even.result) == 7680
    assert hom_count(complete_graph(5), odd.result) == 0
    assert not is_isomorphic_small(even.result, odd.result, cap=40)


# === refinement ===


def test_refinement_accepts_isomorphic_pairs():
    rng = random.Random(6)
    for k in (1, 2):
        g = random_graph(rng, 6, 0.5)
        h = permuted_copy(rng, g)
        assert wl_refine(g, h, k)


def test_refinement_on_cycle_versus_triangles():
    assert wl_refine(cycle_graph(6), TWO_TRIANGLES, 1)
    assert not wl_refine(cycle_graph(6), TWO_TRIANGLES, 2)


def test_refinement_on_triangle_gadget_pair():
    even, odd = cfi(complete_graph(3), 0).result, cfi(complete_graph(3), 1).result
    assert wl_refine(even, odd, 1)
    assert not wl_refine(even, odd, 2)


def test_refinement_separates_degree_sequences_at_k1():
    assert not wl_refine(path_graph(4), star_graph(3), 1)


def test_refinement_budget_error():
    with pytest.raises(ValueError, match="budget"):
        wl_refine(cycle_graph(6), cycle_graph(6), 2, budget=100)


def test_refinement_agrees_with_engine_closure():
    """k-dimensional refinement matches the modular closure over all
    graphs at arity k+1 (the treewidth-k correspondence), across five
    random 32-bit primes per pair."""
    rng = random.Random(2718)
    small_iso = random_graph(rng, 3, 0.7)
    pairs = [
        (cycle_graph(6), TWO_TRIANGLES),
        (cfi(complete_graph(3), 0).result, cfi(complete_graph(3), 1).result),
        (path_graph(4), star_graph(3)),
        (path_graph(3), complete_graph(3)),
        (small_iso, permuted_copy(rng, small_iso)),
    ]
    primes = []
    while len(primes) < 5:
        cand = rng.randrange(1 << 31, 1 << 32) | 1
        from homind.modular import is_prime

        if is_prime(cand):
            primes.append(cand)
    for G, H in pairs:
        for k in (1, 2):
            want = wl_refine(G, H, k)
            aut = builtin("tw-all", k + 1)
            got = all(modhomind(G, H, aut, p).accept for p in primes)
            assert got == want, (G, H, k)


# === generators ===


def test_hardness_generator_on_triangle_base():
    g0, g1, k = gen_wl_hardness(complete_graph(3), 1)
    assert (g0.n, g1.n, k) == (6, 6, 1)
    assert wl_refine(g0, g1, 1)
    _, _, k2 = gen_wl_hardness(complete_graph(3), 2)
    assert k2 == 2
    assert not wl_refine(g0, g1, 2)


def test_hardness_generator_preprocesses_messy_bases():
    """Isolated vertices are dropped and components get path-connected,
    so the twisted pair comes from one connected base."""
    messy = Graph.from_edges(5, [(0, 1), (2, 3)])  # vertex 4 isolated
    g0, g1, k = gen_wl_hardness(messy, 1)
    # connected base = P_4 (degrees 1,2,2,1): size 1+2+2+1 = 6
    assert g0.n == g1.n == 6
    assert not is_isomorphic_small(g0, g1, cap=12)
    # tree base has treewidth 1 < k+1, so 1-WL must separate the pair
    assert not wl_refine(g0, g1, 1)


def test_hardness_generator_budget_and_empty_base():
    with pytest.raises(ValueError, match="degree budget"):
        gen_wl_hardness(star_graph(12), 1, max_output=100)
    with pytest.raises(ValueError, match="no edges"):
        gen_wl_hardness(Graph.from_edges(3, []), 1)


def test_product_multiplies_hom_counts():
    rng = random.Random(55)
    A = random_graph(rng, 4, 0.5)
    B = random_graph(rng, 3, 0.6)
    prod = categorical_product(A, B)
    assert prod.n == A.n * B.n
    for F in enumerate_graphs_up_to(3):
        assert hom_count(F, prod) == hom_count(F, A) * hom_count(F, B)


def test_clique_reduction_sizes_and_range():
    A, B, k = gen_clique_reduction(path_graph(3), 3)
    assert k == 3
    assert A.n == B.n == 3 * 6
    with pytest.raises(ValueError, match="clique reduction"):
        gen_clique_reduction(path_graph(3), 5)
    with pytest.raises(ValueError, match="clique reduction"):
        gen_clique_reduction(path_graph(3), 1)


def test_clique_reduction_detects_triangles():
    """The product pair is indistinguishable over graphs on <= 3 vertices
    exactly when the source has no triangle."""
    for g, has_triangle in [
        (path_graph(3), False),
        (cycle_graph(4), False),
        (complete_graph(3), True),
        (complete_graph(4), True),
    ]:
        A, B, k = gen_clique_reduction(g, 3)
        verdict = homind_bruteforce(A, B, "all", k)
        assert verdict.indistinguishable == (not has_triangle)
        if has_triangle:
            assert is_isomorphic_small(verdict.witness, complete_graph(3))
