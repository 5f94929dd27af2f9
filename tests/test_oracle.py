"""Tests for the brute-force oracles, the exact width oracles and the
reference hom tensor."""

import itertools
import random

import numpy as np
import pytest

from homind.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    hom_count,
    is_isomorphic_small,
    path_graph,
    star_graph,
    walk_counts,
)
from homind.labelled import (
    LabelledGraph,
    LabelledSet,
    enumerate_atomic,
    glue,
    one_labelled,
    permute_labels,
    series,
    soe,
)
from homind.modular import Xoshiro256StarStar
from homind.oracle import (
    class_members,
    enumerate_graphs,
    enumerate_graphs_up_to,
    exact_pathwidth_tiny,
    exact_treewidth_tiny,
    homind_bruteforce,
    is_path_graph,
    parse_class_spec,
    paths_oracle,
)

from conftest import hom_tensor, permuted_copy, random_graph, seeded
from test_labelled import a_generator


# ------------------------------------------------------------ enumeration


def test_enumerate_graphs_known_counts():
    # numbers of non-isomorphic simple graphs on n vertices
    for n, expected in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]:
        assert len(enumerate_graphs(n)) == expected


def test_enumerate_graphs_seven():
    assert len(enumerate_graphs(7)) == 1044


def test_enumerate_graphs_pairwise_nonisomorphic():
    graphs = enumerate_graphs(5)
    for a, b in itertools.combinations(graphs, 2):
        assert not is_isomorphic_small(a, b)


def test_enumerate_graphs_cap():
    with pytest.raises(ValueError):
        enumerate_graphs(8)


def test_enumerate_graphs_order():
    graphs = enumerate_graphs(4)
    edge_counts = [g.m for g in graphs]
    assert edge_counts == sorted(edge_counts)
    assert graphs[0] == empty_graph(4)
    assert graphs[-1] == complete_graph(4)


def test_enumerate_up_to():
    assert len(enumerate_graphs_up_to(5)) == 1 + 2 + 4 + 11 + 34


def test_one_dedup_keeps_the_first_graph_of_each_class():
    """Every graph on at most 6 vertices, each followed by a relabelled
    copy, goes into one ``LabelledSet`` as a 0-labelled graph; exactly
    ``enumerate_graphs``'s list comes back, in order.  Labelled graphs
    that differ only in the order of their labels stay apart."""
    rng = random.Random(28)
    graphs = enumerate_graphs_up_to(6)
    seen = LabelledSet()
    for g in graphs:
        assert seen.add(LabelledGraph(g, ()))
        assert not seen.add(LabelledGraph(permuted_copy(rng, g), ()))
    assert [F.graph for F, _ in seen.items] == graphs
    assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156
    p3 = path_graph(3)  # 0 - 1 - 2
    seen = LabelledSet()
    assert seen.add(LabelledGraph(p3, (0, 1)))  # (end, middle)
    assert seen.add(LabelledGraph(p3, (1, 0)))  # (middle, end)
    assert not seen.add(LabelledGraph(p3, (2, 1)))  # (end, middle) again
    assert seen.add(LabelledGraph(p3, (), (0, 1)))  # out-labels, not in-labels
    assert len(seen.items) == 3


# ------------------------------------------------------------ exact widths


def grid(r, c):
    edges = []
    for i in range(r):
        for j in range(c):
            if j + 1 < c:
                edges.append((i * c + j, i * c + j + 1))
            if i + 1 < r:
                edges.append((i * c + j, (i + 1) * c + j))
    return Graph.from_edges(r * c, edges)


def test_treewidth_known_values():
    assert exact_treewidth_tiny(complete_graph(4)) == 3
    assert exact_treewidth_tiny(cycle_graph(6)) == 2
    for n in (2, 4, 7):
        assert exact_treewidth_tiny(path_graph(n)) == 1
    assert exact_treewidth_tiny(star_graph(6), cap=8) == 1
    assert exact_treewidth_tiny(grid(2, 2)) == 2
    assert exact_treewidth_tiny(grid(2, 3)) == 2
    assert exact_treewidth_tiny(grid(3, 3), cap=9) == 3
    assert exact_treewidth_tiny(empty_graph(3)) == 0
    assert exact_treewidth_tiny(empty_graph(0)) == -1


def test_treewidth_cap():
    with pytest.raises(ValueError, match="cap"):
        exact_treewidth_tiny(empty_graph(9))


def test_pathwidth_known_values():
    assert exact_pathwidth_tiny(path_graph(5)) == 1
    assert exact_pathwidth_tiny(cycle_graph(5)) == 2
    assert exact_pathwidth_tiny(complete_graph(4)) == 3
    assert exact_pathwidth_tiny(star_graph(5)) == 1
    assert exact_pathwidth_tiny(empty_graph(4)) == 0
    # caterpillar: spine with legs
    cat = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5)])
    assert exact_pathwidth_tiny(cat) == 1


def test_pathwidth_at_least_treewidth():
    rng = seeded(22)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        assert exact_pathwidth_tiny(g) >= exact_treewidth_tiny(g)


# ------------------------------------------------------------ class specs


def test_parse_class_spec():
    assert parse_class_spec("all").kind == "all"
    assert parse_class_spec("tw<=1") == parse_class_spec("tw:1")
    assert parse_class_spec("pw<=2").param == 2
    assert parse_class_spec("paths").kind == "paths"
    assert parse_class_spec("lasserre-t1").param == 1
    with pytest.raises(ValueError):
        parse_class_spec("everything")


def test_class_members_forests():
    # forests on exactly n vertices: 1, 2, 3, 6, 10, 20, 37 (n = 1..7)
    members = class_members("tw<=1", 7)
    assert len(members) == 1 + 2 + 3 + 6 + 10 + 20 + 37
    by_n = {}
    for g in members:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 20, 7: 37}


def test_class_members_paths_and_pw():
    paths = class_members("paths", 5)
    assert [g.n for g in paths] == [1, 2, 3, 4, 5]
    assert all(is_path_graph(g) for g in paths)
    # on <= 5 vertices every forest is a caterpillar forest, so pw<=1
    # coincides with tw<=1 there
    assert class_members("pw<=1", 5) == class_members("tw<=1", 5)


def test_is_path_graph():
    assert is_path_graph(path_graph(1))
    assert is_path_graph(path_graph(4))
    assert not is_path_graph(cycle_graph(4))
    assert not is_path_graph(star_graph(3))
    assert not is_path_graph(disjoint_union(path_graph(2), path_graph(2)))
    assert not is_path_graph(empty_graph(0))


# ------------------------------------------------------------ brute force


def test_bruteforce_c6_vs_2k3_over_forests():
    c6 = cycle_graph(6)
    kk = disjoint_union(complete_graph(3), complete_graph(3))
    verdict = homind_bruteforce(c6, kk, "tw<=1", 7)
    assert verdict.indistinguishable
    assert verdict.witness is None
    assert verdict.family_size == 79


def test_bruteforce_c6_vs_2k3_over_all_small():
    c6 = cycle_graph(6)
    kk = disjoint_union(complete_graph(3), complete_graph(3))
    verdict = homind_bruteforce(c6, kk, "all", 3)
    assert not verdict.indistinguishable
    assert is_isomorphic_small(verdict.witness, complete_graph(3))
    assert verdict.counts == (0, 12)


def test_bruteforce_vacuous_at_size_zero():
    verdict = homind_bruteforce(path_graph(2), complete_graph(4), "all", 0)
    assert verdict.indistinguishable
    assert verdict.family_size == 0


def test_bruteforce_modular():
    # orders 3 and 5 differ exactly but agree mod 2
    g, h = empty_graph(3), empty_graph(5)
    assert not homind_bruteforce(g, h, "all", 1).indistinguishable
    assert homind_bruteforce(g, h, "all", 1, modulus=2).indistinguishable


def test_bruteforce_budget_caps_each_count():
    """The budget bounds every single homomorphism count, not the run:
    P4 against K_{1,3} counts six members on both graphs, each under 50
    steps, and rejects at P3 (10 against 12 walks of length 2)."""
    verdict = homind_bruteforce(path_graph(4), star_graph(3), "all", 5, budget=50)
    assert not verdict.indistinguishable
    assert is_isomorphic_small(verdict.witness, path_graph(3))
    assert verdict.counts == (10, 12)


def test_size_bruteforce_k1_is_order_comparison():
    rng = Xoshiro256StarStar(2)
    for _ in range(10):
        g = random_graph(rng, 1 + rng.randbelow(6))
        h = random_graph(rng, 1 + rng.randbelow(6))
        verdict = homind_bruteforce(g, h, "all", 1)
        assert verdict.indistinguishable == (g.n == h.n)


# ------------------------------------------------------------ paths oracle


def test_paths_oracle_examples():
    c6 = cycle_graph(6)
    kk = disjoint_union(complete_graph(3), complete_graph(3))
    assert paths_oracle(c6, kk)
    assert not paths_oracle(path_graph(4), star_graph(3))
    rng = Xoshiro256StarStar(8)
    for _ in range(10):
        g = random_graph(rng, 1 + rng.randbelow(6))
        assert paths_oracle(g, g)


def test_paths_oracle_modular():
    g, h = empty_graph(3), empty_graph(5)
    assert not paths_oracle(g, h)
    assert paths_oracle(g, h, modulus=2)


def test_paths_bruteforce_agrees_with_walk_oracle_small():
    # complete cross-validation on all pairs of graphs with <= 4 vertices;
    # the first disagreement between two order-<=n walk sequences shows up
    # by index 2n-1, so truncating members at 2n vertices loses nothing
    graphs = enumerate_graphs_up_to(4)
    for g, h in itertools.combinations(graphs, 2):
        max_size = 2 * max(g.n, h.n)
        verdict = homind_bruteforce(g, h, "paths", max_size)
        assert verdict.indistinguishable == paths_oracle(g, h), (g, h)


def test_paths_bruteforce_agrees_on_random_5_vertex_pairs():
    rng = Xoshiro256StarStar(77)
    graphs = enumerate_graphs(5)
    for _ in range(30):
        g = graphs[rng.randbelow(len(graphs))]
        h = graphs[rng.randbelow(len(graphs))]
        verdict = homind_bruteforce(g, h, "paths", 10)
        assert verdict.indistinguishable == paths_oracle(g, h), (g, h)


def test_walk_vectors_match_paths_oracle_exhaustively_at_5():
    # same invariant, all pairs at <= 5 vertices, via cached walk vectors
    graphs = enumerate_graphs_up_to(5)
    vectors = {i: walk_counts(g, 9) for i, g in enumerate(graphs)}
    for (i, g), (j, h) in itertools.combinations(enumerate(graphs), 2):
        upto = 2 * max(g.n, h.n)
        expected = vectors[i][:upto] == vectors[j][:upto]
        assert paths_oracle(g, h) == expected, (g, h)


# ------------------------------------------------------------ hom tensors


def test_hom_tensor_soe_correspondence():
    rng = Xoshiro256StarStar(55)
    for _ in range(25):
        k = 1 + rng.randbelow(2)
        n_f = k + rng.randbelow(3)
        ids = list(range(n_f))
        rng.shuffle(ids)
        f = LabelledGraph(random_graph(rng, n_f), tuple(ids[:k]))
        g = random_graph(rng, 1 + rng.randbelow(4))
        tensor = hom_tensor(f, g)
        assert tensor.sum() == hom_count(soe(f), g)


def test_hom_tensor_glue_is_schur_product():
    rng = Xoshiro256StarStar(56)
    for _ in range(25):
        k = 1 + rng.randbelow(2)
        fs = []
        for _ in range(2):
            n_f = k + rng.randbelow(3)
            ids = list(range(n_f))
            rng.shuffle(ids)
            fs.append(LabelledGraph(random_graph(rng, n_f), tuple(ids[:k])))
        g = random_graph(rng, 1 + rng.randbelow(4))
        glued = hom_tensor(glue(fs[0], fs[1]), g)
        assert np.array_equal(glued, hom_tensor(fs[0], g) * hom_tensor(fs[1], g))


def test_hom_tensor_series_is_matrix_product():
    # at t=1 the bilabelled tensors are matrices and series composition is
    # literal matrix multiplication
    edge = next(a for a in enumerate_atomic(1) if soe(a).m == 1)
    rng = Xoshiro256StarStar(57)
    for _ in range(15):
        g = random_graph(rng, 2 + rng.randbelow(3))
        a = hom_tensor(edge, g)
        p3 = series(edge, edge)
        assert np.array_equal(hom_tensor(p3, g), a @ a)


def test_hom_tensor_permutation_is_axis_permutation():
    rng = Xoshiro256StarStar(58)
    for _ in range(15):
        k = 1 + rng.randbelow(2)
        n_f = 2 * k + rng.randbelow(2)
        ids = list(range(n_f))
        rng.shuffle(ids)
        f = LabelledGraph(random_graph(rng, n_f), tuple(ids[:k]), tuple(ids[k:2 * k]))
        g = random_graph(rng, 2 + rng.randbelow(3))
        r = 2 * k
        sigma = list(range(r))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        permuted = hom_tensor(permute_labels(f, sigma), g)
        original = hom_tensor(f, g)
        # definition: permuted[w] = original at the index u with u[sigma[i]] = w[i]
        for w in itertools.product(range(g.n), repeat=r):
            u = [0] * r
            for i in range(r):
                u[sigma[i]] = w[i]
            assert permuted[w] == original[tuple(u)]


def test_hom_tensor_generators_in_k3():
    g = complete_graph(3)
    t_a = hom_tensor(a_generator(2, 1, 2), g)
    # A^{12} is diagonal-supported: in and out labels share vertices
    for i, j, i2, j2 in itertools.product(range(3), repeat=4):
        expected = 1 if (i, j) == (i2, j2) and i != j else 0
        assert t_a[i, j, i2, j2] == expected
    t_one = hom_tensor(one_labelled(2), g)
    assert np.array_equal(t_one, np.ones((3, 3), dtype=object))


def test_hom_tensor_modulus():
    f = one_labelled(1)
    g = empty_graph(5)
    # hom counts of K1 pinned: 1 each; with a second free vertex: 5
    f2 = LabelledGraph(empty_graph(2), (0,))
    t = hom_tensor(f2, g)
    assert all(t[i] == 5 for i in range(5))
    t2 = hom_tensor(f2, g, modulus=2)
    assert all(t2[i] == 1 for i in range(5))
