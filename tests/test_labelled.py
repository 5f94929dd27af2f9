"""Tests for the labelled-graph algebra, term evaluation, and enumerators."""

import pytest

from homind.graphs import (
    Graph,
    complete_graph,
    empty_graph,
    is_isomorphic_small,
    path_graph,
)
from homind.labelled import (
    ArityMismatch,
    LabelledGraph,
    LoopCreated,
    TApplyA,
    TApplyJ,
    TGlue,
    TOne,
    enumerate_atomic,
    enumerate_lasserre,
    enumerate_lasserre_values,
    enumerate_tw,
    format_term,
    glue,
    labelled_isomorphic,
    one_labelled,
    permute_labels,
    series,
    soe,
    val,
    val_apply_a,
    val_apply_j,
)
from homind.modular import Xoshiro256StarStar
from homind.oracle import exact_pathwidth_tiny, exact_treewidth_tiny

from conftest import enumerate_pw


def random_labelled(rng, k, n, p=0.5, bilabelled=False):
    """Random distinctly labelled graph on n >= k (or >= 2k) vertices."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.randbelow(100) < int(p * 100):
                edges.append((u, v))
    g = Graph.from_edges(n, edges)
    ids = list(range(n))
    rng.shuffle(ids)
    if bilabelled:
        return LabelledGraph(g, tuple(ids[:k]), tuple(ids[k:2 * k]))
    return LabelledGraph(g, tuple(ids[:k]))


def j_generator(k, i):
    """J^i as a (k, k)-bilabelled graph: k+1 isolated vertices; label i
    moves to the fresh vertex.

    Out-labels sit on the original k vertices, in-labels agree except that
    position i points at the fresh vertex k (0-based id).  ``series`` with
    it is ``val_apply_j``.
    """
    if not 1 <= i <= k:
        raise ValueError(f"J index {i} outside 1..{k}")
    ins = tuple(k if j == i - 1 else j for j in range(k))
    outs = tuple(range(k))
    return LabelledGraph(empty_graph(k + 1), ins, outs)


def a_generator(k, i, j):
    """A^{ij} as a (k, k)-bilabelled graph: the k labelled vertices with
    the single edge {i, j}.  ``series`` with it is ``val_apply_a``."""
    if not 1 <= i < j <= k:
        raise ValueError(f"A indices ({i},{j}) need 1 <= i < j <= {k}")
    ids = tuple(range(k))
    return LabelledGraph(Graph.from_edges(k, [(i - 1, j - 1)]), ids, ids)


# ------------------------------------------------------------ basic ops


def test_soe_examples():
    assert soe(one_labelled(3)) == empty_graph(3)
    k3 = LabelledGraph(complete_graph(3), (0, 1, 2))
    assert soe(k3) == complete_graph(3)


def test_soe_glue_vertex_count():
    rng = Xoshiro256StarStar(7)
    for _ in range(20):
        k = 1 + rng.randbelow(3)
        f1 = random_labelled(rng, k, k + rng.randbelow(3))
        f2 = random_labelled(rng, k, k + rng.randbelow(3))
        merged = glue(f1, f2)
        assert soe(merged).n == soe(f1).n + soe(f2).n - k


def test_glue_identity_element():
    rng = Xoshiro256StarStar(13)
    for _ in range(20):
        k = 1 + rng.randbelow(3)
        f = random_labelled(rng, k, k + rng.randbelow(3))
        assert labelled_isomorphic(glue(one_labelled(k), f), f)
        assert labelled_isomorphic(glue(f, one_labelled(k)), f)


def test_glue_two_labelled_edges_gives_p3():
    edge = LabelledGraph(path_graph(2), (0,))
    glued = glue(edge, edge)
    center = LabelledGraph(path_graph(3), (1,))
    assert labelled_isomorphic(glued, center)
    # but not a path labelled at an end
    end = LabelledGraph(path_graph(3), (0,))
    assert not labelled_isomorphic(glued, end)


def test_glue_commutative_up_to_isomorphism():
    rng = Xoshiro256StarStar(23)
    for _ in range(20):
        k = 1 + rng.randbelow(3)
        f1 = random_labelled(rng, k, k + rng.randbelow(3))
        f2 = random_labelled(rng, k, k + rng.randbelow(3))
        assert labelled_isomorphic(glue(f1, f2), glue(f2, f1))


def test_glue_arity_mismatch():
    with pytest.raises(ArityMismatch):
        glue(one_labelled(2), one_labelled(3))


def test_series_generator_examples():
    for k in (1, 2, 3):
        for i in range(1, k + 1):
            result = series(j_generator(k, i), one_labelled(k))
            # k+1 isolated vertices; labels are 0..k-1 except position i-1
            # holds the fresh vertex k
            labels = list(range(k))
            labels[i - 1] = k
            expected = LabelledGraph(empty_graph(k + 1), tuple(labels))
            assert labelled_isomorphic(result, expected)
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                result = series(a_generator(k, i, j), one_labelled(k))
                expected = LabelledGraph(
                    Graph.from_edges(k, [(i - 1, j - 1)]), tuple(range(k))
                )
                assert labelled_isomorphic(result, expected)


def test_series_arity_mismatch():
    with pytest.raises(ArityMismatch):
        series(a_generator(2, 1, 2), one_labelled(3))


def random_term(rng, k, depth):
    if depth == 0 or rng.randbelow(4) == 0:
        return TOne(k)
    choice = rng.randbelow(3)
    if choice == 0 and k >= 2:
        i = 1 + rng.randbelow(k - 1)
        j = i + 1 + rng.randbelow(k - i)
        return TApplyA(i, j, random_term(rng, k, depth - 1))
    if choice == 1:
        return TApplyJ(1 + rng.randbelow(k), random_term(rng, k, depth - 1))
    return TGlue(random_term(rng, k, depth - 1), random_term(rng, k, depth - 1))


def test_val_equals_iterated_series_and_glue():
    # structural induction: val of each node agrees with explicit
    # generator series / glue applied to the evaluated children
    rng = Xoshiro256StarStar(99)

    def eval_explicit(t):
        if isinstance(t, TOne):
            return one_labelled(t.k)
        if isinstance(t, TGlue):
            return glue(eval_explicit(t.left), eval_explicit(t.right))
        if isinstance(t, TApplyA):
            return series(
                a_generator(term_k(t), t.i, t.j), eval_explicit(t.arg)
            )
        return series(j_generator(term_k(t), t.i), eval_explicit(t.arg))

    def term_k(t):
        while not isinstance(t, TOne):
            t = t.left if isinstance(t, TGlue) else t.arg
        return t.k

    checked = 0
    while checked < 40:
        k = 1 + rng.randbelow(3)
        t = random_term(rng, k, 3)
        evaluated = val(t)
        if soe(evaluated).n > 12:
            continue
        checked += 1
        assert labelled_isomorphic(evaluated, eval_explicit(t))


def test_val_apply_shortcuts_match_series():
    rng = Xoshiro256StarStar(5)
    for _ in range(20):
        k = 2 + rng.randbelow(2)
        f = random_labelled(rng, k, k + rng.randbelow(3))
        i = 1 + rng.randbelow(k - 1)
        j = i + 1 + rng.randbelow(k - i)
        assert labelled_isomorphic(
            val_apply_a(f, i, j), series(a_generator(k, i, j), f)
        )
        assert labelled_isomorphic(
            val_apply_j(f, i), series(j_generator(k, i), f)
        )


def test_permute_identity_and_symmetry():
    a12 = a_generator(2, 1, 2)
    ident = (0, 1, 2, 3)
    assert labelled_isomorphic(permute_labels(a12, ident), a12)
    # swapping the in-block and out-block fixes A^{ij} (it is symmetric)
    swap = (2, 3, 0, 1)
    assert labelled_isomorphic(permute_labels(a12, swap), a12)


def test_permute_composition_law():
    rng = Xoshiro256StarStar(31)
    for _ in range(20):
        k = 1 + rng.randbelow(2)
        f = random_labelled(rng, k, 2 * k + rng.randbelow(2), bilabelled=True)
        r = 2 * k
        sigma = list(range(r))
        tau = list(range(r))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        sigma, tau = tuple(sigma), tuple(tau)
        two_step = permute_labels(permute_labels(f, tau), sigma)
        # permute_labels pulls, so the two steps compose to tau[sigma[i]]
        one_step = permute_labels(f, tuple(tau[sigma[i]] for i in range(r)))
        assert labelled_isomorphic(two_step, one_step)


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        permute_labels(a_generator(2, 1, 2), (0, 0, 1, 2))


def test_val_examples():
    assert labelled_isomorphic(val(TOne(2)), one_labelled(2))
    edge = val(TApplyA(1, 2, TOne(2)))
    expected = LabelledGraph(path_graph(2), (0, 1))
    assert labelled_isomorphic(edge, expected)


# ------------------------------------------------------------ terms have
# width at most k-1, checked on the graph built structurally from the term


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def graph_from_term(t):
    """Evaluate a term over a global vertex universe: every One and J
    introduces fresh vertices, A records an edge, and Glue identifies the
    label vertices of its two factors.  Independent of ``val``."""
    uf = _UnionFind()
    counter = [0]
    edges = []  # pairs of global ids, resolved at the end

    def fresh():
        counter[0] += 1
        uf.add(counter[0])
        return counter[0]

    def walk(node):
        # returns the labels tuple of global ids
        if isinstance(node, TOne):
            return tuple(fresh() for _ in range(node.k))
        if isinstance(node, TApplyA):
            labels = walk(node.arg)
            edges.append((labels[node.i - 1], labels[node.j - 1]))
            return labels
        if isinstance(node, TApplyJ):
            labels = list(walk(node.arg))
            labels[node.i - 1] = fresh()
            return tuple(labels)
        labels1 = walk(node.left)
        labels2 = walk(node.right)
        for a, b in zip(labels1, labels2):
            uf.union(a, b)
        return labels1

    walk(t)
    roots = sorted({uf.find(x) for x in uf.parent})
    dense = {r: i for i, r in enumerate(roots)}
    return Graph.from_edges(
        len(roots), [(dense[uf.find(a)], dense[uf.find(b)]) for a, b in edges]
    )


def test_terms_admit_width_k_minus_1_decompositions():
    rng = Xoshiro256StarStar(404)
    checked = 0
    while checked < 60:
        k = 1 + rng.randbelow(3)
        t = random_term(rng, k, 3)
        graph = graph_from_term(t)
        if graph.n > 12:
            continue
        checked += 1
        assert exact_treewidth_tiny(graph, cap=12) <= k - 1
        assert is_isomorphic_small(graph, soe(val(t)), cap=12)


def test_pw_terms_admit_path_decompositions():
    # without Glue a term builds a graph of pathwidth at most k-1
    rng = Xoshiro256StarStar(405)
    for _ in range(40):
        k = 1 + rng.randbelow(3)
        t = TOne(k)
        for _ in range(rng.randbelow(4)):
            if k >= 2 and rng.randbelow(2) == 0:
                i = 1 + rng.randbelow(k - 1)
                j = i + 1 + rng.randbelow(k - i)
                t = TApplyA(i, j, t)
            else:
                t = TApplyJ(1 + rng.randbelow(k), t)
        graph = graph_from_term(t)
        assert exact_pathwidth_tiny(graph, cap=12) <= k - 1


# ------------------------------------------------------------ enumerators


def test_enumerate_tw_k1_is_edgeless():
    for d in (1, 2, 3):
        for rec in enumerate_tw(1, d, 6):
            assert soe(rec.value).m == 0


def test_enumerate_tw_size_bound():
    # Enumeration budget per cell: one above the size bound where that is
    # affordable (so a bound violation at the boundary would be visible);
    # the (3,3) bound of 27 is out of enumeration reach, so that cell only
    # exercises the machinery.
    budget = {
        (1, 1): 2, (1, 2): 3, (1, 3): 4,
        (2, 1): 3, (2, 2): 5, (2, 3): 9,
        (3, 1): 4, (3, 2): 10, (3, 3): 6,
    }
    sharp = {(2, 2): 4, (2, 3): 8}
    for (k, d), mv in budget.items():
        bound = max(k ** d, d)
        sizes = [soe(rec.value).n for rec in enumerate_tw(k, d, mv)]
        assert all(s <= bound for s in sizes), (k, d)
        if (k, d) in sharp:
            assert max(sizes) == sharp[(k, d)]


def test_enumerate_tw_values_are_distinctly_labelled():
    for rec in enumerate_tw(2, 3, 8):
        assert len(set(rec.value.in_labels)) == len(rec.value.in_labels)
        assert rec.value.out_labels == ()


def test_enumerate_tw_contains_labelled_p3():
    found = False
    for rec in enumerate_tw(2, 2, 4):
        if is_isomorphic_small(soe(rec.value), path_graph(3)):
            found = True
    assert found


def test_enumerate_tw_generation_completeness():
    # every treewidth <= 1 graph on 2..5 vertices arises as soe of a member
    from homind.oracle import class_members

    targets = [g for g in class_members("tw<=1", 5) if g.n >= 2]
    produced = [soe(rec.value) for rec in enumerate_tw(2, 5, 5)]
    for target in targets:
        assert any(
            p.n == target.n and is_isomorphic_small(p, target) for p in produced
        ), target


def test_enumerate_pw_size_bound():
    for k in (1, 2, 3):
        for d in (1, 2, 3, 4):
            bound = k + d - 1
            for rec in enumerate_pw(k, d):
                assert soe(rec.value).n <= bound, (k, d)


def test_enumerate_pw_outputs_have_pathwidth_1():
    for rec in enumerate_pw(2, 4):
        g = soe(rec.value)
        if g.n >= 1:
            assert exact_pathwidth_tiny(g) <= 1


def test_enumerate_pw_subset_of_tw():
    tw_values = [rec.value for rec in enumerate_tw(2, 4, 5)]
    for rec in enumerate_pw(2, 4):
        assert any(labelled_isomorphic(rec.value, v) for v in tw_values)


def test_enumerate_pw_generation_completeness():
    # every pathwidth <= 1 graph on 2..5 vertices arises as soe of a member
    from homind.oracle import class_members

    targets = [g for g in class_members("pw<=1", 5) if g.n >= 2]
    produced = [soe(rec.value) for rec in enumerate_pw(2, 6)]
    for target in targets:
        assert any(
            p.n == target.n and is_isomorphic_small(p, target) for p in produced
        ), target


# ------------------------------------------------------------ atomics


def test_enumerate_atomic_t1():
    atomics = enumerate_atomic(1)
    assert len(atomics) == 3
    shapes = sorted((soe(a).n, soe(a).m) for a in atomics)
    # merged single vertex, two distinct nonadjacent, two distinct adjacent
    assert shapes == [(1, 0), (2, 0), (2, 1)]
    for a in atomics:
        assert a.k == 1 and a.l == 1
        assert set(a.in_labels + a.out_labels) == set(range(soe(a).n))


def test_enumerate_atomic_t2_count():
    atomics = enumerate_atomic(2)
    assert len(atomics) == 127  # 1 + 14 + 48 + 64 by quotient size 1,2,3,4
    for a in atomics:
        assert soe(a).n <= 4
        assert set(a.in_labels + a.out_labels) == set(range(soe(a).n))


def test_enumerate_atomic_rejects_large_t():
    with pytest.raises(ValueError):
        enumerate_atomic(3)


def test_identity_atomic():
    # the atomic with u_i = v_i and no edges, whose tensor is the identity,
    # is enumerated once
    for t in (1, 2):
        idents = [a for a in enumerate_atomic(t) if soe(a).m == 0
                  and a.in_labels == a.out_labels == tuple(range(t))]
        assert len(idents) == 1
        assert soe(idents[0]).n == t


# ------------------------------------------------------------ lasserre


def test_enumerate_lasserre_depth1_sizes():
    graphs = enumerate_lasserre(1, 1, 6)
    assert graphs
    for g in graphs:
        assert g.n <= 2


def test_enumerate_lasserre_contains_k2_and_p3():
    graphs = enumerate_lasserre(1, 2, 6)
    assert any(is_isomorphic_small(g, path_graph(2)) for g in graphs)
    assert any(is_isomorphic_small(g, path_graph(3)) for g in graphs)


def test_enumerate_lasserre_size_lemma():
    for depth in (1, 2, 3):
        for g in enumerate_lasserre(1, depth, 16):
            assert g.n <= 2 * 1 * 2 ** depth


def test_lasserre_series_example():
    # series of two edge atomics evaluates to P3 (in at one end, out at the
    # other)
    edge = next(a for a in enumerate_atomic(1) if soe(a).m == 1)
    value = series(edge, edge)
    assert is_isomorphic_small(soe(value), path_graph(3))
    assert value.k == 1 and value.l == 1


def test_lasserre_glue_triangle():
    # gluing the edge atomic onto the path P3 (in/out at its ends) closes a
    # triangle, a depth-2 value
    edge = next(a for a in enumerate_atomic(1) if soe(a).m == 1)
    tri = glue(edge, series(edge, edge))
    assert is_isomorphic_small(soe(tri), complete_graph(3))
    assert not any(labelled_isomorphic(tri, v)
                   for v in enumerate_lasserre_values(1, 1, 3))
    assert any(labelled_isomorphic(tri, v)
               for v in enumerate_lasserre_values(1, 2, 3))


def test_loop_created_glue():
    atomics = enumerate_atomic(1)
    edge = next(a for a in atomics if soe(a).m == 1)
    merged = next(a for a in atomics if soe(a).n == 1)
    with pytest.raises(LoopCreated):
        glue(edge, merged)


def test_loop_created_series_t2():
    # K has an edge between its two out-vertices; F has both in-labels on
    # one vertex, so series identifies K's out pair and forces a loop
    k_graph = LabelledGraph(
        Graph.from_edges(4, [(2, 3)]), (0, 1), (2, 3)
    )
    f_graph = LabelledGraph(empty_graph(3), (0, 0), (1, 2))
    with pytest.raises(LoopCreated):
        series(k_graph, f_graph)


def test_enumerate_lasserre_terms_skip_loops():
    # enumeration silently skips loop-forcing combinations, and keeps one
    # value per bilabelled isomorphism class
    values = enumerate_lasserre_values(1, 2, 6)
    assert values
    for i, value in enumerate(values):
        assert all(u != v for u, v in value.graph.edges)
        assert value.k == value.l == 1
        assert not any(labelled_isomorphic(value, other) for other in values[:i])


# ------------------------------------------------------------ serialization


def test_format_term_examples():
    assert format_term(TOne(2)) == "one"
    assert format_term(TApplyA(1, 2, TOne(2))) == "A(1,2,one)"
    assert format_term(TApplyJ(2, TOne(2))) == "J(2,one)"
    assert format_term(TGlue(TOne(2), TApplyJ(1, TOne(2)))) == "glue(one,J(1,one))"


# ------------------------------------------------------------ label checks


def test_labelled_graph_validation():
    with pytest.raises(ValueError):
        LabelledGraph(empty_graph(2), (0, 2))


def test_labelled_isomorphic_respects_positions():
    end = LabelledGraph(path_graph(3), (0,))
    center = LabelledGraph(path_graph(3), (1,))
    other_end = LabelledGraph(path_graph(3), (2,))
    assert not labelled_isomorphic(end, center)
    assert labelled_isomorphic(end, other_end)
    # in-label vs out-label placement matters
    a = LabelledGraph(path_graph(2), (0,), (1,))
    b = LabelledGraph(path_graph(2), (1,), (0,))
    assert labelled_isomorphic(a, b)  # symmetric edge: 0<->1 relabelling
    c = LabelledGraph(path_graph(3), (0,), (1,))
    d = LabelledGraph(path_graph(3), (1,), (0,))
    e = LabelledGraph(path_graph(3), (0,), (2,))
    assert not labelled_isomorphic(c, e)  # end/center vs end/end
    assert not labelled_isomorphic(c, d)  # in and out blocks don't swap
