"""Graph core: parsing, exact hom counting, products, walks, isomorphism."""

import pytest

from conftest import permuted_copy, random_graph, seeded
from homind.graphs import (
    Graph,
    GraphFormatError,
    OracleBudgetExceeded,
    categorical_product,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    hom_count,
    is_connected,
    is_isomorphic_small,
    parse_graph,
    path_graph,
    serialize_graph,
    walk_counts,
)

K2 = complete_graph(2)
K3 = complete_graph(3)
C6 = cycle_graph(6)
TWO_K3 = disjoint_union(K3, K3)


# === parsing and serialization ===


def test_parse_triangle():
    g = parse_graph("n 3 m 3\n0 1\n1 2\n0 2\n")
    assert g == K3


def test_parse_single_vertex():
    g = parse_graph("n 1 m 0\n")
    assert g.n == 1 and g.m == 0


def test_parse_comments_and_whitespace():
    text = "# a triangle\nn 3   m 3  # header\n0 1\n  1   2\n0 2 # last\n"
    assert parse_graph(text) == K3


def test_parse_bytes():
    assert parse_graph(b"n 2 m 1\n0 1\n") == K2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 2: self-loop"):
        parse_graph("n 2 m 1\n1 1\n")
    with pytest.raises(GraphFormatError, match="line 3: duplicate edge"):
        parse_graph("n 3 m 2\n0 1\n1 0\n")
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph("n 2 m 1\n0 5\n")
    with pytest.raises(GraphFormatError, match="malformed header"):
        parse_graph("nodes 2 m 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="unexpected end"):
        parse_graph("n 3 m 2\n0 1\n")
    with pytest.raises(GraphFormatError, match="trailing"):
        parse_graph("n 3 m 1\n0 1\n1 2\n")


def test_serializer_is_sorted_and_bit_stable():
    g = Graph.from_edges(4, [(3, 1), (2, 0), (1, 0)])
    assert serialize_graph(g) == "n 4 m 3\n0 1\n0 2\n1 3\n"


def test_parse_serialize_roundtrip_random():
    rng = seeded(20260819)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 8))
        assert parse_graph(serialize_graph(g)) == g


def test_self_loop_rejected_in_constructor():
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(2, [(1, 1)])


def test_negative_order_rejected_in_constructor():
    with pytest.raises(ValueError, match="negative"):
        Graph.from_edges(-3, [])


# === hom_count ===


def test_hom_examples():
    assert hom_count(K2, C6) == 12  # 2|E|
    assert hom_count(K3, C6) == 0  # bipartite target
    assert hom_count(K3, TWO_K3) == 12  # 3! per triangle


def test_hom_trivial_cases():
    assert hom_count(empty_graph(0), C6) == 1  # empty pattern: one empty map
    assert hom_count(K2, empty_graph(0)) == 0
    assert hom_count(empty_graph(3), complete_graph(4)) == 64


def test_hom_budget_enforced():
    with pytest.raises(OracleBudgetExceeded):
        hom_count(complete_graph(6), complete_graph(8), budget=10)


def test_hom_budget_charges_candidates_without_placed_neighbours():
    """Five isolated vertices into K20 make 3.2 M maps without one edge
    check; the budget still stops them.  Each isolated vertex is its own
    component, so three of them cost 3 x 20 candidates, not 20^3."""
    with pytest.raises(OracleBudgetExceeded):
        hom_count(empty_graph(5), complete_graph(20), budget=10)
    assert hom_count(empty_graph(3), complete_graph(20), budget=60) == 8000
    with pytest.raises(OracleBudgetExceeded):
        hom_count(empty_graph(3), complete_graph(20), budget=59)


def test_hom_counts_components_separately():
    g = random_graph(seeded(30), 30)
    assert hom_count(empty_graph(7), g, budget=1000) == 30**7


def _random_pattern(rng):
    """A random pattern on 1..5 vertices, disconnected about half the time."""
    f = random_graph(rng, rng.randint(1, 4))
    if rng.random() < 0.5:
        f = disjoint_union(f, random_graph(rng, rng.randint(1, 2)))
    return f


def test_hom_pins_sum_to_the_free_count():
    rng = seeded(31)
    for _ in range(20):
        f, g = _random_pattern(rng), random_graph(rng, rng.randint(1, 5))
        free = hom_count(f, g)
        for v in range(f.n):
            assert sum(hom_count(f, g, pins={v: x}) for x in range(g.n)) == free
    with pytest.raises(ValueError, match="pin out of range"):
        hom_count(K2, C6, pins={0: 6})


def test_hom_pins_on_a_non_edge_give_zero():
    rng = seeded(32)
    for _ in range(20):
        f = _random_pattern(rng)
        g = random_graph(rng, rng.randint(2, 5))
        non_edges = [(x, y) for x in range(g.n) for y in range(g.n)
                     if (min(x, y), max(x, y)) not in g.edges]
        for u, v in f.edges:
            x, y = rng.choice(non_edges)
            assert hom_count(f, g, pins={u: x, v: y}) == 0


def test_hom_pin_leaves_free_components_alone():
    rng = seeded(33)
    for _ in range(20):
        a = random_graph(rng, rng.randint(1, 3))
        b = random_graph(rng, rng.randint(1, 3))
        g = random_graph(rng, rng.randint(1, 5))
        f = disjoint_union(a, b)
        for v in range(a.n):
            for x in range(g.n):
                assert hom_count(f, g, pins={v: x}) == (
                    hom_count(a, g, pins={v: x}) * hom_count(b, g))


def test_hom_multiplicative_over_product():
    rng = seeded(11)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        gh = categorical_product(g, h)
        for f in (K2, K3, path_graph(3), path_graph(4), cycle_graph(4)):
            assert hom_count(f, gh) == hom_count(f, g) * hom_count(f, h)


def test_hom_additive_over_union_for_connected():
    rng = seeded(12)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 5))
        h = random_graph(rng, rng.randint(1, 5))
        u = disjoint_union(g, h)
        for f in (K2, K3, path_graph(3), path_graph(4), cycle_graph(4)):
            assert is_connected(f)
            assert hom_count(f, u) == hom_count(f, g) + hom_count(f, h)


# === products and unions ===


def test_k2_product_k2_is_two_disjoint_edges():
    p = categorical_product(K2, K2)
    assert p.n == 4 and p.m == 2
    assert sorted(p.degree_sequence()) == [1, 1, 1, 1]


def test_product_with_empty_is_empty():
    assert categorical_product(C6, empty_graph(0)) == empty_graph(0)


def test_union_shapes():
    assert TWO_K3.n == 6 and TWO_K3.m == 6
    assert disjoint_union(C6, empty_graph(0)) == C6


# === walk counts ===


def test_walk_counts_regular():
    assert walk_counts(C6, 2) == [6, 12, 24]  # 2-regular: n * 2^l
    assert walk_counts(path_graph(3), 1) == [3, 4]
    assert walk_counts(empty_graph(4), 3) == [4, 0, 0, 0]


def test_walk_counts_match_path_homs():
    rng = seeded(13)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6))
        counts = walk_counts(g, 4)
        for length in range(5):
            assert counts[length] == hom_count(path_graph(length + 1), g)


# === isomorphism ===


def test_iso_permuted_cycle():
    rng = seeded(14)
    for _ in range(10):
        assert is_isomorphic_small(C6, permuted_copy(rng, C6))


def test_non_iso_same_degrees():
    # C6 and K3+K3 are both 2-regular on 6 vertices but not isomorphic
    assert not is_isomorphic_small(C6, TWO_K3)


def test_iso_cap():
    with pytest.raises(ValueError, match="cap exceeded"):
        is_isomorphic_small(empty_graph(11), empty_graph(11))
    assert is_isomorphic_small(empty_graph(11), empty_graph(11), cap=11)
    assert is_isomorphic_small(empty_graph(12), empty_graph(12), cap=None)


def test_iso_forced_pairs():
    p3 = path_graph(3)  # centre 1
    assert is_isomorphic_small(p3, p3, pairs=[(1, 1)])
    assert is_isomorphic_small(p3, p3, pairs=[(0, 2), (2, 0)])
    # the centre cannot map to an end: degrees differ
    assert not is_isomorphic_small(p3, p3, pairs=[(1, 0)])
    # conflicting and non-injective forcings
    assert not is_isomorphic_small(p3, p3, pairs=[(0, 0), (0, 2)])
    assert not is_isomorphic_small(p3, p3, pairs=[(0, 0), (2, 0)])
    assert is_isomorphic_small(path_graph(4), path_graph(4), pairs=[(0, 3), (1, 2)])
    # every vertex forced, degrees kept, but the edge 0-1 goes to the
    # non-edge 0-2: nothing is left to search, so only the check of the
    # forced adjacency rejects
    assert not is_isomorphic_small(path_graph(4), path_graph(4),
                                   pairs=[(0, 0), (1, 2), (2, 1), (3, 3)])
    # no forced pair is adjacent, but 0 and 2 are at distance 2 on the
    # cycle and their images 0 and 3 at distance 3: the search must fail
    assert is_isomorphic_small(C6, C6, pairs=[(0, 0), (3, 3)])
    assert not is_isomorphic_small(C6, C6, pairs=[(0, 0), (2, 3)])


def test_iso_random_pairs_agree_with_hom_profile():
    # sanity: isomorphic pairs produced by permutation are accepted, and
    # accepted pairs agree on a few hom counts
    rng = seeded(15)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 6))
        h = permuted_copy(rng, g)
        assert is_isomorphic_small(g, h)
        g2 = random_graph(rng, g.n)
        if is_isomorphic_small(g, g2):
            for f in (K2, K3, path_graph(4)):
                assert hom_count(f, g) == hom_count(f, g2)
