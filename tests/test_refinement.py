"""Gates for the partition-refinement path of the one-state treewidth
closure.

The equivalence gate runs the refinement and the linear-algebra closure
side by side on a fixed seeded corpus, with a one-state automaton whose
small stage is off, so every verdict comes from the closure.  The scaled
gate checks ``modhomind`` over tw-all at arity k against (k-1)-WL on
pairs of equal order and size that the small stage cannot split, at
sizes far beyond the brute-force oracles.  The forests gate checks a
four-state automaton, decided by the linear closure, against the
one-state refinement and 1-WL.  The exact gate checks the command line's
exact tw-all decision against (k-1)-WL on all of these pairs.  The kernel
gates compare ``_pair_ids`` with a sort, and ``_row_multisets``,
``_refine`` and ``_level_refine`` at t = 1 and 2 with a pure-Python
refinement that counts each line's colours one tuple at a time.  The
stop-rule gate runs every step of the ``_stable`` sweep once more on the
partition it returns and requires that none splits it.  The CFI gates
check the refinement against the treewidth of the base graph, and decide
the paper's reduction end to end on every small connected base.  The
``wl`` command gate checks ``homind wl`` against ``wl_refine``.
"""

import io
import json
import random
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from functools import partial
from itertools import combinations, product
from pathlib import Path

import numpy as np

from homind.cli import main
from homind.engine import (
    _linear_closure,
    _pair_ids,
    _refine,
    _refine_steps,
    _row_multisets,
    _stable,
    modhomind,
)
from homind.graphs import (
    Graph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    serialize_graph,
)
from homind.lasserre import _level_refine, _level_steps
from homind.oracle import enumerate_graphs_up_to, exact_treewidth_tiny
from homind.recognizer import Automaton, builtin, parse_automaton, validate_automaton
from homind.wl import cfi, gen_wl_hardness, wl_refine

from conftest import full_closure, permuted_copy, random_graph

PRIMES = (2, 3, 7, (1 << 31) - 1, (1 << 128) - 159)


def _closure_only(k):
    """tw-all at arity k with the small stage off (policy none)."""
    aut = builtin("tw-all", k)
    return Automaton(k, 1, 0, aut.accepting, aut.glue_table, aut.j_table,
                     aut.a_table, "none")


def _move_one_edge(rng, g):
    """g with one edge moved to a non-edge (same order and size), or g
    itself when it is complete or edgeless."""
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if (u, v) not in g.edges]
    if not g.edges or not non_edges:
        return g
    drop = rng.choice(g.edges)
    return Graph.from_edges(g.n, [e for e in g.edges if e != drop]
                            + [rng.choice(non_edges)])


def _corpus():
    """(k, G, H) triples: empty, edgeless and unequal-order pairs, then
    random pairs that are permuted, rewired or drawn independently."""
    rng = random.Random(5)
    for k, n_max in ((1, 8), (2, 6), (3, 4)):
        yield k, empty_graph(0), empty_graph(0)
        yield k, empty_graph(0), random_graph(rng, 2, 0.5)
        yield k, empty_graph(n_max), empty_graph(n_max - 1)
        yield k, empty_graph(n_max - 1), random_graph(rng, n_max - 1, 0.3)
        for _ in range(8):
            g = random_graph(rng, rng.randrange(1, n_max + 1), rng.random())
            pick = rng.randrange(3)
            if pick == 0:
                h = permuted_copy(rng, g)
            elif pick == 1:
                h = _move_one_edge(rng, g)
            else:
                h = random_graph(rng, rng.randrange(0, n_max + 1), rng.random())
            yield k, g, h


def test_refinement_matches_linear_closure_on_seeded_corpus():
    """Same verdict and dimension from the refined partition and from the
    Gaussian-elimination closure, at small and large primes."""
    corpus = list(_corpus())
    rejects = 0
    for k, G, H in corpus:
        aut = _closure_only(k)
        for p in PRIMES:
            refined, linear = {}, {}
            verdict = modhomind(G, H, aut, p, stats=refined)
            assert verdict.small_stage_witness is None
            expected = full_closure(G, H, aut, p, True, stats=linear)[0]
            assert verdict.accept == expected, (k, G, H, p)
            assert refined["dim_total"] == linear["dim_total"], (k, G, H, p)
            assert refined["inserts"] == refined["dim_total"]
            assert refined["per_state"] == {0: refined["dim_total"]}
            rejects += not expected
    assert rejects >= 50, rejects


def test_refinement_without_accepting_state_accepts():
    """A one-state automaton that accepts nothing constrains nothing."""
    aut = _closure_only(2)
    silent = Automaton(2, 1, 0, frozenset(), aut.glue_table, aut.j_table,
                       aut.a_table, "none")
    G, H = cycle_graph(5), empty_graph(3)
    assert not modhomind(G, H, aut, 7).accept
    stats = {}
    assert modhomind(G, H, silent, 7, stats=stats).accept
    assert stats["dim_total"] == 3  # edge, non-edge, and V(H)^2 on its own


# === The row-multiset kernel against a pure-Python refinement ===


def _multiset(values, modulus):
    """The multiset of ``values`` with multiplicities mod ``modulus``
    (over the integers when None)."""
    counts = Counter(values)
    if modulus is not None:
        counts = {v: m % modulus for v, m in counts.items()}
    return frozenset((v, m) for v, m in counts.items() if m)


def _reference_classes(G, H, arity, start, signature):
    """Sorted (|B∩G|, |B∩H|) over the classes B of the coarsest refinement
    of ``start(g, x)`` by ``signature(colour, g, x)`` on the arity-tuples,
    computed one tuple at a time: ``colour(x)`` is the colour of x on the
    same side."""
    colours = {(side, x): start(g, x) for side, g in enumerate((G, H))
               for x in product(range(g.n), repeat=arity)}
    while True:
        refined = {}
        for (side, x), c in colours.items():
            g = (G, H)[side]
            refined[side, x] = (c, signature(lambda y: colours[side, y], g, x))
        palette = {c: i for i, c in enumerate(set(refined.values()))}
        if len(palette) == len(set(colours.values())):
            break
        colours = {key: palette[c] for key, c in refined.items()}
    sizes = Counter((c, side) for (side, _), c in colours.items())
    return sorted((sizes[c, 0], sizes[c, 1]) for c in set(colours.values()))


def _reference_tw(G, H, k, modulus):
    """``_refine``'s classes: adjacency patterns, refined by the colour
    multiset mod p on every axis-i line."""
    def start(g, x):
        return tuple((x[i], x[j]) in g.edges or (x[j], x[i]) in g.edges
                     for i, j in combinations(range(k), 2))

    def signature(colour, g, x):
        return tuple(_multiset([colour(x[:i] + (v,) + x[i + 1:]) for v in range(g.n)],
                               modulus) for i in range(k))

    return _reference_classes(G, H, k, start, signature)


def _reference_level1(G, H, modulus):
    """``_level_refine``'s classes at t = 1: equality and adjacency of
    (a, b), refined by the multiset mod p of (col(a, c), col(c, b))."""
    def start(g, x):
        return (x[0] == x[1], (x[0], x[1]) in g.edges or (x[1], x[0]) in g.edges)

    def signature(colour, g, x):
        return _multiset([(colour((x[0], c)), colour((c, x[1]))) for c in range(g.n)],
                         modulus)

    return _reference_classes(G, H, 2, start, signature)


def _reference_level2(G, H, modulus):
    """``_level_refine``'s classes at t = 2: the equality and adjacency
    pattern of the four slots, refined by the multiset mod p of
    (col(a, c), col(c, b)) over c in V^2 and by the colours of all six
    axis transpositions."""
    def start(g, x):
        return tuple((x[i] == x[j], (x[i], x[j]) in g.edges or (x[j], x[i]) in g.edges)
                     for i, j in combinations(range(4), 2))

    def signature(colour, g, x):
        swaps = []
        for i, j in combinations(range(4), 2):
            y = list(x)
            y[i], y[j] = y[j], y[i]
            swaps.append(colour(tuple(y)))
        products = _multiset([(colour(x[:2] + c), colour(c + x[2:]))
                              for c in product(range(g.n), repeat=2)], modulus)
        return products, tuple(swaps)

    return _reference_classes(G, H, 4, start, signature)


def _kernel_pairs():
    """Seeded (k, G, H): orders 0 and 1, unequal orders, and random pairs
    that are permuted, rewired or drawn independently."""
    rng = random.Random(24)
    for k, n_max in ((1, 7), (2, 5), (3, 4)):
        yield k, empty_graph(0), empty_graph(0)
        yield k, empty_graph(0), random_graph(rng, 1)
        yield k, empty_graph(1), random_graph(rng, n_max, 0.5)
        for _ in range(6):
            g = random_graph(rng, rng.randrange(2, n_max + 1), rng.random())
            pick = rng.randrange(3)
            if pick == 0:
                h = permuted_copy(rng, g)
            elif pick == 1:
                h = _move_one_edge(rng, g)
            else:
                h = random_graph(rng, rng.randrange(0, n_max + 1), rng.random())
            yield k, g, h


def test_pair_ids_number_pairs_as_a_sort_does():
    """Dense pair ids in sorted order, whether the key range is small
    enough for the lookup table or is sorted, and on empty arrays; the
    count returned is the number of distinct ids, 0 on empty input."""
    rng = np.random.default_rng(26)
    spans = []
    for size, high_a, high_b in ((0, 1, 1), (1, 1, 1), (50, 3, 4), (20000, 100, 150),
                                 (50, 1000, 1000), (3000, 200, 300), (5, 1 << 30, 1 << 30)):
        a = rng.integers(0, high_a, size=size, dtype=np.int64)
        b = rng.integers(0, high_b, size=size, dtype=np.int64)
        count_a, count_b = int(a.max(initial=-1)) + 1, int(b.max(initial=-1)) + 1
        want = np.unique(a * count_b + b, return_inverse=True)[1]
        got, count = _pair_ids(a, b, count_a, count_b)
        assert got.dtype == np.int64 and got.shape == (size,)
        assert (got == want.reshape(-1)).all(), (size, high_a, high_b)
        assert count == len(set(got.tolist())), (size, high_a, high_b)
        spans.append(count_a * count_b <= 4 * size + 4096)
    assert any(spans) and not all(spans)  # both numberings ran


def test_refine_keeps_patterns_exact_past_63_bits():
    """At arity 12 and 13 a tuple's adjacency pattern has 66 and 78 binary
    digits, so its key is renumbered before it overflows int64.  K2's
    tuples split into the 2^(k-1) pairs x, 1 - x, and every tuple of 2K1
    stays in one class; the sizes are those of the pairwise numbering."""
    for k in (12, 13):
        sizes_g, sizes_h = _refine(complete_graph(2), empty_graph(2), k, None)
        assert sizes_g.tolist() == [0] + [2] * 2 ** (k - 1)
        assert sizes_h.tolist() == [2**k] + [0] * 2 ** (k - 1)


def test_row_multisets_are_line_multisets_mod_p():
    """Two padded rows get one id iff their multisets mod p agree, the
    ids are dense, and the count returned is the number of distinct ids,
    0 on no rows."""
    rng = np.random.default_rng(24)
    for modulus in (None, 2, 3, 5):
        for width in (1, 4, 9):
            rows = rng.integers(0, 3, size=(60, width))
            rows[rng.random(rows.shape) < 0.3] = -1
            want = [_multiset([v for v in row if v >= 0], modulus) for row in rows.tolist()]
            ids, count = _row_multisets(rows.copy(), modulus)
            assert sorted(set(ids.tolist())) == list(range(len(set(want))))
            assert count == len(set(want)), (modulus, width)
            for a in range(len(rows)):
                for b in range(len(rows)):
                    assert (ids[a] == ids[b]) == (want[a] == want[b]), (modulus, width)
            ids, count = _row_multisets(np.empty((0, width), dtype=np.int64), modulus)
            assert ids.shape == (0,) and count == 0


def test_refinement_matches_pure_python_reference():
    """``_refine`` at k = 1, 2, 3 and ``_level_refine`` at t = 1 give the
    classes of the one-tuple-at-a-time refinement, over the integers and
    mod 2, 3 and 5, on orders 0 and 1 and on unequal orders."""
    for k, G, H in _kernel_pairs():
        for modulus in (None, 2, 3, 5):
            got = sorted(zip(*(sizes.tolist() for sizes in _refine(G, H, k, modulus))))
            assert got == _reference_tw(G, H, k, modulus), (k, G, H, modulus)
            got = sorted(zip(*(sizes.tolist() for sizes in _level_refine(G, H, 1, modulus)[1])))
            assert got == _reference_level1(G, H, modulus), (G, H, modulus)


def test_level2_refinement_matches_six_transposition_reference():
    """``_level_refine`` at t = 2 refines by the adjacent transpositions
    (0 1), (1 2), (2 3) only; they generate S_4, so its partition is the
    one refined by all six.  Seeded pairs on up to 5 vertices, over the
    integers and mod 2; the colour counts are those of the six-transposition
    refinement."""
    rng = random.Random(26)
    counts = []
    for _ in range(6):
        g = random_graph(rng, rng.randrange(3, 6), rng.random())
        pick = rng.randrange(3)
        if pick == 0:
            h = permuted_copy(rng, g)
        elif pick == 1:
            h = _move_one_edge(rng, g)
        else:
            h = random_graph(rng, rng.randrange(3, 6), rng.random())
        for modulus in (None, 2):
            got = sorted(zip(*(side.tolist() for side in _level_refine(g, h, 2, modulus)[1])))
            assert got == _reference_level2(g, h, modulus), (g, h, modulus)
            counts.append(len(got))
    assert counts == [82, 82, 394, 339, 248, 240, 72, 72, 248, 213, 197, 170]


# === The stop rule of the Gauss-Seidel sweep ===


def stop_rule(start, size_g):
    """Sweep ``start``, a call that returns the (colours, count, steps) of
    ``_refine_steps`` or ``_level_steps``, with ``_stable``; then run every
    step once more on the partition it returns.  Returns the indices of
    the steps that split it (none, if the stop rule is sound) and the
    number of steps the sweep ran."""
    steps, ran = [], 0

    def counted(step):
        def run(colours, count):
            nonlocal ran
            ran += 1
            return step(colours, count)
        return run

    def counted_start():
        colours, count, made = start()
        steps.extend(made)
        return colours, count, [(settles, counted(step)) for settles, step in made]

    colours, sizes = _stable(counted_start, size_g)
    count, splits = len(sizes[0]), []
    for i, (_, step) in enumerate(steps if count else ()):  # no tuples, no split
        ids, id_count = step(colours, count)
        if _pair_ids(colours, ids, count, id_count)[1] != count:
            splits.append(i)
    return splits, ran


def test_sweep_stops_where_no_step_splits():
    """The partition ``_stable`` returns survives one more pass of every
    step unsplit: ``_refine`` at k = 1-3 over the integers and mod 2, 3
    and 5, on orders 0 and 1 and on unequal orders, and ``_level_refine``
    at t = 1 on the same pairs and at t = 2 on those of at most 4
    vertices.  At k = 1 the sweep is one step, and CFI(K4) at k = 4 takes
    at most 6 axis steps."""
    levels = 0
    for k, G, H in _kernel_pairs():
        for modulus in (None, 2, 3, 5):
            splits, ran = stop_rule(partial(_refine_steps, G, H, k, modulus), G.n**k)
            assert splits == [], (k, G, H, modulus)
            if k == 1:
                assert ran == (G.n + H.n > 0), (G, H, modulus)
            for t in (1, 2):
                if t == 1 or max(G.n, H.n) <= 4:
                    levels += 1
                    splits, _ = stop_rule(partial(_level_steps, G, H, t, modulus),
                                          G.n ** (2 * t))
                    assert splits == [], (t, G, H, modulus)
    assert levels > 150, levels
    splits, ran = cfi_stop_rule(complete_graph(4), 4)
    assert splits == [] and ran <= 6, (splits, ran)


# === tw-all against (k-1)-WL beyond the brute-force sizes ===


def _colour_classes(g):
    """Number of colour-refinement classes of g alone."""
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colours = [0] * g.n
    while True:
        sigs = [(colours[v], tuple(sorted(colours[w] for w in nbrs[v])))
                for v in range(g.n)]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [palette[s] for s in sigs]
        if len(palette) == len(set(colours)):
            return len(palette)
        colours = refined


def _rigid_rewired_pair(seed, n):
    """A G(n, 1/2) graph whose colour refinement is discrete (so it has
    no automorphisms) and a degree-preserving double-edge swap of it."""
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, n, 0.5)
        if _colour_classes(g) == n:
            break
    while True:
        (a, b), (c, d) = rng.sample(g.edges, 2)
        swapped = {tuple(sorted(e)) for e in ((a, d), (c, b))}
        if len({a, b, c, d}) == 4 and not swapped & set(g.edges):
            kept = [e for e in g.edges if e not in ((a, b), (c, d))]
            return g, Graph.from_edges(n, kept + sorted(swapped))


def _scaled_cases():
    even, odd = (cfi(complete_graph(4), parity).result for parity in (0, 1))
    c12, two_c6 = cycle_graph(12), disjoint_union(cycle_graph(6), cycle_graph(6))
    g, rewired = _rigid_rewired_pair(11, 20)
    return [  # (G, H, k, accept at p = 2^31 - 1, dim_total there)
        (even, odd, 2, True, 2),
        (even, odd, 3, True, 15),
        (c12, two_c6, 2, True, 2),
        (c12, two_c6, 3, False, 106),
        (g, rewired, 2, False, None),
    ]


def test_tw_all_matches_wl_past_the_small_stage():
    """Equal order, size and degree sequence, so only the closure can
    reject; at p = 2^31 - 1 the verdict is (k-1)-WL's, and at every prime
    a rejection is one the exact oracle makes too."""
    for G, H, k, accept, dim in _scaled_cases():
        assert (G.n, len(G.edges)) == (H.n, len(H.edges))
        separated = not wl_refine(G, H, k - 1)
        assert separated != accept
        for p in (2, 3, (1 << 31) - 1):
            stats = {}
            verdict = modhomind(G, H, builtin("tw-all", k), p, stats=stats)
            assert verdict.small_stage_witness is None
            if not verdict.accept:
                assert separated, (G, H, k, p)
        assert verdict.accept == accept, (G, H, k)
        if dim is not None:
            assert stats["dim_total"] == dim


def test_tw_all_k4_refinement_splits_cfi_over_k4():
    """CFI(K4) even/odd are separated at arity 4, as K4 has treewidth 3
    (Roberson; Neuen).  ``modhomind`` rejects already in the small stage
    (hom(K4, .) is 192 vs 0), so the refinement is called directly to
    exercise the closure."""
    even, odd = (cfi(complete_graph(4), parity).result for parity in (0, 1))
    assert exact_treewidth_tiny(complete_graph(4)) == 3
    sizes_g, sizes_h = _refine(even, odd, 4, None)
    assert len(sizes_g) == 490
    assert (sizes_g != sizes_h).any()
    verdict = modhomind(even, odd, builtin("tw-all", 4), (1 << 31) - 1)
    assert not verdict.accept
    assert verdict.small_stage_witness == complete_graph(4)


CUBE = Graph.from_edges(8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4)
                            if u < u ^ bit])  # the 3-cube Q3


def cfi_stop_rule(base, k):
    """``stop_rule`` on ``_refine`` of the even/odd CFI pair over ``base``
    at arity k over the integers.  CI runs it on CFI(Q3) and CFI(K5) at
    k = 4, too slow for Tier-1."""
    even, odd = (cfi(base, parity).result for parity in (0, 1))
    return stop_rule(partial(_refine_steps, even, odd, k, None), even.n**k)


def test_tw_all_k3_refinement_accepts_cfi_over_treewidth_3_bases():
    """The even and odd CFI graphs over a connected base B are
    indistinguishable over treewidth below k iff tw(B) >= k (Roberson;
    Neuen).  The 3-cube and K5 have treewidth 3 and 4, so at arity 3 the
    refined partitions of 32^3 and 40^3 tuples per graph are balanced."""
    for base, colours in ((CUBE, 23), (complete_graph(5), 43)):
        assert exact_treewidth_tiny(base) >= 3
        even, odd = (cfi(base, parity).result for parity in (0, 1))
        sizes_g, sizes_h = _refine(even, odd, 3, None)
        assert len(sizes_g) == colours
        assert (sizes_g == sizes_h).all()


def connected_bases():
    """The 30 connected graphs on 2-5 vertices, up to isomorphism."""
    bases = [g for g in enumerate_graphs_up_to(5)
             if g.n >= 2 and len(connected_components(g)) == 1]
    assert len(bases) == 30
    return bases


def reduction_disagreements(arities):
    """The paper's reduction decided end to end: for every connected base
    B on 2-5 vertices (30 up to isomorphism) and each arity k, tw-all at
    arity k on ``gen_wl_hardness(B, k - 1)`` must accept iff tw(B) >= k
    (Roberson; Neuen).  Returns the number of decisions and the
    (B, k, accept) that disagree."""
    bases = connected_bases()
    wrong = []
    for base in bases:
        width = exact_treewidth_tiny(base)
        for k in arities:
            even, odd, _ = gen_wl_hardness(base, k - 1)
            sizes_g, sizes_h = _refine(even, odd, k, None)
            accept = bool((sizes_g == sizes_h).all())
            if accept != (width >= k):
                wrong.append((base, k, accept))
    return len(bases) * len(arities), wrong


def test_reduction_decided_end_to_end_on_small_bases():
    """The 60 decisions at k = 2 and 3; CI runs k = 4 as well."""
    assert reduction_disagreements((2, 3)) == (60, [])


def cfi_pairs():
    """The even/odd CFI pair over every connected base on 2-5 vertices."""
    return [tuple(cfi(base, parity).result for parity in (0, 1))
            for base in connected_bases()]


def wl_command_disagreements(k, pairs):
    """The pairs (G, H) on which ``homind wl --k k`` differs from the
    reference ``wl_refine(G, H, k)``: in its exit code, or in its stdout,
    line or JSON."""
    wrong = []
    with tempfile.TemporaryDirectory() as tmp:
        files = [str(Path(tmp, name)) for name in ("G.graph", "H.graph")]
        for G, H in pairs:
            for path, g in zip(files, (G, H)):
                Path(path).write_text(serialize_graph(g))
            same = wl_refine(G, H, k)
            want = [(0 if same else 1, text) for text in (
                f"k={k}\nindistinguishable={'true' if same else 'false'}\n",
                json.dumps({"k": k, "indistinguishable": same}) + "\n")]
            got = []
            for flags in ([], ["--json"]):
                with redirect_stdout(io.StringIO()) as out:
                    got.append((main(["wl", *files, "--k", str(k), *flags]),
                                out.getvalue()))
            if got != want:
                wrong.append((G, H))
    return wrong


def test_wl_command_matches_the_reference_refinement():
    """``homind wl`` decides k-WL with ``_refine`` at arity k + 1, and must
    print and exit as ``wl_refine`` decides: at k = 1 on the CFI pairs of
    the 30 small bases, and at k = 1 and 2 on the seeded corpus (empty
    graphs and unequal orders included).  CI runs the CFI pairs at k = 2,
    about half a minute of ``wl_refine``."""
    assert wl_command_disagreements(1, cfi_pairs()) == []
    corpus = [(G, H) for _, G, H in _corpus()]
    for k in (1, 2):
        assert wl_command_disagreements(k, corpus) == []


def test_wl_command_decides_cfi_over_k4(tmp_path, capsys):
    """K4 has treewidth 3, so its CFI pair fools 2-WL but not 3-WL.  At
    k = 3 ``wl_refine`` takes tens of seconds on the 32^3 tuples of the
    union; the engine decides at once."""
    files = []
    for parity in (0, 1):
        files.append(str(tmp_path / f"{parity}.graph"))
        Path(files[-1]).write_text(serialize_graph(cfi(complete_graph(4), parity).result))
    for k, rc in ((2, 0), (3, 1)):
        assert main(["wl", *files, "--k", str(k)]) == rc
        assert capsys.readouterr().out == (
            f"k={k}\nindistinguishable={'true' if rc == 0 else 'false'}\n")


# === A multi-state treewidth automaton: forests ===

# The arity-2 recogniser of forests (graphs with m = n - #components).
# States: 0 the labels in different components (start), 1 the labels
# adjacent, 2 the labels joined by a longer path (no term reaches it, as
# J and A never make one), 3 not a forest (the only rejecting state).
FORESTS_K2 = """\
k 2
states 4
start 0
accept 0 1 2
glue 0 0 -> 0
glue 0 1 -> 1
glue 0 2 -> 2
glue 0 3 -> 3
glue 1 1 -> 1
glue 1 2 -> 3
glue 1 3 -> 3
glue 2 2 -> 3
glue 2 3 -> 3
glue 3 3 -> 3
J 1 0 -> 0
J 1 1 -> 0
J 1 2 -> 0
J 1 3 -> 3
J 2 0 -> 0
J 2 1 -> 0
J 2 2 -> 0
J 2 3 -> 3
A 1 2 0 -> 1
A 1 2 1 -> 1
A 1 2 2 -> 3
A 1 2 3 -> 3
small all
"""


def _is_forest(g):
    return g.m == g.n - len(connected_components(g))


def test_forests_automaton_matches_refinement_and_1wl():
    """Forests have treewidth <= 1, so HI over them is 1-WL equivalence
    (Dvořák 2010), and mod p it is HI over tw-all at arity 2.  The
    four-state automaton runs the linear closure with Schur products
    (called directly, since the tw-all certificate would decide its
    accepts), tw-all the partition refinement; they must agree at every
    prime, and with the decision of the four-state automaton."""
    aut = parse_automaton(FORESTS_K2)
    assert validate_automaton(aut, _is_forest, 5).ok
    even, odd = (cfi(complete_graph(4), parity).result for parity in (0, 1))
    pairs = [
        (cycle_graph(12), disjoint_union(cycle_graph(6), cycle_graph(6))),
        (even, odd),
        _rigid_rewired_pair(1, 10),
        _rigid_rewired_pair(2, 10),
    ]
    rng = random.Random(12)
    for _ in range(2):
        g = random_graph(rng, 12)
        pairs.append((g, permuted_copy(rng, g)))
    tw_all = builtin("tw-all", 2)
    rejects = 0
    for G, H in pairs:
        for p in (2, 3, (1 << 31) - 1):
            verdict = modhomind(G, H, aut, p)
            closure = _linear_closure(G, H, aut, p, True)
            assert verdict.accept == closure == modhomind(G, H, tw_all, p).accept, (
                G, H, p)
        assert verdict.small_stage_witness is None
        assert verdict.accept == wl_refine(G, H, 1), (G, H)
        rejects += not verdict.accept
    assert rejects == 2


# === The exact tw-all decision against (k-1)-WL ===


def test_exact_tw_all_matches_wl_in_both_integer_modes(tmp_path, capsys):
    """``homind --builtin tw-all`` decides HI over treewidth below k, which
    is (k-1)-WL equivalence (equal orders at k = 1), exactly: the same
    verdict, and no prime, in deterministic and random mode, on the
    seeded corpus, the scaled cases and the forests pairs."""
    even, odd = (cfi(complete_graph(4), parity).result for parity in (0, 1))
    triples = list(_corpus())
    triples += [(k, G, H) for G, H, k, _, _ in _scaled_cases()]
    triples += [(2, cycle_graph(12), disjoint_union(cycle_graph(6), cycle_graph(6))),
                (2, even, odd), (2, *_rigid_rewired_pair(1, 10))]
    rejects = 0
    for index, (k, G, H) in enumerate(triples):
        files = []
        for tag, g in (("G", G), ("H", H)):
            files.append(tmp_path / f"{index}-{tag}.graph")
            files[-1].write_text(serialize_graph(g))
        expected = G.n == H.n if k == 1 else wl_refine(G, H, k - 1)
        argv = ["homind", *map(str, files), "--builtin", "tw-all", "--k", str(k)]
        for mode in (["--mode", "deterministic"], ["--mode", "random", "--seed", "5"]):
            rc = main(argv + mode)
            out = capsys.readouterr().out.splitlines()
            assert rc == (0 if expected else 1), (k, G, H, mode)
            assert "mode=exact" in out and not any(
                line.startswith("prime=") for line in out)
        rejects += not expected
    assert rejects >= 15 and len(triples) - rejects >= 15, rejects
