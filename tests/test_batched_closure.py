"""The batched linear closure against the same closure fed one candidate
at a time, and the decisions' garbage.

``_closure`` reduces each block of candidates against a basis with one
matrix product and inserts the rows that survive.  Full reduction against
a reduced echelon basis is canonical, so a block must give exactly the
bases, verdict and statistics of offering its rows one by one.  Every
case runs a whole closure with no early stop: the ``paths`` cases
``conftest.full_closure``, the Lasserre cases the reference linear
closure (``lasserre_reference``), whose blocks are also checked against
candidates built one pair at a time by the per-pair tensor operations.
"""

import gc
import random

import numpy as np
import pytest

from homind import engine
from homind.engine import _linear_closure, modhomind, modhomind_pw
from homind.graphs import Graph, cycle_graph, path_graph, star_graph
from homind.labelled import enumerate_atomic
from homind.lasserre import MatrixOps, lasserre_mod
from homind.modular import Xoshiro256StarStar
from homind.recognizer import builtin

import lasserre_reference
from conftest import closure_runs, full_closure, permuted_copy, random_graph, readout
from lasserre_reference import lasserre_linear

PRIMES = [101, (1 << 31) - 1, (1 << 61) - 1]

TWO_TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def _cases():
    rng = random.Random(2024)
    g5 = random_graph(rng, 5, 0.5)
    h5 = permuted_copy(rng, g5)
    g6 = random_graph(rng, 6, 0.5)
    h6 = permuted_copy(rng, g6)
    star = Graph.from_edges(3, [(0, 1), (0, 2)])
    c6 = cycle_graph(6)
    paths = builtin("paths", 2)
    return [
        ("lasserre t=1 C6 vs 2K3",
         lambda **kw: lasserre_linear(c6, TWO_TRIANGLES, 1, **kw).accept),
        ("lasserre t=1 permuted", lambda **kw: lasserre_linear(g5, h5, 1, **kw).accept),
        ("lasserre t=2 P3",
         lambda **kw: lasserre_linear(star, path_graph(3), 2, **kw).accept),
        ("tw paths C6 vs 2K3",
         lambda **kw: full_closure(c6, TWO_TRIANGLES, paths, include_schur=True, **kw)[0]),
        ("tw paths permuted",
         lambda **kw: full_closure(g6, h6, paths, include_schur=True, **kw)[0]),
        ("pw paths C6 vs 2K3",
         lambda **kw: full_closure(c6, TWO_TRIANGLES, paths, include_schur=False, **kw)[0]),
        ("pw paths permuted",
         lambda **kw: full_closure(g6, h6, paths, include_schur=False, **kw)[0]),
    ]


def _decide(monkeypatch, decide, p, order_seed, one_at_a_time):
    order_rng = None if order_seed is None else Xoshiro256StarStar(order_seed)
    runs = closure_runs(monkeypatch, one_at_a_time, order_rng)
    stats = {}
    accept = decide(p=p, stats=stats)
    monkeypatch.undo()
    return accept, stats, runs


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("order_seed", [None, 5])
def test_batched_closure_matches_one_candidate_at_a_time(monkeypatch, p, order_seed):
    closures = 0
    for name, decide in _cases():
        accept, stats, runs = _decide(monkeypatch, decide, p, order_seed, False)
        accept_1, stats_1, runs_1 = _decide(monkeypatch, decide, p, order_seed, True)
        assert (accept, stats) == (accept_1, stats_1), name
        assert len(runs) == len(runs_1) == 1, name
        for basis, basis_1 in zip(runs[0], runs_1[0]):
            assert basis.pivots == basis_1.pivots, name
            assert basis.matrix.dtype == basis_1.matrix.dtype, name
            assert basis.matrix.shape == basis_1.matrix.shape, name
            assert basis.matrix.tolist() == basis_1.matrix.tolist(), name
        closures += stats["dim_total"] > 0
    assert closures == len(_cases())


def test_decisions_leave_no_cyclic_garbage():
    """A decision's bases, arrays and generators are freed by reference
    counting alone: none of them sits in a reference cycle.  The ``paths``
    accepts of C6 against 2K3 run the linear closure directly, since the
    tw-all partition would certify them, and run it to the end.  P4
    against K_{1,3} at 3 runs it through the deciders, with ``stats`` or
    without, and stops at its first unequal readout, with the worklist and
    the expansion generators left unfinished."""
    paths = builtin("paths", 2)
    decisions = [
        lambda: lasserre_mod(cycle_graph(6), TWO_TRIANGLES, 1, 101),
        lambda: lasserre_mod(path_graph(3), path_graph(3), 2, 101),
        lambda: _linear_closure(cycle_graph(6), TWO_TRIANGLES, paths, 101, False),
        lambda: _linear_closure(cycle_graph(6), TWO_TRIANGLES, paths, 101, True),
        lambda: modhomind_pw(path_graph(4), star_graph(3), paths, 3),
        lambda: modhomind(path_graph(4), star_graph(3), paths, 3, stats={}),
    ]
    for decide in decisions:  # caches and lazy imports
        decide()
    enabled, flags = gc.isenabled(), gc.get_debug()
    try:
        for decide in decisions:
            gc.collect()
            gc.disable()
            decide()
            gc.set_debug(gc.DEBUG_SAVEALL)
            found = gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
            gc.garbage.clear()
            gc.set_debug(flags)
            assert found == 0 and not garbage, garbage
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_closure_blocks_are_reduced_in_chunks():
    """A block longer than one chunk, with zero rows, repeated rows and
    rows already in the span, inserts what its rows span, in order."""
    p = 101
    rng = np.random.default_rng(7)
    basis = engine._Basis(p, 12)
    base = rng.integers(0, p, size=(3, 12), dtype=np.uint64)
    mix = rng.integers(0, 3, size=(engine._CHUNK_ROWS + 9, 3), dtype=np.uint64)
    block = engine._mod_matmul(mix, base, p)
    block[::4] = 0
    inserted = [basis.try_insert(vec) for vec in basis.survivors(block)]
    assert sum(row is not None for row in inserted) == len(basis) == 3
    one_by_one = engine._Basis(p, 12)
    for vec in block:
        one_by_one.try_insert(vec)
    assert basis.pivots == one_by_one.pivots
    assert basis.matrix.tolist() == one_by_one.matrix.tolist()


def _lasserre_one_at_a_time(G, H, t, p):
    """The reference Lasserre closure with every candidate built alone, by
    the per-pair tensor operations, in the order its batched blocks hold
    (transpositions at t = 2 only, as there), run to the end and read out
    there, as there."""
    og, oh = MatrixOps(G, t, p), MatrixOps(H, t, p)
    split = og.length
    basis = engine._Basis(p, og.length + oh.length)
    atomics = [(og.atomic_tensor(a), oh.atomic_tensor(a))
               for a in enumerate_atomic(t)]
    pairs = [(a, b) for a in range(2 * t) for b in range(a + 1, 2 * t)] if t > 1 else []

    def expand(_, row):
        g, h = row[:split], row[split:]
        for ag, ah in atomics:
            yield 0, np.concatenate((og.schur(g, ag), oh.schur(h, ah)))
        for a, b in pairs:
            yield 0, np.concatenate((og.transpose(g, a, b), oh.transpose(h, a, b)))
        for x in basis.matrix:
            xg, xh = x[:split], x[split:]
            yield 0, np.concatenate((og.matmul(g, xg), oh.matmul(h, xh)))
            yield 0, np.concatenate((og.matmul(xg, g), oh.matmul(xh, h)))

    seeds = [(0, np.concatenate(pair)) for pair in atomics]
    stats = {}
    engine._closure([basis], seeds, expand, [], og, oh, stats)
    return readout([basis], [0], split, p), stats, basis


@pytest.mark.parametrize("p", PRIMES)
def test_lasserre_blocks_match_per_pair_products(monkeypatch, p):
    """The reference closure's atomic, transposition and product blocks
    hold the candidates the per-pair operations build, in the same order:
    the final bases agree row for row.  The product blocks are cut to 1000
    basis entries, so at t = 2 (162 columns, a basis of more than
    ``_CHUNK_ROWS`` rows) they come from several slices of the basis."""
    G, H = path_graph(3), Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    for t in (1, 2):
        runs = closure_runs(monkeypatch, False)
        monkeypatch.setattr(lasserre_reference, "PRODUCT_ENTRIES", 1000)
        stats = {}
        verdict = lasserre_linear(G, H, t, p, stats=stats)
        monkeypatch.undo()
        [[basis]] = runs
        accept, stats_1, basis_1 = _lasserre_one_at_a_time(G, H, t, p)
        assert (verdict.accept, stats) == (accept, stats_1)
        assert basis.pivots == basis_1.pivots
        assert basis.matrix.tolist() == basis_1.matrix.tolist()
    assert len(basis) > engine._CHUNK_ROWS
