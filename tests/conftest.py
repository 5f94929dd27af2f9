"""Shared test helpers: seeded random graphs, tiny fixtures, the bases a
closure ends with, and brute-force references no command uses (labelled
homomorphism tensors, the pathwidth term enumeration and the graphs an
automaton accepts)."""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from homind import engine
from homind.graphs import Graph, hom_count
from homind.labelled import (
    LabelledGraph,
    LabelledSet,
    TApplyJ,
    TOne,
    TwRecord,
    _a_closure,
    enumerate_tw,
    one_labelled,
    soe,
    val_apply_j,
)
from homind.oracle import enumerate_graphs_up_to
from homind.recognizer import trace_term


def random_graph(rng, n, p=0.5):
    """Erdos-Renyi G(n, p) from a seeded random.Random or Xoshiro generator."""
    if hasattr(rng, "randbelow"):
        threshold = int(p * 1000)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.randbelow(1000) < threshold
        ]
    else:
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
    return Graph.from_edges(n, edges)


def permuted_copy(rng, g):
    """An isomorphic copy of g under a uniformly random relabelling."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def seeded(seed):
    return random.Random(seed)


def _rows(pairs):
    """Every (target, block) pair split into one (target, vector) per row."""
    for target, block in pairs:
        if block.ndim == 1:
            yield target, block
        else:
            for vec in block:
                yield target, vec


def closure_runs(monkeypatch, one_at_a_time=False, order_rng=None):
    """Patch ``engine._closure``, where the deciders and the reference
    Lasserre closure look it up; the returned list collects the bases of
    every closure run.  ``order_rng``, a ``Xoshiro256StarStar``, when
    given, shuffles the (target, candidates) pairs of every closure's
    seeds and of every expansion; with ``one_at_a_time`` the closure is
    then fed them one candidate at a time, in the same order."""
    runs = []
    closure = engine._closure

    def reorder(pairs):
        if order_rng is not None:
            pairs = list(pairs)
            order_rng.shuffle(pairs)
        return _rows(pairs) if one_at_a_time else pairs

    def traced(bases, seeds, expand, accepting, ops_g, ops_h, stats=None):
        runs.append(bases)
        return closure(bases, reorder(seeds),
                       lambda q, row: reorder(expand(q, row)),
                       accepting, ops_g, ops_h, stats)

    monkeypatch.setattr(engine, "_closure", traced)
    return runs


def readout(bases, states, length_g, p):
    """Whether every row of the buckets ``states`` has equal G and H
    sums mod p, ``length_g`` the length of the G block."""
    for q in states:
        g, h = engine._split(bases[q].matrix, length_g)
        if (g.sum(axis=-1) % p != h.sum(axis=-1) % p).any():
            return False
    return True


def full_closure(G, H, aut, p, include_schur, stats=None):
    """The whole linear closure of ``aut`` at p, with no early stop: its
    verdict, read out from the accepting buckets, and its bases.  It runs
    ``engine._linear_closure`` for ``aut`` with no accepting state, so
    nothing is read out and nothing stops it."""
    with pytest.MonkeyPatch.context() as patch:
        runs = closure_runs(patch)
        engine._linear_closure(G, H, replace(aut, accepting=frozenset()), p,
                               include_schur, stats)
    (bases,) = runs
    return readout(bases, aut.accepting, G.n ** aut.k, p), bases


def hom_tensor(F, G, modulus=None):
    """The homomorphism tensor of a labelled graph F in G.

    Entry [v_1, ..., v_r] (r = number of in-labels plus out-labels, axes in
    that order) counts homomorphisms of F's underlying graph into G that
    send the i-th label vertex to v_i.  Coincident label vertices make the
    tensor supported on the corresponding diagonal.  Entries are exact
    Python integers, or residues when modulus is given.
    """
    label_vertices = list(F.in_labels) + list(F.out_labels)
    r = len(label_vertices)
    tensor = np.zeros((G.n,) * r, dtype=object)
    for targets in itertools.product(range(G.n), repeat=r):
        pins = dict(zip(label_vertices, targets))
        if any(pins[v] != x for v, x in zip(label_vertices, targets)):
            continue  # a coincident label vertex sent to two places
        value = hom_count(F.graph, G, pins=pins)
        if modulus is not None:
            value %= modulus
        tensor[targets] = value
    return tensor


def enumerate_pw(k, d):
    """Members of the depth-d pathwidth-(k-1) class: no gluing, so level
    i+1 applies a single J to level i and closes under edge operations.
    Sizes are bounded by k+d-1 (one fresh vertex per level)."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    seen = LabelledSet()
    records = []

    def admit(batch):
        fresh = []
        for term, value in batch:
            if seen.add(value, None):
                rec = TwRecord(term, value)
                records.append(rec)
                fresh.append(rec)
        return fresh

    admit(_a_closure([(TOne(k), one_labelled(k))], k))
    current = [(r.term, r.value) for r in records]
    for _ in range(2, d + 1):
        produced = []
        for t, f in current:
            for i in range(1, k + 1):
                produced.append((TApplyJ(i, t), val_apply_j(f, i)))
        fresh = admit(_a_closure(produced, k))
        current = [(r.term, r.value) for r in records]
        if not fresh:
            break
    return records


def accepted_value_graphs(aut, max_size):
    """Graphs of at most max_size vertices that the automaton provably
    accepts: the small_members policy (graphs on <= k vertices) plus the
    underlying graphs of accepted enumerated term values.  Deduplicated up
    to isomorphism.  For the builtin recognisers this is exactly the class
    restricted to max_size; for arbitrary automata it is a lower bound
    limited by what the term enumeration reaches.
    """

    def candidates():
        if aut.small_members == "all":
            yield from enumerate_graphs_up_to(min(aut.k, max_size))
        elif aut.small_members != "none":
            yield from (g for g in aut.small_members if g.n <= max_size)
        if max_size >= aut.k:
            for rec in enumerate_tw(aut.k, max_size + 1, max_size):
                if trace_term(aut, rec.term) in aut.accepting:
                    yield soe(rec.value)

    graphs = LabelledSet()
    for g in candidates():
        graphs.add(LabelledGraph(g, ()))
    return [F.graph for F, _ in graphs.items]


def stacked_tensors(values, G, H):
    """The exact brute-force tensors F_G (+) F_H of labelled values, one
    row each, as Python integers: counted once, reduced mod any prime."""
    return np.array([np.concatenate((hom_tensor(F, G).ravel(),
                                     hom_tensor(F, H).ravel()))
                     for F in values], dtype=object)


def rank_mod(exact, p):
    """The rank mod p of the rows of ``exact``."""
    block = np.array(exact % p, dtype=engine._residue_dtype(p))
    rank = engine._Basis(p, block.shape[1])
    for vec in block:
        rank.try_insert(vec)
    return len(rank)


def span_check(basis, exact, p):
    """Whether every row of ``exact`` mod p lies in the span of a closure
    basis, and the rank of those rows mod p."""
    block = np.array(exact % p, dtype=engine._residue_dtype(p))
    return not basis.reduce(block).any(), rank_mod(exact, p)


# The arity-1 recogniser of paths.  Its four states are the context classes
# of 1-labelled graphs: 0 the labelled K1 (start), 1 everything no context
# repairs (the only rejecting state), 2 end-labelled and 3 internally
# labelled paths.  Criterion 8 validates it against ``is_path_graph``, but
# only at states 0 and 1: arity-1 terms are edgeless and reach no other.
PATHS_K1 = """\
k 1
states 4
start 0
accept 0 2 3
glue 0 0 -> 0
glue 0 1 -> 1
glue 0 2 -> 2
glue 0 3 -> 3
glue 1 1 -> 1
glue 1 2 -> 1
glue 1 3 -> 1
glue 2 2 -> 3
glue 2 3 -> 1
glue 3 3 -> 1
J 1 0 -> 1
J 1 1 -> 1
J 1 2 -> 1
J 1 3 -> 1
small all
"""
