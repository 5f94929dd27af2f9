"""Shared test helpers: seeded random graphs, tiny fixtures, and the
bases a closure ends with."""

import random

import numpy as np

from homind import engine
from homind.graphs import Graph
from homind.oracle import hom_tensor


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
    every closure run.  With ``one_at_a_time`` the closure is fed its
    seeds and expansions one candidate at a time; ``order_rng``, when
    given, randomizes every closure's pop order."""
    runs = []
    closure = engine._closure

    def traced(bases, seeds, expand, accepting, ops_g, ops_h, rng=None,
               stats=None):
        if one_at_a_time:
            seeds = list(_rows(seeds))
            batched = expand
            expand = lambda q, row: _rows(batched(q, row))  # noqa: E731
        runs.append(bases)
        return closure(bases, seeds, expand, accepting, ops_g, ops_h,
                       rng if order_rng is None else order_rng, stats)

    monkeypatch.setattr(engine, "_closure", traced)
    return runs


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
