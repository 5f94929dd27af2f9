"""Shared test helpers: seeded random graphs and tiny fixtures."""

import random

from homind.graphs import Graph


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


# The arity-1 recogniser of paths.  Its four states are the context classes
# of 1-labelled graphs: 0 the labelled K1 (start), 1 everything no context
# repairs (the only rejecting state), 2 end-labelled and 3 internally
# labelled paths.  Criterion 8 validates it against ``is_path_graph``.
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
