"""
Matrix algebras and relaxation levels
=====================================

The level-t relaxation class is generated from "atomic" building blocks
— graphs on at most 2t vertices, all of them labelled — closed under
matrix products, entrywise products with atomics, and label
permutations.  Indistinguishability over that class is decided on the
span of the class's n^t x n^t matrices, read off a partition of the
2t-tuples of both graphs, as the treewidth engine does for tw-all: the
colour of (a, b) is refined by the colour pairs (col(a, c), col(c, b))
over all c, the Weisfeiler-Leman coherent-closure step.
"""

# %%
# Level 1 already sees more than forests do.  Its algebra contains the
# entrywise product of the adjacency matrix with its own square, whose
# entry sum counts ordered closed triangles — so the 6-cycle and the
# two-triangle union, inseparable at engine arity 2, fall apart here.

from homind.graphs import complete_graph, cycle_graph, disjoint_union
from homind.lasserre import lasserre_mod

c6 = cycle_graph(6)
two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
verdict = lasserre_mod(c6, two_k3, 1, 10007)
print("level 1 accepts C6 vs K3+K3:", verdict.accept)

# %%
# Every atomic building block reads off a concrete quantity.  At level
# 1 there are three: both labels on one vertex (the identity matrix,
# total = |V|), two label slots with no constraint (the all-ones
# matrix, total = |V|^2 — maps need not be injective), and two adjacent
# vertices (the adjacency matrix, total = 2|E|).

from homind.labelled import enumerate_atomic
from homind.lasserre import MatrixOps

ops = MatrixOps(c6, 1, 10007)
for atomic in enumerate_atomic(1):
    block = ops.atomic_tensor(atomic)
    print(f"atomic on {atomic.graph.n} vertex/vertices, "
          f"{atomic.graph.m} edge(s): total = {ops.total(block)}")

# %%
# Isomorphic pairs always accept — the readout compares colour-class
# sizes that are genuinely equal.  A permuted copy of a random graph:

import random

from homind.graphs import Graph

rng = random.Random(4)
g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                         if rng.random() < 0.5])
perm = list(range(5))
rng.shuffle(perm)
h = Graph.from_edges(5, [(perm[u], perm[v]) for u, v in g.edges])
print("isomorphic pair accepted:", lasserre_mod(g, h, 1, 101).accept)

# %%
# Random mode lifts the mod-p verdict to exact counts without drawing a
# prime: every prime above the level-t bound exceeds every class size the
# partition compares, so the verdict at any of them is the verdict over
# the integers (mode=exact), which ``lasserre_mod`` computes at p = None.
# Unequal vertex counts are rejected.

verdict = lasserre_mod(complete_graph(2), Graph.from_edges(3, [(0, 1)]), 1, None)
print("unequal orders rejected:", not verdict.accept, "| mode:", verdict.mode)
