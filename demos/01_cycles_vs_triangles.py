"""
Telling a 6-cycle from two triangles
====================================

Two graphs are homomorphism indistinguishable over a class of graphs
when every member of the class maps into both the same number of times.
Restricting the class changes the power of the test: the 6-cycle and
the disjoint union of two triangles agree on all homomorphism counts
from forests, but a triangle maps into one and not the other.

This demo runs the subspace-closure engine on that pair at increasing
label arity and watches the verdict flip.
"""

# %%
# The pair.  Both graphs are 2-regular on 6 vertices with 6 edges, so
# degree-based invariants cannot separate them.

from homind.graphs import complete_graph, cycle_graph, disjoint_union, hom_count

c6 = cycle_graph(6)
two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
print("C6:         ", c6.n, "vertices,", c6.m, "edges")
print("K3 + K3:    ", two_k3.n, "vertices,", two_k3.m, "edges")

# %%
# Arity 2 nails down classes of treewidth <= 1 (forests).  Forests count
# walks and subtree patterns, and the pair agrees on all of them, so the
# engine accepts at every prime.

from homind.engine import format_verdict, modhomind
from homind.recognizer import builtin

verdict = modhomind(c6, two_k3, builtin("tw-all", 2), 10007)
print(format_verdict(verdict))

# %%
# Arity 3 reaches treewidth <= 2, which includes the triangle.  The
# engine's small stage finds the separating member immediately: the
# witness line below is the triangle, with hom counts 0 into C6 and
# 12 into K3 + K3 (3! orientations times 2 components).

verdict = modhomind(c6, two_k3, builtin("tw-all", 3), 10007)
print(format_verdict(verdict))
print("hom(K3, C6)      =", hom_count(complete_graph(3), c6))
print("hom(K3, K3+K3)   =", hom_count(complete_graph(3), two_k3))

# %%
# The randomized wrapper turns the mod-p decision into an exact-count
# decision.  For a class of several states it samples primes from a
# range wide enough that unequal counts survive all trials with
# probability < 2^-trials.  tw-all has one state, and every prime that
# range holds exceeds every count the decision compares, so the wrapper
# draws none: it decides over the integers (mode=exact), and on this
# arity-2-indistinguishable pair every seed accepts.

from homind.engine import homind_randomized

verdict = homind_randomized(c6, two_k3, builtin("tw-all", 2), "tw", seed=7)
print(format_verdict(verdict))
