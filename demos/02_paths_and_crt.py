"""
Path counts and the deterministic prime ladder
==============================================

Homomorphisms from a path of length L are walks of length L, so
indistinguishability over the class of paths is a statement about walk
counts of every length.  The star K_{1,3} and the path P4 agree on all
walk counts modulo 2 but differ over the integers — a pair that defeats
any single run of the engine at p = 2 and motivates the deterministic
mode, which runs the engine across enough small primes that the Chinese
Remainder Theorem pins the counts down exactly.
"""

# %%
# Walk counts.  The first disagreement is at length 2: the star's
# degree-3 center contributes 3^2 two-step walks.  Every entry of both
# sequences is even, so modulo 2 the pair is invisible.

from homind.graphs import path_graph, star_graph, walk_counts

p4 = path_graph(4)
k13 = star_graph(3)
wp = walk_counts(p4, 7)
wk = walk_counts(k13, 7)
print("P4   walks:", wp)
print("K1,3 walks:", wk)
print("mod 2 agree:", all(a % 2 == b % 2 for a, b in zip(wp, wk)))

# %%
# A single-prime run at p = 2 therefore accepts — correctly, for the
# question it answers (equality of counts in F_2).

from homind.engine import format_verdict, modhomind_pw
from homind.recognizer import builtin

paths = builtin("paths", 2)
print(format_verdict(modhomind_pw(p4, k13, paths, 2)))

# %%
# The deterministic mode covers the largest possible homomorphism count
# with a product of primes.  The engine runs at the smallest primes
# 2, 3, 5, ... in order and names the first that separates.  Prime 2
# passes, prime 3 separates (10 = 1 vs 12 = 0 mod 3), and the run stops
# with a certificate.

from homind.engine import format_verdict, homind_deterministic_crt

verdict = homind_deterministic_crt(p4, k13, paths)
print(format_verdict(verdict))

# %%
# An isomorphic pair must survive the full ladder.  Relabelling P4
# reverses it; the engine accepts at every prime of the smallest-prime
# ladder that covers the bound, and the verdict lists them all.

from homind.graphs import Graph

p4_reversed = Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
verdict = homind_deterministic_crt(p4, p4_reversed, paths)
print("primes in the ladder:", len(verdict.primes_used))
print("accepted:", verdict.accept)
