"""
Refinement levels and parity gadgets
====================================

The k-dimensional Weisfeiler-Leman procedure colors k-tuples of
vertices and refines until stable; two graphs passing k-WL is the same
thing as homomorphism indistinguishability over graphs of treewidth at
most k.  Parity gadgets manufacture pairs that defeat any fixed level:
replace every vertex of a base graph by a small even-subset gadget, and
flip one bit of global parity to get a non-isomorphic twin that k-WL
cannot see for bases of treewidth > k.
"""

# %%
# Build the even and odd gadget pair over the triangle.  Each base
# vertex of degree d becomes 2^(d-1) gadget vertices, so K3 yields two
# 6-vertex graphs: the even one is two triangles, the odd one a 6-cycle.

from homind.graphs import complete_graph, hom_count
from homind.wl import cfi

k3 = complete_graph(3)
even = cfi(k3, 0)
odd = cfi(k3, 1)
print("even gadget:", even.result.n, "vertices,", even.result.m, "edges")
print("odd gadget: ", odd.result.n, "vertices,", odd.result.m, "edges")

# %%
# The base graph itself always separates the twins' exact homomorphism
# counts — maps into the even gadget exist, maps into the odd one don't.

print("hom(K3, even) =", hom_count(k3, even.result))
print("hom(K3, odd)  =", hom_count(k3, odd.result))

# %%
# 1-WL cannot tell the twins apart (both are 2-regular), 2-WL can:
# the triangle has treewidth 2.

from homind.wl import wl_refine

for k in (1, 2):
    print(f"{k}-WL indistinguishable:", wl_refine(even.result, odd.result, k))

# %%
# The refinement verdict coincides with the closure engine at arity
# k+1 — here checked at one prime per level.

from homind.engine import modhomind
from homind.recognizer import builtin

for k in (1, 2):
    verdict = modhomind(even.result, odd.result, builtin("tw-all", k + 1), 101)
    print(f"arity-{k + 1} engine accepts:", verdict.accept)

# %%
# The same machinery reduces triangle detection to indistinguishability:
# multiply a source graph into both twins and ask about graphs on <= 3
# vertices.  The products differ exactly when the source contains K3.

from homind.graphs import cycle_graph, path_graph
from homind.oracle import homind_bruteforce
from homind.wl import gen_clique_reduction

for source in (path_graph(4), cycle_graph(3)):
    left, right, k = gen_clique_reduction(source, 3)
    verdict = homind_bruteforce(left, right, "all", k)
    has_triangle = hom_count(k3, source) > 0
    print(f"source n={source.n} m={source.m}: triangle={has_triangle}, "
          f"products indistinguishable={verdict.indistinguishable}")
