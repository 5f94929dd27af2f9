"""Weisfeiler-Leman refinement, parity-twisted gadget graphs, and
hardness-instance generators.

The k-dimensional Weisfeiler-Leman procedure colors k-tuples of vertices
by their atomic type (equalities and adjacencies inside the tuple) and
repeatedly refines: the new color of a tuple records, for every vertex w,
how w relates to the tuple together with the colors of the k tuples
obtained by substituting w into each position.  Two graphs are k-WL
indistinguishable when the stable colorings give identical histograms,
which happens exactly when they admit equal homomorphism counts from
every graph of treewidth at most k.  Running both graphs inside one
disjoint union keeps the palettes aligned, so a histogram comparison at
the stable partition decides indistinguishability.

No command runs ``wl_refine``: ``homind wl`` decides with the engine's
refinement (tw-all at arity k + 1).  It stays as the independent
reference that the tests and perfbench's oracles check the engine against.

The gadget construction replaces each vertex v of a base graph by the
set of parity assignments S : E(v) -> Z_2 with a prescribed sum U(v),
joining (u, S) and (v, T) when uv is a base edge and S(uv) = T(uv).
Only the total parity of U matters, giving one "even" and one "odd"
graph per base.  For a connected base these two graphs are isomorphic
iff the total parity is even iff they admit equal homomorphism counts
from the base itself — which makes the pair a canonical source of hard
instances: the even/odd pair of a connected base is k-WL
indistinguishable exactly when the base has treewidth at least k+1, and
products with the even/odd pair of a clique turn clique detection into
small-graph homomorphism indistinguishability.
"""

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, adjacency_bitmasks, categorical_product, connected_components


@dataclass(frozen=True)
class CFIInstance:
    """One parity twist of a base graph.

    legend[i] = (v, S) names result vertex i: base vertex v together with
    the set S of incident base edges assigned 1.
    """

    base: Graph
    parity: int
    result: Graph
    legend: tuple

    def __post_init__(self):
        expected = sum(2 ** (d - 1) for d in self.base.degree_sequence())
        if self.result.n != expected:
            raise ValueError("gadget size formula violated")


def cfi(base: Graph, parity: int) -> CFIInstance:
    """The even (parity 0) or odd (parity 1) gadget graph of a base
    without isolated vertices.  The parity is concentrated on the
    lowest-id vertex; any other placement yields the same graph."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    degrees = base.degree_sequence()
    for v, d in enumerate(degrees):
        if d == 0:
            raise ValueError(f"isolated vertex {v} in gadget base")
    incident = [[] for _ in range(base.n)]
    for e in sorted(tuple(sorted(edge)) for edge in base.edges):
        incident[e[0]].append(e)
        incident[e[1]].append(e)

    legend = []
    ids = {}  # (v, frozenset of 1-edges) -> result vertex id
    for v in range(base.n):
        want = parity if v == 0 else 0
        for bits in range(1 << degrees[v]):
            if bin(bits).count("1") % 2 != want:
                continue
            ones = frozenset(
                e for pos, e in enumerate(incident[v]) if bits >> pos & 1
            )
            ids[(v, ones)] = len(legend)
            legend.append((v, ones))

    edges = []
    for (i, (u, s)) in enumerate(legend):
        for (j, (v, t)) in enumerate(legend):
            if j <= i or v == u:
                continue
            e = tuple(sorted((u, v)))
            if e in incident[u] and (e in s) == (e in t):
                edges.append((i, j))
    result = Graph.from_edges(len(legend), edges)
    return CFIInstance(base, parity, result, tuple(legend))


def wl_refine(G: Graph, H: Graph, k: int, budget: int = 200_000) -> bool:
    """Stable k-tuple refinement on the disjoint union; True when the
    color histograms of G-tuples and H-tuples agree.  The reference k-WL:
    no command runs it, and it shares no code with ``engine._refine``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = G.n + H.n
    if n**k > budget:
        raise ValueError(f"refinement budget exceeded: {n}^{k} tuples > {budget}")

    adj = list(adjacency_bitmasks(G)) + [mask << G.n for mask in adjacency_bitmasks(H)]
    total = n**k
    strides = [n ** (k - 1 - pos) for pos in range(k)]

    def coords(idx):
        return [(idx // strides[pos]) % n for pos in range(k)]

    # initial colors: atomic type = equality and adjacency pattern
    signatures = []
    for idx in range(total):
        x = coords(idx)
        atom = tuple(
            (x[a] == x[b], bool(adj[x[a]] >> x[b] & 1))
            for a, b in combinations(range(k), 2)
        )
        signatures.append(atom)
    palette = {}
    colors = [palette.setdefault(sig, len(palette)) for sig in signatures]

    while True:
        new_sigs = []
        for idx in range(total):
            x = coords(idx)
            neighborhood = []
            for w in range(n):
                rel = tuple(
                    (xi == w, bool(adj[xi] >> w & 1)) for xi in x
                )
                subs = tuple(
                    colors[idx + (w - x[pos]) * strides[pos]] for pos in range(k)
                )
                neighborhood.append((rel, subs))
            neighborhood.sort()
            new_sigs.append((colors[idx], tuple(neighborhood)))
        palette = {}
        new_colors = [palette.setdefault(sig, len(palette)) for sig in new_sigs]
        stable = len(palette) == len(set(colors))
        colors = new_colors
        if stable:
            break

    hist_g, hist_h = {}, {}
    for idx in range(total):
        x = coords(idx)
        if all(xi < G.n for xi in x):
            hist_g[colors[idx]] = hist_g.get(colors[idx], 0) + 1
        elif all(xi >= G.n for xi in x):
            hist_h[colors[idx]] = hist_h.get(colors[idx], 0) + 1
    return hist_g == hist_h


def _delete_isolated(g: Graph) -> Graph:
    keep = [v for v, d in enumerate(g.degree_sequence()) if d > 0]
    if not keep:
        raise ValueError("base graph has no edges")
    relabel = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(
        len(keep), [(relabel[u], relabel[v]) for u, v in (tuple(e) for e in g.edges)]
    )


def _path_connect(g: Graph) -> Graph:
    comps = connected_components(g)
    if len(comps) <= 1:
        return g
    reps = sorted(min(comp) for comp in comps)
    extra = list(zip(reps, reps[1:]))
    return Graph.from_edges(g.n, [tuple(e) for e in g.edges] + extra)


def gen_wl_hardness(G: Graph, k: int, max_output: int = 4096):
    """Reduce a treewidth question to a refinement question: the even/odd
    pair of the (isolated-vertex-free, path-connected) base is k-WL
    indistinguishable iff the base has treewidth >= k+1."""
    if k < 1:
        raise ValueError(f"wl-hardness needs k >= 1, got {k}")
    base = _path_connect(_delete_isolated(G))
    size = sum(2 ** (d - 1) for d in base.degree_sequence())
    if size > max_output:
        raise ValueError(f"degree budget exceeded (output size {size} > {max_output})")
    return cfi(base, 0).result, cfi(base, 1).result, k


def gen_clique_reduction(G: Graph, k: int, max_k: int = 4):
    """Reduce k-clique detection to homomorphism indistinguishability over
    graphs on at most k vertices: the products of G with the even/odd pair
    of K_k are indistinguishable over that class iff G has no k-clique."""
    if not 2 <= k <= max_k:
        raise ValueError(f"clique reduction supports 2 <= k <= {max_k}, got {k}")
    clique = Graph.from_edges(k, list(combinations(range(k), 2)))
    even = cfi(clique, 0).result
    odd = cfi(clique, 1).result
    return categorical_product(G, even), categorical_product(G, odd), k
