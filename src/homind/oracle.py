"""Brute-force ground truth for homomorphism indistinguishability.

Two graphs G and H are homomorphism indistinguishable over a class of
graphs when hom(F, G) = hom(F, H) for every member F of the class.  The
closure engine decides this through linear algebra over prime fields; this
module decides it the slow, obviously-correct way instead: enumerate every
member graph up to a size cutoff, count homomorphisms one by one, and
compare.  Every verdict the engine produces at desk scale is validated
against these oracles, so nothing here may depend on the engine.

The size cutoff is an honest truncation: agreement up to the cutoff is
evidence, not proof, except for the paths class where a finite check is
complete — hom(P_{l+1}, G) is the number of length-l walks in G, walk
counts satisfy a linear recurrence of order |V(G)| (Cayley-Hamilton on the
adjacency matrix), and two sequences that each satisfy a recurrence of
order at most n and agree on the first 2n terms agree everywhere.

The enumerating oracles count through ``graphs.hom_count``.

Enumeration of non-isomorphic graphs is incremental edge addition with
exhaustive isomorphism rejection — fine up to 7 vertices, no external
graph catalogs involved.  An unlabelled graph is a 0-labelled graph, so
each level, like the Lasserre members, keeps one graph per isomorphism
class in a ``labelled.LabelledSet``, the package's one dedup.
Membership in the bounded-width classes is decided by exact treewidth
and pathwidth dynamic programs for graphs of at most 8 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .graphs import (
    Graph,
    adjacency_bitmasks,
    connected_components,
    hom_count,
    is_connected,
    path_graph,
    walk_counts,
)
from .labelled import LabelledGraph, LabelledSet, enumerate_lasserre

__all__ = [
    "OracleVerdict",
    "ClassSpec",
    "parse_class_spec",
    "enumerate_graphs",
    "enumerate_graphs_up_to",
    "class_members",
    "class_membership",
    "homind_bruteforce",
    "paths_oracle",
    "is_path_graph",
    "exact_treewidth_tiny",
    "exact_pathwidth_tiny",
]


# ------------------------------------------------------------ enumeration


_ENUMERATION_CAP = 7


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple:
    """All simple graphs on exactly n vertices, one per isomorphism class.

    Ordered by edge count (then discovery order), so the empty graph comes
    first and K_n last.  Supported up to 7 vertices.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > _ENUMERATION_CAP:
        raise ValueError(
            "graph enumeration supported up to %d vertices, got %d"
            % (_ENUMERATION_CAP, n)
        )
    empty_graph = Graph(n, ())
    result = [empty_graph]
    current = [empty_graph]
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while current:
        level = LabelledSet()
        for g in current:
            for edge in all_pairs:
                if edge not in g.edges:
                    level.add(LabelledGraph(Graph(n, tuple(sorted(g.edges + (edge,)))), ()))
        current = [F.graph for F, _ in level.items]
        result.extend(current)
    return tuple(result)


def enumerate_graphs_up_to(max_size: int) -> list:
    """Non-isomorphic graphs on 1..max_size vertices, smallest first."""
    graphs = []
    for n in range(1, max_size + 1):
        graphs.extend(enumerate_graphs(n))
    return graphs


# ------------------------------------------------------------ exact widths
#
# Exhaustive elimination-ordering / vertex-separation dynamic programs over
# vertex subsets, exact for the tiny graphs of the enumeration oracles; both
# are memoized per graph, since the class oracles ask about the same
# enumerated graphs again and again.


@cache
def exact_treewidth_tiny(F, cap=8):
    """Exact treewidth by dynamic programming over elimination orderings.

    State: set S of already-eliminated vertices.  Eliminating v next costs
    Q(S, v) = number of vertices outside S u {v} reachable from v through S;
    treewidth is the min over orderings of the max cost.
    """
    n = F.n
    if n > cap:
        raise ValueError(f"exact_treewidth_tiny cap exceeded ({n} > {cap})")
    if n == 0:
        return -1
    adj = adjacency_bitmasks(F)

    def q_cost(s_mask, v):
        # vertices outside s_mask|{v} reachable from v via paths through s_mask
        visited = 1 << v
        frontier = [v]
        outside = 0
        while frontier:
            x = frontier.pop()
            nbrs = adj[x] & ~visited
            visited |= nbrs
            outside |= nbrs & ~s_mask
            inner = nbrs & s_mask
            while inner:
                b = inner & -inner
                inner ^= b
                frontier.append(b.bit_length() - 1)
        return bin(outside).count("1")

    full = (1 << n) - 1
    best = {0: -1}
    for mask in range(1, full + 1):
        val = None
        m = mask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            prev = mask ^ b
            cand = max(best[prev], q_cost(prev, v))
            if val is None or cand < val:
                val = cand
        best[mask] = val
    return best[full]


@cache
def exact_pathwidth_tiny(F, cap=8):
    """Exact pathwidth via the vertex-separation-number dynamic program.

    pathwidth = min over vertex orderings of the max, over prefixes S, of
    the number of vertices in S with a neighbor outside S.
    """
    n = F.n
    if n > cap:
        raise ValueError(f"exact_pathwidth_tiny cap exceeded ({n} > {cap})")
    if n == 0:
        return -1
    adj = adjacency_bitmasks(F)

    full = (1 << n) - 1

    def boundary(mask):
        c = 0
        m = mask
        while m:
            b = m & -m
            m ^= b
            if adj[b.bit_length() - 1] & ~mask & full:
                c += 1
        return c

    best = {0: 0}
    for mask in range(1, full + 1):
        cost = boundary(mask)
        val = None
        m = mask
        while m:
            b = m & -m
            m ^= b
            cand = max(best[mask ^ b], cost)
            if val is None or cand < val:
                val = cand
        best[mask] = val
    return best[full]


# ------------------------------------------------------------ class specs


@dataclass(frozen=True)
class ClassSpec:
    """A graph class the oracle can enumerate.

    kind: one of "all", "tw", "pw", "paths", "lasserre"
    param: the width bound (tw/pw) or the level t (lasserre); None
           otherwise.
    """

    kind: str
    param: object = None


def parse_class_spec(spec) -> ClassSpec:
    """Accepts a ClassSpec, or a string like "all", "tw<=1", "tw:1",
    "pw<=2", "paths", "lasserre-t1"."""
    if isinstance(spec, ClassSpec):
        return spec
    if not isinstance(spec, str):
        raise ValueError("unrecognized class spec: %r" % (spec,))
    text = spec.strip().lower()
    if text == "all":
        return ClassSpec("all")
    if text == "paths":
        return ClassSpec("paths")
    for prefix in ("tw", "pw"):
        for sep in ("<=", ":"):
            if text.startswith(prefix + sep):
                width = int(text[len(prefix) + len(sep):])
                if width < 0:
                    raise ValueError("class width must be non-negative: %r" % (spec,))
                return ClassSpec(prefix, width)
    if text.startswith("lasserre-t"):
        return ClassSpec("lasserre", int(text[len("lasserre-t"):]))
    raise ValueError("unrecognized class spec: %r" % (spec,))


def is_path_graph(g: Graph) -> bool:
    """True when g is a path P_n (n >= 1): connected, acyclic, max degree 2."""
    if g.n == 0:
        return False
    if len(g.edges) != g.n - 1:
        return False
    degs = [0] * g.n
    for (u, v) in g.edges:
        degs[u] += 1
        degs[v] += 1
    if any(d > 2 for d in degs):
        return False
    return is_connected(g)


def class_members(spec, max_size: int) -> list:
    """All non-isomorphic members of the class with at most max_size
    vertices, ordered by vertex count then edge count."""
    cs = parse_class_spec(spec)
    if max_size < 0:
        raise ValueError(f"max size must be non-negative: {max_size}")
    if max_size == 0:
        return []
    if cs.kind == "all":
        return enumerate_graphs_up_to(max_size)
    if cs.kind == "paths":
        return [path_graph(n) for n in range(1, max_size + 1)]
    if cs.kind in ("tw", "pw"):
        return list(filter(class_membership(cs), enumerate_graphs_up_to(max_size)))
    if cs.kind == "lasserre":
        members = LabelledSet()
        for g in sorted(enumerate_lasserre(cs.param, max_size, max_size),
                        key=lambda g: (g.n, len(g.edges))):
            members.add(LabelledGraph(g, ()))
        return [F.graph for F, _ in members.items]
    raise ValueError("unrecognized class spec kind: %r" % (cs.kind,))


def class_membership(spec):
    """The membership test of a class spec, as a predicate on graphs.
    Width 0 means edgeless and treewidth 1 a forest, with no size cap;
    other widths run the exact dynamic programs (at most 8 vertices)."""
    cs = parse_class_spec(spec)
    if cs.kind == "all":
        return lambda g: True
    if cs.kind == "paths":
        return is_path_graph
    if cs.kind in ("tw", "pw") and cs.param == 0:
        return lambda g: g.m == 0
    if cs.kind == "tw" and cs.param == 1:
        return lambda g: g.m == g.n - len(connected_components(g))
    if cs.kind == "tw":
        return lambda g: exact_treewidth_tiny(g) <= cs.param
    if cs.kind == "pw":
        return lambda g: exact_pathwidth_tiny(g) <= cs.param
    raise ValueError(f"no membership oracle for class kind {cs.kind!r}")


# ------------------------------------------------------------ verdicts


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of a brute-force comparison.

    indistinguishable: no member graph separated the counts
    witness: the first member with differing counts, or None
    counts: the differing (count_G, count_H) pair at the witness, or None
    family_size: how many member graphs were compared
    """

    indistinguishable: bool
    witness: Graph | None
    counts: tuple | None
    family_size: int

    def __bool__(self) -> bool:
        return self.indistinguishable


def homind_bruteforce(
    G: Graph,
    H: Graph,
    class_spec,
    max_size: int,
    modulus: int | None = None,
    budget: int = 10 ** 8,
) -> OracleVerdict:
    """Compare hom(F, G) against hom(F, H) for every class member F with at
    most max_size vertices; exact counts, or residues mod modulus.

    Returns the first witness in enumeration order on failure.  The
    budget caps each homomorphism count on its own, as in the small
    stage, so a run may take up to 2 * len(members) * budget steps;
    OracleBudgetExceeded (from the homomorphism counter) is raised by the
    first count that breaches it.
    """
    members = class_members(class_spec, max_size)
    for index, F in enumerate(members):
        a = hom_count(F, G, budget=budget)
        b = hom_count(F, H, budget=budget)
        if modulus is not None:
            a %= modulus
            b %= modulus
        if a != b:
            return OracleVerdict(False, F, (a, b), index + 1)
    return OracleVerdict(True, None, None, len(members))


def paths_oracle(G: Graph, H: Graph, modulus: int | None = None) -> bool:
    """Indistinguishability over ALL paths (complete, not truncated).

    hom(P_{l+1}, X) is the number of length-l walks in X.  Both walk-count
    sequences satisfy linear recurrences of order at most n = max(|V(G)|,
    |V(H)|), so agreement at l = 0..2n-1 forces agreement everywhere.
    """
    n = max(G.n, H.n)
    if n == 0:
        return True
    wg = walk_counts(G, 2 * n - 1)
    wh = walk_counts(H, 2 * n - 1)
    if modulus is not None:
        wg = [x % modulus for x in wg]
        wh = [x % modulus for x in wh]
    return wg == wh
