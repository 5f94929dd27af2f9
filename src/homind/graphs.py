"""Finite simple graphs and the exact counting oracles built on them.

Everything downstream (tensor engines, automata, hierarchies) is ultimately
a statement about homomorphism counts hom(F, G): the number of maps
V(F) -> V(G) carrying every edge of F to an edge of G.  This module owns the
graph type itself plus the *independent* ground-truth machinery:

- ``hom_count`` enumerates homomorphisms directly, one connected
  component of the pattern at a time, with pruning but no algebra shared
  with the tensor engine it is later used to audit; its ``pins`` fix the
  images of some pattern vertices, which is how the tests fill
  homomorphism tensors;
- ``walk_counts`` gives exact path-homomorphism counts via 1^T A^l 1;
- ``is_isomorphic_small`` is an exhaustive isomorphism check for the tiny
  graphs that appear in fixtures and CFI parity arguments;
- ``categorical_product`` / ``disjoint_union`` are the two constructions the
  reductions need (hom is multiplicative over x and additive over disjoint
  union for connected patterns).

Vertices are dense 0-based integers.  Graphs are immutable and hashable;
isolated vertices are legal.
"""

from dataclasses import dataclass
from itertools import combinations


class GraphFormatError(ValueError):
    """Malformed graph text; message carries the offending line number."""


class OracleBudgetExceeded(RuntimeError):
    """An exact enumeration oracle would exceed its work budget."""


# === Graph type ===


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with canonicalized edges.

    ``edges`` is a sorted tuple of (u, v) pairs with u < v.  Construct via
    ``from_edges`` (or the named constructors below) rather than directly,
    so canonicalization and validation always run.
    """

    n: int
    edges: tuple

    @staticmethod
    def from_edges(n, edges):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range 0..{n - 1}: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((u, v) if u < v else (v, u))
        return Graph(n, tuple(sorted(canon)))

    @property
    def m(self):
        return len(self.edges)

    def degree_sequence(self):
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def adjacency_sets(g):
    """Neighbor sets, index v -> set of neighbors."""
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def adjacency_bitmasks(g):
    """Neighbor sets packed as int bitmasks (bit v of adj[u] = edge uv)."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


# === Named constructors ===


def empty_graph(n):
    return Graph(n, ())


def path_graph(n):
    """P_n: path on n vertices (n-1 edges)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    """C_n: cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    """K_n."""
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def star_graph(leaves):
    """K_{1,leaves}: vertex 0 joined to each leaf."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# === File format ===
#
# UTF-8 text; '#' starts a comment to end of line; the first non-comment
# tokens are `n <int> m <int>`, followed by exactly m whitespace-separated
# pairs `<u> <v>`.  The serializer emits one edge per line, u < v, sorted.


def _tokenize_with_lines(text):
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            toks.append((tok, lineno))
    return toks


def parse_graph_tokens(toks, pos):
    """Parse one graph from a (token, lineno) list starting at index pos;
    returns (Graph, next index).  Shared by the graph file parser and by
    formats that embed graph blocks."""

    def take(idx, what):
        if idx >= len(toks):
            last = toks[-1][1] if toks else 1
            raise GraphFormatError(f"line {last}: unexpected end of input, expected {what}")
        return toks[idx]

    def take_int(idx, what):
        tok, ln = take(idx, what)
        try:
            return int(tok), ln
        except ValueError:
            raise GraphFormatError(f"line {ln}: expected {what}, got {tok!r}") from None

    tok, ln = take(pos, "'n'")
    if tok != "n":
        raise GraphFormatError(f"line {ln}: malformed header, expected 'n', got {tok!r}")
    n, _ = take_int(pos + 1, "vertex count")
    tok, ln = take(pos + 2, "'m'")
    if tok != "m":
        raise GraphFormatError(f"line {ln}: malformed header, expected 'm', got {tok!r}")
    m, _ = take_int(pos + 3, "edge count")
    if n < 0 or m < 0:
        raise GraphFormatError("line 1: malformed header, negative count")

    seen = set()
    pos += 4
    for _ in range(m):
        u, ln_u = take_int(pos, "edge endpoint")
        v, _ = take_int(pos + 1, "edge endpoint")
        pos += 2
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"line {ln_u}: vertex id out of range 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"line {ln_u}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphFormatError(f"line {ln_u}: duplicate edge {key[0]} {key[1]}")
        seen.add(key)
    return Graph(n, tuple(sorted(seen))), pos


def parse_graph(text):
    """Parse the graph file format.  Accepts str or bytes."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    toks = _tokenize_with_lines(text)
    g, pos = parse_graph_tokens(toks, 0)
    if pos != len(toks):
        tok, ln = toks[pos]
        raise GraphFormatError(f"line {ln}: trailing tokens after {g.m} edges (got {tok!r})")
    return g


def serialize_graph(g):
    lines = [f"n {g.n} m {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def compact_graph(g):
    """The graph file of g on one line: ``serialize_graph`` with every
    line break a space, as key=value output prints a graph."""
    return " ".join(serialize_graph(g).split())


# === Exact homomorphism counting (the independent oracle) ===


DEFAULT_WORK_BUDGET = 10**8  # steps of one exact count, unless a caller sets its own


def hom_count(F, G, budget=DEFAULT_WORK_BUDGET, pins=None):
    """Number of homomorphisms F -> G by exhaustive enumeration, or of
    those that extend the partial map ``pins`` (vertex of F -> vertex of
    G) when it is given.

    Counts each connected component of F on its own and multiplies the
    counts, returning 0 at the first component with no homomorphism.  A
    component is an odometer over V(G)^V(C) organised as a depth-first
    search in breadth-first order (from its least pinned vertex, if it
    has one), pruning a partial map as soon as one edge constraint fails;
    a pinned vertex has one candidate, its image.  ``budget`` caps the
    steps of all components together: one per edge check, and one per
    candidate image tried for a vertex with no placed neighbour (a
    component root), so every candidate tried costs at least one step.
    A breach raises OracleBudgetExceeded rather than approximating.
    """
    nf, ng = F.n, G.n
    pins = pins or {}
    for x, y in pins.items():
        if not (0 <= x < nf and 0 <= y < ng):
            raise ValueError(f"pin out of range: {x} -> {y}")
    if nf == 0:
        return 1
    if ng == 0:
        return 0

    adj_f = adjacency_sets(F)
    adj_g = adjacency_bitmasks(G)
    seen = [False] * nf
    checks = 0
    total = 1
    for root in [*sorted(pins), *range(nf)]:
        if seen[root]:
            continue
        # Breadth-first inside the component, so every vertex but the
        # root has an already placed neighbour.
        seen[root] = True
        order = [root]
        for x in order:
            for y in sorted(adj_f[x]):
                if not seen[y]:
                    seen[y] = True
                    order.append(y)
        pos = {x: i for i, x in enumerate(order)}
        # For each vertex (in placement order), neighbours already placed.
        back = [[pos[y] for y in adj_f[x] if pos[y] < pos[x]] for x in order]
        # Candidate images lo..hi-1 per depth.
        lo = [pins.get(x, 0) for x in order]
        hi = [pins[x] + 1 if x in pins else ng for x in order]

        last = len(order) - 1
        count = 0
        image = [0] * len(order)
        choice = lo[:]
        depth = 0
        while depth >= 0:
            if choice[depth] == hi[depth]:
                choice[depth] = lo[depth]
                depth -= 1
                if depth >= 0:
                    choice[depth] += 1
                continue
            cand = choice[depth]
            ok = True
            if not back[depth]:
                checks += 1
            for b in back[depth]:
                checks += 1
                if not (adj_g[cand] >> image[b]) & 1:
                    ok = False
                    break
            if checks > budget:
                raise OracleBudgetExceeded(
                    f"hom_count budget exceeded ({checks} > {budget} steps)"
                )
            if not ok:
                choice[depth] += 1
                continue
            image[depth] = cand
            if depth == last:
                count += 1
                choice[depth] += 1
            else:
                depth += 1
        if count == 0:
            return 0
        total *= count
    return total


# === Products and unions ===


def categorical_product(G, H):
    """Categorical (tensor) product: (g,h)~(g',h') iff gg' in E(G) and hh' in E(H).

    Pairs are encoded as i*|V(H)| + j, matching the usual row-major flattening.
    """
    nh = H.n
    edges = []
    for g1, g2 in G.edges:
        for h1, h2 in H.edges:
            # both orientations of the H edge pair with the (sorted) G edge
            edges.append((g1 * nh + h1, g2 * nh + h2))
            edges.append((g1 * nh + h2, g2 * nh + h1))
    return Graph.from_edges(G.n * nh, edges)


def disjoint_union(G, H):
    """G + H with H's vertices shifted by |V(G)|."""
    off = G.n
    edges = list(G.edges) + [(u + off, v + off) for u, v in H.edges]
    return Graph.from_edges(G.n + H.n, edges)


# === Walk counts ===


def walk_counts(G, max_len):
    """Exact 1^T A^l 1 for l = 0..max_len (arbitrary-precision integers).

    Entry l equals hom(P_{l+1}, G): a homomorphism from the path on l+1
    vertices is exactly a length-l walk.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    adj = adjacency_sets(G)
    w = [1] * G.n
    out = [G.n]
    for _ in range(max_len):
        w = [sum(w[y] for y in adj[x]) for x in range(G.n)]
        out.append(sum(w))
    return out


# === Small exhaustive isomorphism ===


def is_isomorphic_small(G, H, cap=10, pairs=()):
    """Exhaustive isomorphism test for small graphs.

    Prunes by degree sequence up front, then backtracks over bijections with
    full forward checking (a candidate image must reproduce the adjacency
    pattern to every already-placed vertex exactly).  ``pairs`` forces
    vertex images: (x, y) maps x in G to y in H; a conflicting or
    non-injective forcing, a degree mismatch or a broken adjacency among
    the forced vertices rejects before the search.  ``cap`` (None for
    none) guards against accidental use on large inputs; raise it
    deliberately when needed.
    """
    if cap is not None and (G.n > cap or H.n > cap):
        raise ValueError(f"is_isomorphic_small cap exceeded ({max(G.n, H.n)} > {cap})")
    if G.n != H.n or G.m != H.m:
        return False
    n = G.n
    adj_g = adjacency_bitmasks(G)
    adj_h = adjacency_bitmasks(H)
    deg_g = [mask.bit_count() for mask in adj_g]
    deg_h = [mask.bit_count() for mask in adj_h]
    if sorted(deg_g) != sorted(deg_h):
        return False

    image = [-1] * n
    used = 0  # bitmask over V(H)
    assigned_mask = 0  # bitmask over V(G)
    for x, y in pairs:
        if image[x] == y:
            continue
        if image[x] >= 0 or used >> y & 1 or deg_g[x] != deg_h[y]:
            return False
        image[x] = y
        used |= 1 << y
        assigned_mask |= 1 << x
    forced = [x for x in range(n) if image[x] >= 0]
    for a, x in enumerate(forced):
        for z in forced[:a]:
            if (adj_g[x] >> z & 1) != (adj_h[image[x]] >> image[z] & 1):
                return False

    def pick_next():
        # most-constrained first: maximize already-placed neighbors, then degree
        best, best_key = -1, None
        for x in range(n):
            if image[x] >= 0:
                continue
            placed = (adj_g[x] & assigned_mask).bit_count()
            key = (placed, deg_g[x])
            if best_key is None or key > best_key:
                best, best_key = x, key
        return best

    def extend():
        nonlocal used, assigned_mask
        x = pick_next()
        if x < 0:
            return True
        need = 0  # the images of x's placed neighbours
        placed = adj_g[x] & assigned_mask
        while placed:
            low = placed & -placed
            need |= 1 << image[low.bit_length() - 1]
            placed ^= low
        forbid = used & ~need
        for h in range(n):
            bit = 1 << h
            if used & bit or deg_h[h] != deg_g[x]:
                continue
            if (adj_h[h] & need) != need or (adj_h[h] & forbid):
                continue
            image[x] = h
            used |= bit
            assigned_mask |= 1 << x
            if extend():
                return True
            image[x] = -1
            used &= ~bit
            assigned_mask &= ~(1 << x)
        return False

    return extend()


def connected_components(g):
    """List of vertex lists, one per component, each sorted ascending."""
    adj = adjacency_sets(g)
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def is_connected(g):
    return g.n <= 1 or len(connected_components(g)) == 1
