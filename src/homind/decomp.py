"""Tree and path decompositions: validation, smoothing, out-degree rewiring.

A tree decomposition of F is a tree T with a bag beta(t) subseteq V(F) per
tree vertex such that (1) bags cover V(F), (2) every edge of F lies inside
some bag, and (3) the occurrences of each vertex form a subtree.  Width is
max bag size minus one.

The algebraic machinery downstream wants decompositions in a normal form:
*smooth* (every bag has size exactly k, adjacent bags share exactly k-1
vertices) and, once rooted, with out-degree at most k.  Both normalizations
are classical constructive arguments:

- smoothing contracts redundant (subset) bags, pads small bags from a
  neighbor, and interpolates between adjacent bags that differ in more than
  one vertex;
- the out-degree bound follows by partitioning the children of a node by the
  unique bag vertex each child drops (at most k parts: each child bag keeps
  k-1 of the parent's k vertices), promoting one representative per part and
  reparenting the rest beneath it — legal because two children dropping the
  same vertex already share k-1 bag vertices.

``exact_treewidth_tiny`` / ``exact_pathwidth_tiny`` are exhaustive
elimination-ordering / vertex-separation dynamic programs over vertex
subsets, exact for the tiny graphs used in enumeration oracles; both are
memoized per graph, since the class oracles ask about the same enumerated
graphs again and again.

The decomposition text format: ``bag <t> : <v1> <v2> ...`` lines, ``tedge
<s> <t>`` lines, and an optional ``root <t>`` line; '#' comments allowed.
"""

from dataclasses import dataclass
from functools import cache

from .graphs import Graph, adjacency_sets, connected_components


class DecompositionError(ValueError):
    """A decomposition violates one of its defining conditions."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree plus bags; ``bags[t]`` is a frozenset of decomposed-graph vertices.

    The same type serves for path decompositions (validate with path=True,
    which additionally requires the tree to be a path).
    """

    tree: Graph
    bags: tuple
    root: int = None

    @staticmethod
    def make(tree, bags, root=None):
        return TreeDecomposition(tree, tuple(frozenset(b) for b in bags), root)

    @property
    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1


# === Validation ===


def _check_is_tree(t, path=False):
    if t.n == 0:
        raise DecompositionError("decomposition tree is empty")
    if t.m != t.n - 1 or (t.n > 1 and len(connected_components(t)) != 1):
        raise DecompositionError("decomposition tree is not a tree")
    if path and any(d > 2 for d in t.degree_sequence()):
        raise DecompositionError("decomposition tree is not a path")


def validate(dec, F, path=False):
    """Check the three decomposition conditions; return the width.

    Raises DecompositionError naming the first violated condition together
    with a witness vertex or edge.
    """
    _check_is_tree(dec.tree, path=path)
    if len(dec.bags) != dec.tree.n:
        raise DecompositionError(
            f"bag count {len(dec.bags)} does not match tree size {dec.tree.n}"
        )
    if dec.root is not None and not (0 <= dec.root < dec.tree.n):
        raise DecompositionError(f"root {dec.root} is not a tree vertex")
    for t, bag in enumerate(dec.bags):
        for v in bag:
            if not (0 <= v < F.n):
                raise DecompositionError(f"bag {t} contains non-vertex {v}")

    covered = set().union(*dec.bags) if dec.bags else set()
    for v in range(F.n):
        if v not in covered:
            raise DecompositionError(f"vertex coverage violated: vertex {v} in no bag")

    for u, v in F.edges:
        if not any(u in bag and v in bag for bag in dec.bags):
            raise DecompositionError(f"edge coverage violated: edge {u} {v} in no bag")

    tree_adj = adjacency_sets(dec.tree)
    for v in range(F.n):
        occ = [t for t, bag in enumerate(dec.bags) if v in bag]
        seen = {occ[0]}
        stack = [occ[0]]
        occ_set = set(occ)
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y in occ_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != occ_set:
            raise DecompositionError(
                f"connectivity violated: occurrences of vertex {v} are not a subtree"
            )
    return dec.width


# === Smoothing ===


def _contract_redundant(adj, bags, alive, root_ref):
    """Contract tree edges where one bag contains the other.

    The subset side is merged into the superset side; if the dropped node
    was the designated root, the designation moves to the survivor.
    Mutates adj/bags/alive/root_ref in place.
    """
    changed = True
    while changed:
        changed = False
        for s in sorted(alive):
            if s not in alive:
                continue
            for t in sorted(adj[s]):
                if bags[s] <= bags[t]:
                    drop, keep = s, t
                elif bags[t] <= bags[s]:
                    drop, keep = t, s
                else:
                    continue
                for nb in list(adj[drop]):
                    adj[nb].discard(drop)
                    if nb != keep:
                        adj[nb].add(keep)
                        adj[keep].add(nb)
                alive.discard(drop)
                adj[drop] = set()
                if root_ref[0] == drop:
                    root_ref[0] = keep
                changed = True
                break
            if changed:
                break


def smooth(dec, F, k):
    """Normalize to bags of size exactly k, adjacent bags sharing k-1 vertices.

    Preconditions: the decomposition validates with width <= k-1, and F has
    at least k vertices.
    """
    width = validate(dec, F)
    if width > k - 1:
        raise DecompositionError(f"width {width} exceeds k-1 = {k - 1}")
    if F.n < k:
        raise DecompositionError(f"graph has {F.n} < k = {k} vertices")

    adj = {t: set(nb) for t, nb in enumerate(adjacency_sets(dec.tree))}
    bags = {t: set(b) for t, b in enumerate(dec.bags)}
    alive = set(range(dec.tree.n))
    root_ref = [dec.root]

    while True:
        _contract_redundant(adj, bags, alive, root_ref)
        small = [s for s in sorted(alive) if len(bags[s]) < k]
        if not small:
            break
        s = small[0]
        grew = False
        for t in sorted(adj[s]):
            extra = sorted(bags[t] - bags[s])
            if extra:
                bags[s].add(extra[0])
                grew = True
                break
        if not grew:
            # isolated node (or all neighbors subsets, removed by contraction)
            missing = sorted(set(range(F.n)) - bags[s])
            bags[s].add(missing[0])

    # interpolate adjacent bags whose symmetric difference exceeds 2
    next_id = max(alive) + 1 if alive else 0
    for s in sorted(alive):
        for t in sorted(adj[s]):
            if t < s:
                continue
            inter = len(bags[s] & bags[t])
            if inter == k - 1:
                continue
            drop = sorted(bags[s] - bags[t])
            add = sorted(bags[t] - bags[s])
            # walk from bags[s] to bags[t] one swap at a time
            adj[s].discard(t)
            adj[t].discard(s)
            prev = s
            cur = set(bags[s])
            for i in range(len(drop) - 1):
                cur = (cur - {drop[i]}) | {add[i]}
                node = next_id
                next_id += 1
                bags[node] = set(cur)
                adj[node] = {prev}
                adj[prev].add(node)
                alive.add(node)
                prev = node
            adj[prev].add(t)
            adj[t].add(prev)

    return _rebuild(adj, bags, alive, root_ref[0], F, k)


def _rebuild(adj, bags, alive, root, F, k):
    """Renumber alive nodes BFS-from-root and validate the smooth result."""
    start = root if root is not None and root in alive else min(alive)
    order = []
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop(0)
        order.append(x)
        for y in sorted(adj[x]):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    remap = {old: new for new, old in enumerate(order)}
    edges = []
    for s in order:
        for t in adj[s]:
            if remap[s] < remap[t]:
                edges.append((remap[s], remap[t]))
    out = TreeDecomposition.make(
        Graph.from_edges(len(order), edges),
        [bags[old] for old in order],
        remap[root] if root is not None else None,
    )
    validate(out, F)
    for b in out.bags:
        assert len(b) == k
    for s, t in out.tree.edges:
        assert len(out.bags[s] & out.bags[t]) == k - 1
    return out


# === Out-degree rewiring ===


def rewire_bounded_outdegree(dec, F, k):
    """Bound rooted out-degree by k, preserving smoothness.

    Processes nodes top-down.  At each node: merge children with equal bags,
    partition the remaining children by the unique bag vertex they drop
    (at most k parts), keep one representative per part as a child and hang
    the rest beneath it.
    """
    if dec.root is None:
        raise DecompositionError("rewiring needs a designated root")
    validate(dec, F)
    for t, b in enumerate(dec.bags):
        if len(b) != k:
            raise DecompositionError(f"bag {t} has size {len(b)} != k = {k}; smooth first")
    for s, t in dec.tree.edges:
        if len(dec.bags[s] & dec.bags[t]) != k - 1:
            raise DecompositionError(
                f"adjacent bags {s},{t} share {len(dec.bags[s] & dec.bags[t])} != k-1 vertices"
            )

    bags = {t: frozenset(b) for t, b in enumerate(dec.bags)}
    tree_adj = adjacency_sets(dec.tree)
    children = {}
    parent = {dec.root: None}
    order = [dec.root]
    queue = [dec.root]
    while queue:
        x = queue.pop(0)
        children[x] = sorted(y for y in tree_adj[x] if y != parent[x])
        for y in children[x]:
            parent[y] = x
            queue.append(y)
            order.append(y)

    alive = set(order)
    process = [dec.root]
    while process:
        x = process.pop(0)
        # merge children carrying equal bags
        by_bag = {}
        for c in children[x]:
            by_bag.setdefault(bags[c], []).append(c)
        kept = []
        for bag in sorted(by_bag, key=sorted):
            group = by_bag[bag]
            rep = group[0]
            for dup in group[1:]:
                children[rep] = sorted(children[rep] + children[dup])
                for gc in children[dup]:
                    parent[gc] = rep
                children[dup] = []
                alive.discard(dup)
            kept.append(rep)
        # partition by dropped vertex and reparent within each part
        parts = {}
        for c in sorted(kept):
            dropped = bags[x] - bags[c]
            assert len(dropped) == 1
            parts.setdefault(next(iter(dropped)), []).append(c)
        new_children = []
        for v in sorted(parts):
            rep, *rest = parts[v]
            new_children.append(rep)
            if rest:
                children[rep] = sorted(children[rep] + rest)
                for c in rest:
                    parent[c] = rep
        children[x] = new_children
        process.extend(new_children)

    # rebuild dense ids in BFS order from the root
    order = []
    queue = [dec.root]
    while queue:
        x = queue.pop(0)
        order.append(x)
        queue.extend(children[x])
    remap = {old: new for new, old in enumerate(order)}
    edges = [(remap[x], remap[c]) for x in order for c in children[x]]
    out = TreeDecomposition.make(
        Graph.from_edges(len(order), [(min(a, b), max(a, b)) for a, b in edges]),
        [bags[old] for old in order],
        remap[dec.root],
    )
    validate(out, F)
    for x in order:
        assert len(children[x]) <= k, f"out-degree {len(children[x])} > k"
    return out


def rooted_out_degrees(dec):
    """Out-degree of each tree vertex in the tree rooted at dec.root."""
    if dec.root is None:
        raise DecompositionError("no root designated")
    adj = adjacency_sets(dec.tree)
    out = {}
    seen = {dec.root}
    queue = [dec.root]
    while queue:
        x = queue.pop(0)
        kids = [y for y in adj[x] if y not in seen]
        out[x] = len(kids)
        for y in kids:
            seen.add(y)
            queue.append(y)
    return out


def depth_of(dec):
    """Maximal number of bags on a root-to-leaf path."""
    if dec.root is None:
        raise DecompositionError("no root designated")
    adj = adjacency_sets(dec.tree)
    best = 0
    stack = [(dec.root, None, 1)]
    while stack:
        x, par, d = stack.pop()
        best = max(best, d)
        for y in adj[x]:
            if y != par:
                stack.append((y, x, d + 1))
    return best


# === Exact width oracles for tiny graphs ===


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
    adj = [0] * n
    for u, v in F.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

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
    adj = [0] * n
    for u, v in F.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

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


# === Text format ===


def serialize_decomposition(dec):
    lines = []
    for t, bag in enumerate(dec.bags):
        inner = " ".join(str(v) for v in sorted(bag))
        lines.append(f"bag {t} : {inner}".rstrip())
    for s, t in sorted(dec.tree.edges):
        lines.append(f"tedge {s} {t}")
    if dec.root is not None:
        lines.append(f"root {dec.root}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text):
    """Parse the decomposition text format (dense 0-based tree vertices)."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    bags = {}
    tedges = []
    root = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "bag":
                if len(toks) < 3 or toks[2] != ":":
                    raise ValueError("expected 'bag <t> : <v...>'")
                t = int(toks[1])
                if t in bags:
                    raise ValueError(f"duplicate bag {t}")
                bags[t] = frozenset(int(v) for v in toks[3:])
            elif toks[0] == "tedge":
                tedges.append((int(toks[1]), int(toks[2])))
            elif toks[0] == "root":
                root = int(toks[1])
            else:
                raise ValueError(f"unknown directive {toks[0]!r}")
        except (ValueError, IndexError) as e:
            raise DecompositionError(f"line {lineno}: {e}") from None
    if not bags:
        raise DecompositionError("no bags")
    t_count = max(bags) + 1
    if sorted(bags) != list(range(t_count)):
        raise DecompositionError("tree vertices must be dense 0-based")
    tree = Graph.from_edges(t_count, tedges)
    return TreeDecomposition.make(tree, [bags[t] for t in range(t_count)], root)
