"""(Bi)labelled graphs, their algebra, terms, and bounded enumerations.

A k-labelled graph is a graph F with a tuple of k (not necessarily distinct)
label vertices; a (k,l)-bilabelled graph carries an in-tuple of k and an
out-tuple of l.  Over a target graph G these objects denote homomorphism
tensors: F_G(x_1..x_k) counts homomorphisms F -> G pinning label i to x_i.
Four operations generate everything the deciders need, and each corresponds
to a tensor operation:

- ``soe``    drop labels             <-> sum of entries,
- ``glue``   merge labels pairwise   <-> entrywise (Schur) product,
- ``series`` out-to-in composition   <-> matrix product,
- ``permute_labels``                 <-> axis permutation.

The generator family B(k) = {J^i} u {A^{ij}} drives the treewidth world:
J^i introduces one fresh vertex and hands it label i (the previously
labelled vertex stays behind unlabelled), A^{ij} adds the edge between the
label-i and label-j vertices (``val_apply_j`` and ``val_apply_a`` apply
them to a k-labelled graph).  Terms over {one, glue, A, J} evaluate into
distinctly k-labelled graphs of bounded treewidth; their levelwise
enumeration below reproduces the depth-d classes with the sharp size bound
max{k^d, d} (and k+d-1 for the glue-free pathwidth variant): level 1 holds
the edge-closures of the all-ones graph, and level d+1 glues J^l-images of
level-d members over *distinct* labels l before applying edge operations —
distinctness is what a rooted out-degree-<=-k decomposition forces.

The Lasserre world instead starts from *atomic* (t,t)-bilabelled graphs
(every vertex labelled: a set partition of the 2t label slots plus an edge
set on the quotient) and closes under series composition, gluing with
atomics, and label permutations, with depth counted only along series.
Its enumerator builds the bilabelled values directly: no automaton reads
a level-t term, so there is no term syntax to keep.

Gluing graphs whose labels coincide can demand a self-loop (for example the
merged single-vertex atomic glued onto the edge atomic).  Over simple
targets such a value has an identically-zero tensor, so these values never
distinguish anything; the operations raise ``LoopCreated`` and enumerators
skip them.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from .graphs import Graph, adjacency_bitmasks, empty_graph, is_isomorphic_small


class LoopCreated(ValueError):
    """Label identification forced a self-loop; the value's tensor is 0."""


class ArityMismatch(ValueError):
    pass


# === LabelledGraph ===


@dataclass(frozen=True)
class LabelledGraph:
    """Graph plus in/out label tuples (vertex ids, possibly repeating)."""

    graph: Graph
    in_labels: tuple
    out_labels: tuple = ()

    def __post_init__(self):
        for v in self.in_labels + self.out_labels:
            if not (0 <= v < self.graph.n):
                raise ValueError(f"label vertex {v} outside graph")

    @property
    def k(self):
        return len(self.in_labels)

    @property
    def l(self):
        return len(self.out_labels)


def one_labelled(k):
    """The all-ones graph: k isolated vertices, vertex i carrying label i+1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return LabelledGraph(empty_graph(k), tuple(range(k)))


def soe(F):
    """Drop labels: the underlying unlabelled graph."""
    return F.graph


def _merge(n_total, edges, unions):
    """Contract vertex pairs in ``unions``; return (renumber map, Graph).

    Renumbering follows the minimal original id in each class, so results
    are deterministic.  Raises LoopCreated when contraction makes an edge
    into a loop.  Parallel edges collapse silently (hom tensors only see
    adjacency).
    """
    parent = list(range(n_total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in unions:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    reps = sorted({find(x) for x in range(n_total)})
    dense = {r: i for i, r in enumerate(reps)}
    remap = [dense[find(x)] for x in range(n_total)]
    out_edges = set()
    for u, v in edges:
        a, b = remap[u], remap[v]
        if a == b:
            raise LoopCreated(f"edge {u} {v} contracted to a loop")
        out_edges.add((min(a, b), max(a, b)))
    return remap, Graph(len(reps), tuple(sorted(out_edges)))


def glue(F1, F2):
    """Parallel composition: merge in-labels pairwise (and out-labels, if any).

    Tensor side: entrywise product.
    """
    if F1.k != F2.k or F1.l != F2.l:
        raise ArityMismatch(f"glue arity mismatch ({F1.k},{F1.l}) vs ({F2.k},{F2.l})")
    off = F1.graph.n
    edges = list(F1.graph.edges) + [(u + off, v + off) for u, v in F2.graph.edges]
    unions = [(F1.in_labels[i], F2.in_labels[i] + off) for i in range(F1.k)]
    unions += [(F1.out_labels[i], F2.out_labels[i] + off) for i in range(F1.l)]
    remap, g = _merge(off + F2.graph.n, edges, unions)
    return LabelledGraph(
        g,
        tuple(remap[v] for v in F1.in_labels),
        tuple(remap[v] for v in F1.out_labels),
    )


def series(K, F):
    """Series composition: K's i-th out-vertex is identified with F's i-th
    in-vertex; the result keeps K's in-labels and F's out-labels.

    Tensor side: matrix product K_G · F_G.
    """
    if K.l != F.k:
        raise ArityMismatch(f"series arity mismatch: out {K.l} vs in {F.k}")
    off = K.graph.n
    edges = list(K.graph.edges) + [(u + off, v + off) for u, v in F.graph.edges]
    unions = [(K.out_labels[i], F.in_labels[i] + off) for i in range(K.l)]
    remap, g = _merge(off + F.graph.n, edges, unions)
    return LabelledGraph(
        g,
        tuple(remap[v] for v in K.in_labels),
        tuple(remap[v + off] for v in F.out_labels),
    )


def permute_labels(F, sigma):
    """Redistribute labels: position i of the combined (in+out) tuple takes
    the label vertex previously at position sigma[i].

    Tensor side: axis permutation.  Composition satisfies
    permute(permute(F, s), t) = permute(F, compose(s, t)) with
    compose(s, t)[i] = s[t[i]].
    """
    total = F.k + F.l
    if sorted(sigma) != list(range(total)):
        raise ValueError(f"invalid permutation of {total} points: {sigma}")
    combined = F.in_labels + F.out_labels
    new = tuple(combined[sigma[i]] for i in range(total))
    return LabelledGraph(F.graph, new[: F.k], new[F.k :])


# === Terms of the treewidth/pathwidth algebra ===


@dataclass(frozen=True)
class TOne:
    k: int


@dataclass(frozen=True)
class TGlue:
    left: object
    right: object


@dataclass(frozen=True)
class TApplyA:
    i: int
    j: int
    arg: object


@dataclass(frozen=True)
class TApplyJ:
    i: int
    arg: object


def fold_term(t, one, glue_, apply_a, apply_j):
    """Fold a term bottom-up: ``one(k)`` at each TOne, and at the other
    nodes ``glue_(left, right)``, ``apply_a(arg, i, j)`` and
    ``apply_j(arg, i)`` of the folded children; TypeError on a non-term."""
    fold = lambda s: fold_term(s, one, glue_, apply_a, apply_j)
    if isinstance(t, TOne):
        return one(t.k)
    if isinstance(t, TGlue):
        return glue_(fold(t.left), fold(t.right))
    if isinstance(t, TApplyA):
        return apply_a(fold(t.arg), t.i, t.j)
    if isinstance(t, TApplyJ):
        return apply_j(fold(t.arg), t.i)
    raise TypeError(f"not a term: {t!r}")


def val(t):
    """Evaluate a term to its distinctly k-labelled graph."""

    def apply_a(f, i, j):
        if not 1 <= i < j <= f.k:
            raise ValueError(f"A({i},{j}) invalid at arity {f.k}")
        return val_apply_a(f, i, j)

    def apply_j(f, i):
        if not 1 <= i <= f.k:
            raise ValueError(f"J({i}) invalid at arity {f.k}")
        return val_apply_j(f, i)

    return fold_term(t, one_labelled, glue, apply_a, apply_j)


def format_term(t):
    """Render a term: one, glue(t1,t2), A(i,j,t), J(i,t)."""
    return fold_term(t, lambda k: "one", lambda l, r: f"glue({l},{r})",
                     lambda s, i, j: f"A({i},{j},{s})", lambda s, i: f"J({i},{s})")


# === Labelled isomorphism and dedup ===


def labelled_isomorphic(F1, F2):
    """Isomorphism respecting label positions (in->in, out->out, same index)."""
    if F1.k != F2.k or F1.l != F2.l:
        return False
    return is_isomorphic_small(
        F1.graph, F2.graph, cap=None,
        pairs=zip(F1.in_labels + F1.out_labels, F2.in_labels + F2.out_labels))


def _bucket_key(F):
    """An invariant of F up to labelled isomorphism: the sizes and
    arities, the pattern of coinciding labels, the degree of each label
    and the edges between labels; and of the whole graph the multiset of
    its vertices' neighbour-degree multisets, and the triangle count.  The
    last two keep the buckets of unlabelled graphs small."""
    g = F.graph
    adj = adjacency_bitmasks(g)
    deg = [a.bit_count() for a in adj]
    neighbour_degrees = [[] for _ in adj]
    for u, v in g.edges:
        neighbour_degrees[u].append(deg[v])
        neighbour_degrees[v].append(deg[u])
    profile = sorted([tuple(sorted(ds)) for ds in neighbour_degrees])
    triangles = sum([(adj[u] & adj[v]).bit_count() for u, v in g.edges])
    labels = F.in_labels + F.out_labels
    first_seen = {}
    pattern = tuple([first_seen.setdefault(v, len(first_seen)) for v in labels])
    label_edges = tuple([(p, q) for p, q in combinations(range(len(labels)), 2)
                         if adj[labels[p]] >> labels[q] & 1])
    return (g.n, g.m, F.k, F.l, pattern, tuple([deg[v] for v in labels]),
            label_edges, tuple(profile), triangles)


class LabelledSet:
    """The labelled graphs added, one per labelled isomorphism class, in
    the order first added; the one dedup of the package.  An unlabelled
    graph is a 0-labelled one, so the graph enumerations keep one graph
    per isomorphism class here too.  A candidate is compared, by
    ``labelled_isomorphic``, only with the members of its ``_bucket_key``
    bucket."""

    def __init__(self):
        self.buckets = {}
        self.items = []

    def add(self, F, payload=None):
        """Insert unless an isomorphic member exists; return True if new."""
        key = _bucket_key(F)
        bucket = self.buckets.setdefault(key, [])
        for other in bucket:
            if labelled_isomorphic(F, other):
                return False
        bucket.append(F)
        self.items.append((F, payload))
        return True


# === Enumeration: treewidth and pathwidth classes ===


@dataclass(frozen=True)
class TwRecord:
    term: object
    value: LabelledGraph


def _a_closure(records, k):
    """Close a batch of (term, value) pairs under single A applications."""
    out = LabelledSet()
    for term, value in records:
        out.add(value, term)
    frontier = list(records)
    while frontier:
        term, value = frontier.pop()
        for i, j in combinations(range(1, k + 1), 2):
            t2 = TApplyA(i, j, term)
            v2 = val_apply_a(value, i, j)
            if out.add(v2, t2):
                frontier.append((t2, v2))
    return [(payload, f) for f, payload in out.items]


def val_apply_a(F, i, j):
    u, v = F.in_labels[i - 1], F.in_labels[j - 1]
    edges = set(F.graph.edges)
    edges.add((min(u, v), max(u, v)))
    return LabelledGraph(Graph(F.graph.n, tuple(sorted(edges))), F.in_labels)


def val_apply_j(F, i):
    fresh = F.graph.n
    g = Graph(fresh + 1, F.graph.edges)
    ins = tuple(fresh if p == i - 1 else F.in_labels[p] for p in range(F.k))
    return LabelledGraph(g, ins)


def enumerate_tw(k, d, max_vertices):
    """Members of the depth-d treewidth-(k-1) class, up to max_vertices.

    Levelwise: level 1 is the set of edge-closures of the all-ones graph;
    level d+1 adds, for every nonempty L subseteq [k] and level-d members
    F_l, the edge-closures of glue_{l in L} J^l(F_l).  Distinct dropped
    labels per glue factor mirror the out-degree-bounded decomposition and
    give the sharp size bound max{k^d, d}.

    Returns TwRecords (term, labelled value) in the order first seen,
    deduplicated by labelled isomorphism.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    if max_vertices < k:
        return []

    seen = LabelledSet()
    records = []

    def admit(batch):
        fresh = []
        for term, value in batch:
            if value.graph.n <= max_vertices and seen.add(value, None):
                rec = TwRecord(term, value)
                records.append(rec)
                fresh.append(rec)
        return fresh

    base = _a_closure([(TOne(k), one_labelled(k))], k)
    admit(base)
    current = [(r.term, r.value) for r in records]

    for _ in range(2, d + 1):
        produced = LabelledSet()
        by_size = sorted(current, key=lambda tf: tf[1].graph.n)
        if not by_size:
            break
        min_size = by_size[0][1].graph.n
        labels = list(range(1, k + 1))
        for count in range(1, k + 1):
            for chosen in combinations(labels, count):
                # glued vertex count: sum(n_l + 1) - (count-1)*k, so the
                # member sizes must sum to at most this budget
                budget = max_vertices + (count - 1) * k - count

                def assemble(slot, used, parts):
                    if slot == count:
                        term = None
                        value = None
                        for lab, (t, f) in zip(chosen, parts):
                            jt = TApplyJ(lab, t)
                            jv = val_apply_j(f, lab)
                            if term is None:
                                term, value = jt, jv
                            else:
                                term = TGlue(term, jt)
                                value = glue(value, jv)
                        produced.add(value, term)
                        return
                    remaining = count - slot - 1
                    for t, f in by_size:
                        n = f.graph.n
                        if used + n + remaining * min_size > budget:
                            break  # by_size is sorted; nothing later fits
                        assemble(slot + 1, used + n, parts + [(t, f)])

                assemble(0, 0, [])
        closed = _a_closure(
            [(payload, f) for f, payload in produced.items], k
        )
        fresh = admit(closed)
        current = [(r.term, r.value) for r in records]
        if not fresh:
            break  # cumulative rule: an empty level is a fixed point
    return records


# === Atomic graphs and the Lasserre values ===


def _set_partitions(n):
    """All set partitions of range(n) as restricted growth strings, in
    lexicographic order."""
    if n == 0:
        yield []
        return
    rgs = [0] * n
    while True:
        yield list(rgs)
        # the last entry that can grow: at most the maximum before it
        for i in range(n - 1, 0, -1):
            if rgs[i] <= max(rgs[:i]):
                break
        else:
            return
        rgs[i] += 1
        rgs[i + 1:] = [0] * (n - 1 - i)


def enumerate_atomic(t):
    """All atomic (t,t)-bilabelled graphs: a set partition of the 2t label
    slots (quotient = vertex set) plus any edge set on the quotient.

    Two atomics are bilabelled-isomorphic iff they share the partition and
    edge set, so no dedup pass is needed.  t <= 2 keeps this tractable.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > 2:
        raise ValueError("enumerate_atomic supports t <= 2")
    out = []
    for rgs in _set_partitions(2 * t):
        blocks = max(rgs) + 1
        ins = tuple(rgs[:t])
        outs = tuple(rgs[t:])
        for edge_set in range(1 << (blocks * (blocks - 1) // 2)):
            edges = []
            for idx, (a, b) in enumerate(combinations(range(blocks), 2)):
                if (edge_set >> idx) & 1:
                    edges.append((a, b))
            out.append(LabelledGraph(Graph.from_edges(blocks, edges), ins, outs))
    return out


def enumerate_lasserre_values(t, depth, max_vertices):
    """Bilabelled values of the level-t hierarchy up to the given series
    depth and size, deduplicated by bilabelled isomorphism, in the order
    found; values that would need a loop are skipped.

    Depth-1 values are the atomics.  Glue with an atomic and label
    permutations keep the depth and never add vertices, so each depth
    class saturates under them; a series composition of values of depths
    d1 and d2 has depth max(d1, d2) + 1.
    """
    atomics = enumerate_atomic(t)
    perms = tuple(permutations(range(2 * t)))
    seen = LabelledSet()
    values, depths = [], []

    def saturate(batch, dep):
        """Close under glue-with-atomic and permutations at fixed depth."""
        fresh = []

        def admit(value):
            if seen.add(value, None):
                values.append(value)
                depths.append(dep)
                fresh.append(value)

        for value in batch:
            if value.graph.n <= max_vertices:
                admit(value)
        idx = 0
        while idx < len(fresh):
            value = fresh[idx]
            idx += 1
            for a in atomics:
                try:
                    glued = glue(a, value)
                except LoopCreated:
                    continue
                admit(glued)
            for sigma in perms:
                admit(permute_labels(value, sigma))

    saturate(atomics, 1)
    for dep in range(2, depth + 1):
        lower = list(zip(values, depths))
        batch = []
        for v1, d1 in lower:
            for v2, d2 in lower:
                # the t label unions merge at most t vertices away, so a
                # pair this large composes only to values over the cap
                if (max(d1, d2) + 1 != dep
                        or v1.graph.n + v2.graph.n - t > max_vertices):
                    continue
                try:
                    v = series(v1, v2)
                except LoopCreated:
                    continue
                if v.graph.n <= max_vertices:
                    batch.append(v)
        saturate(batch, dep)
    return values


def enumerate_lasserre(t, depth, max_vertices):
    """Underlying unlabelled graphs of the enumerated level-t values."""
    return {soe(v) for v in enumerate_lasserre_values(t, depth, max_vertices)}
