"""Deciding homomorphism indistinguishability modulo a prime.

For a k-labelled graph F and a target graph G, the homomorphism tensor
F_G assigns to every tuple x in V(G)^k the number of homomorphisms F -> G
pinning the i-th labelled vertex to x_i.  The three constructors of the
treewidth-bounded algebra act linearly (or bilinearly) on these tensors:

  * adding an edge between labels i and j multiplies entrywise by the
    adjacency indicator [x_i x_j in E(G)]  (BlockOps.apply_a),
  * moving label i to a fresh vertex marginalizes axis i and broadcasts
    the sum back  (BlockOps.apply_j),
  * gluing two labelled graphs multiplies tensors entrywise
    (BlockOps.schur).

The decision procedure walks the span of stacked tensors F_G (+) F_H
inside F_p^{V(G)^k} (+) F_p^{V(H)^k}, bucketed by the class-recogniser
state of F: starting from the all-ones pair at the recogniser's start
state, it closes every bucket under the operator actions (routed through
the recogniser's transition tables) and under pairwise Schur products,
inserting a vector only when it leaves the current span.  A popped
vector's Schur products with a whole bucket come as one block, which
``_closure`` reduces against the bucket's basis with one matrix product
per chunk of rows before it inserts the survivors in order; full
reduction is canonical, so the bases are those of the one-at-a-time
loop.  Dimensions are
bounded by |Q| * (|V(G)|^k + |V(H)|^k), so the closure terminates; the
two graphs admit equal homomorphism counts mod p from every member of
the class with more than k vertices iff every basis vector of every
accepting bucket has equal block sums.  Graphs on at most k vertices are
checked by brute force first, following the recogniser's small-members
policy.

A one-state recogniser in the treewidth flavour (the builtin tw-all, or
any one-state automaton file) needs no elimination.  Its span W contains
1 and is closed under Schur products, and every x in W has x^p = x, so W
is spanned by the block indicators of one partition of
V(G)^k (+) V(H)^k: the coarsest on which every A-mask is constant and,
for every block B and label i, J_i(e_B) mod p is constant.  ``_refine``
finds it by refining tuple colours (start from the adjacency pattern of
the tuple; add, per label i, the multiset of colours, counted mod p, on
the axis-i line through the tuple), the oblivious k-WL refinement
(Dvorak 2010; Dell, Grohe and Rattan, ICALP 2018).  A line's multiset is
its sorted row: with axis i moved last, the colours of one graph are an
n^(k-1)-by-n array whose rows are the lines, and ``_row_multisets``
sorts them and numbers the distinct rows.  A colour and a row id become
the next colour as a pair key numbered densely in sorted order
(``_pair_ids``); the key range is a product of two id counts, usually
within a few times the tuple count, so a lookup table over the range
numbers the keys without sorting them (``_dense_ids``).  Each kernel
returns its id count with its ids, so no step reduces an array for its
maximum.

The axis steps run as one Gauss-Seidel sweep (``_stable``): each refines
the latest colours, and a step that splits no class is quiet.  After an
axis-i step every tuple of one axis-i line carries the same new line id
L, so the line's new colours are the pairs (old colour, L), and their
multiset is a function of the old multiset, that is of L, so of the new
colour of any tuple on the line: axis i is stable at once.  The sweep
therefore stops as soon as the other k - 1 axes have run quiet since the
last change (k = 1 stops after its one step), and one more pass of every
axis would split nothing.  Every order of steps ends at the same
coarsest stable partition, so the classes are those of refining round
by round from the colours each round began with.  The dimension
is the number of colours, and the pair is accepted iff every colour
holds as many G-tuples as H-tuples mod p.  Line counts never exceed
max(n_G, n_H), so all primes above that share one partition, the one
refined over the integers; ``lasserre`` refines 2t-tuples alike.

The same partition certifies the accepts of the pathwidth flavour and of
multi-state automata at arity k, at every prime p:

  * every bucket span lies in the tw-all span W_p: it starts from the
    same all-ones seed and uses a subset of the same operators;
  * W_p lies in the span of the partition's block indicators;
  * so if every block is balanced mod p, every vector of W_p has equal G
    and H sums, and every accepting bucket reads out balanced.

Only a pair whose partition is unbalanced at p runs the linear closure
(``_closure``), whether or not the caller asks for statistics.  It reads
out each row as it inserts it into an accepting bucket and rejects at
the first row whose G and H sums differ, the counterexample a forward
closure finds in weighted-automaton equivalence (Tzeng, SIAM J. Comput.
1992).  That is the full closure's reject: the readout is linear, the
rows inserted into a bucket span its final basis, and a row in the span
stays there.

Counts over the integers are decided three ways.  The exact check is
``_closure_verdict`` at p None.  It compares the small members' exact
counts, and checks the partition refined over the integers for balance
over the integers.  For a one-state treewidth recogniser these decide:
they give the verdict at every prime above n^k, so at every prime a
certified draw can return (proof in ``_closure_verdict``), and the
deterministic wrapper decides such a class by this check alone.  For the
pathwidth flavour and multi-state automata a small-stage witness is an
exact reject and a balanced integer partition an exact accept: the
certificate above holds over Q, since the block indicators of the
integer partition span a space that contains 1 and is closed under the
A-masks, the J_i and Schur products.  The randomized wrapper asks this
check first, and only the pairs it leaves open draw primes, uniform ones
from a range wide enough that five independent draws catch disagreeing
counts except with probability 2^-trials, if every draw is prime
(one-sided error: equal counts are never rejected).  A deterministic
mode (pathwidth flavour) relies on the Chinese remainder theorem: any
set of primes whose product exceeds the largest possible count detects
any disagreement.  It decides the smallest such set, 2, 3, 5, ... (269
primes for the builtin paths at n = 6), in order up to the first that
rejects, and prints exactly the primes it decided.  Every prime above
max(n_G, n_H) reuses one tw-all partition, and each smaller prime
refines its own.  The randomized wrapper hands its primes to the same
loop (``_first_reject``).

Tensors and basis rows are numpy arrays whose dtype follows from the
modulus alone (``_residue_dtype``): uint64 when p < 2^32, so the product
of two residues stays exact, and object (Python integers) otherwise.
Matrix products mod p of a 2-D uint64 block run as float64 BLAS products,
exact on 16-bit halves of the residues (``_mod_matmul``).
Primality is checked once, where a caller supplies the modulus
(``modhomind``, ``modhomind_pw``); the randomized and CRT wrappers run
the closure directly on primes their samplers have already proved.
"""

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, cycle

import numpy as np

from .graphs import DEFAULT_WORK_BUDGET, Graph, compact_graph, hom_count
from .labelled import fold_term
from .modular import (
    BoundOverflow,
    Xoshiro256StarStar,
    bound_pw,
    bound_tw,
    certified_prime_count,
    is_prime,
    sample_prime_in_range,
    sample_prime_with_bits,
    smallest_primes_with_product_exceeding,
    trial_count,
)
from .oracle import enumerate_graphs_up_to
from .recognizer import Automaton


def _residue_dtype(p):
    """Array dtype for residues mod p: uint64 while the product of two
    residues fits (p < 2^32), Python integers (object) above."""
    return np.uint64 if p < 1 << 32 else object


def _require_prime(p):
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


@dataclass
class Verdict:
    """Outcome of a homomorphism-indistinguishability decision."""

    accept: bool
    mode: str  # "single-prime" | "exact" | "randomized" | "deterministic-crt"
    primes_used: list
    rejecting_prime: object = None
    small_stage_witness: object = None
    notes: str = ""

    def __bool__(self):
        return self.accept


def _adjacency(g):
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    return adj


class BlockOps:
    """Operator kernels for tensors over V(G)^k, stored as flat vectors
    of length n^k with row-major index x = sum x_t * n^(k-t).  The kernels
    act on the last axis, so a block may stack vectors along leading axes."""

    def __init__(self, g: Graph, k: int, p: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.n = g.n
        self.k = k
        self.p = p
        self.length = g.n**k
        self.dtype = _residue_dtype(p)
        self._adj = _adjacency(g).astype(self.dtype)
        self._masks = {}

    # -- vector constructors ------------------------------------------------

    def ones(self):
        return np.ones(self.length, dtype=self.dtype)

    # -- index helpers ------------------------------------------------------

    def _coordinate(self, i):
        """x_i of every flat index, as an array."""
        idx = np.arange(self.length)
        return (idx // self.n ** (self.k - i)) % self.n

    def _a_mask(self, i, j):
        key = (i, j)
        if key not in self._masks:
            self._masks[key] = self._adj[self._coordinate(i), self._coordinate(j)]
        return self._masks[key]

    # -- operator kernels ---------------------------------------------------

    def apply_a(self, block, i, j):
        """Entrywise product with the adjacency indicator of positions i, j."""
        if not (1 <= i < j <= self.k):
            raise ValueError(f"A labels must satisfy 1 <= i < j <= {self.k}")
        return block * self._a_mask(i, j)  # 0/1 mask: stays reduced

    def apply_j(self, block, i):
        """Marginalize axis i and broadcast the sum back along it."""
        if not (1 <= i <= self.k):
            raise ValueError(f"J label must satisfy 1 <= i <= {self.k}")
        lead = block.shape[:-1]
        shape = lead + (self.n,) * self.k
        sums = block.reshape(shape).sum(axis=len(lead) + i - 1, keepdims=True)
        sums %= self.p
        out = np.empty(shape, dtype=self.dtype)
        out[...] = sums
        return out.reshape(block.shape)

    def schur(self, b1, b2):
        return (b1 * b2) % self.p

    def total(self, block):
        """Sum of entries mod p (the label-dropping readout), one per
        vector of a block.  uint64 sums are exact: entries are below 2^32 and
        a row that fits in memory has fewer than 2^32 of them."""
        return block.sum(axis=-1) % self.p


def term_block(ops: BlockOps, term):
    """Tensor of a glue/A/J term over one target graph, built purely from
    the operator kernels (no homomorphism counting)."""

    def ones(k):
        if k != ops.k:
            raise ValueError(f"term arity {k} != kernel arity {ops.k}")
        return ops.ones()

    return fold_term(term, ones, ops.schur, ops.apply_a, ops.apply_j)


# === Echelon bases over F_p ===

_S16, _M16 = np.uint64(16), np.uint64(0xFFFF)
_U64_TERMS = 1 << 16  # summed products per exact accumulation


def _float_halves(m):
    """The 16-bit halves of a uint64 array as float64, and their sum."""
    hi, lo = (m >> _S16).astype(np.float64), (m & _M16).astype(np.float64)
    return hi, lo, hi + lo


def _mod_matmul(a, b, p, b_halves=None):
    """(a @ b) mod p for residue arrays: a 1-D or 2-D, b 2-D.

    object arrays multiply exactly.  For uint64 residues (p < 2^32),
    contractions longer than 2^16 terms are summed in chunks of 2^16,
    reducing mod p in between, and each chunk is exact:

      * a 1-D a (a vector-matrix product) stays in uint64: a's halves times b give products below 2^48, and a sum of
        up to 2^16 of them stays below 2^64;
      * a 2-D a runs as three float64 BLAS products on the 16-bit halves
        of both operands: hh = a_hi b_hi, ll = a_lo b_lo and
        (a_hi + a_lo)(b_hi + b_lo) = hh + (hl + lh) + ll.  The halves
        are below 2^16 and their sums below 2^17, so every product term
        is below 2^34 and a sum of 2^16 terms below 2^50 < 2^53, which
        float64 holds exactly.  The residue is then assembled as
        r = ((hh mod p) * 2^16 + hl + lh) mod p and (r * 2^16 + ll) mod p,
        with every intermediate below 2^50.

    ``b_halves``, when given, is ``_float_halves(b)``, kept by a caller
    that multiplies the same b many times.
    """
    if a.dtype == object:
        return (a @ b) % p
    n = _U64_TERMS
    if a.shape[-1] > n:
        head = tail = None
        if b_halves is not None:
            head, tail = [x[:n] for x in b_halves], [x[n:] for x in b_halves]
        return (_mod_matmul(a[..., :n], b[:n], p, head)
                + _mod_matmul(a[..., n:], b[n:], p, tail)) % p
    if a.ndim == 1:
        hi = ((a >> _S16) @ b) % p
        lo = ((a & _M16) @ b) % p
        return ((hi << _S16) + lo) % p
    a_hi, a_lo, a_sum = _float_halves(a)
    b_hi, b_lo, b_sum = _float_halves(b) if b_halves is None else b_halves
    hh, ll = a_hi @ b_hi, a_lo @ b_lo
    mid = a_sum @ b_sum - hh - ll
    out = np.fmod(np.fmod(hh, p) * 65536 + mid, p)
    return np.fmod(out * 65536 + ll, p).astype(np.uint64)


_CHUNK_ROWS = 32  # candidate rows reduced against a basis per matrix product


class _Basis:
    """Reduced echelon basis of flat vectors, incrementally maintained:
    rows are normalized to leading coefficient 1 and fully reduced against
    each other.  Full reduction makes every pivot column a unit vector, so
    span membership is a single coefficient gather plus one matrix-vector
    elimination."""

    def __init__(self, p, length):
        self.p = p
        self.pivots = []
        self._pivot_idx = None
        self._mat = np.empty((0, length), dtype=_residue_dtype(p))
        self._halves = None  # _float_halves(_mat), built on demand

    def __len__(self):
        return len(self.pivots)

    @property
    def matrix(self):
        """The basis rows as one (rows, length) array; no rows while empty."""
        return self._mat

    def reduce(self, v):
        """v reduced against the basis: one vector, or every row of a 2-D
        block with one matrix product over the rows that meet a pivot
        column (the others are reduced already)."""
        if not self.pivots:
            return v
        p = self.p
        if v.ndim == 1:
            c = v[self._pivot_idx]
            if not c.any():
                return v
            return (v + (p - _mod_matmul(c, self._mat, p))) % p
        c = v[:, self._pivot_idx]
        live = (c != 0).any(axis=1)  # bool for object arrays too
        if not live.any():
            return v
        if self._halves is None and self._mat.dtype != object:
            self._halves = _float_halves(self._mat)
        out = v.copy()
        prod = _mod_matmul(c[live], self._mat, p, self._halves)
        out[live] = (v[live] + (p - prod)) % p
        return out

    def survivors(self, block):
        """The rows of a 2-D candidate block left nonzero by reduction
        against the basis, reduced ``_CHUNK_ROWS`` rows at a time, so rows
        inserted from one chunk already reduce the next."""
        for start in range(0, len(block), _CHUNK_ROWS):
            chunk = block[start:start + _CHUNK_ROWS]
            if len(chunk) > 1:
                chunk = self.reduce(chunk)
                chunk = chunk[(chunk != 0).any(axis=1)]
            yield from chunk

    def _pivot(self, v):
        """The pivot column of a reduced vector, or None if it is zero."""
        nz = np.nonzero(v)[0]
        return int(nz[0]) if len(nz) else None

    def try_insert(self, v):
        """Reduce v against the basis; insert and return the reduced row
        if independent, else return None.  The row returned is its own
        array: a view of the basis matrix would keep every superseded
        matrix alive for as long as the row sits in a worklist."""
        p = self.p
        v = self.reduce(v)
        piv = self._pivot(v)
        if piv is None:
            return None
        v = (v * pow(int(v[piv]), -1, p)) % p
        col = self._mat[:, piv]
        mat = np.concatenate((self._mat, v[None, :]))
        if col.any():
            # outer-product elimination in the new matrix, whose old rows
            # are a copy: single products stay < p^2, sums < 2p
            step = col[:, None] * v[None, :]
            step %= p
            np.subtract(p, step, out=step)
            rows = mat[:-1]
            rows += step
            rows %= p
        self._mat = mat
        self._halves = None
        self.pivots.append(piv)
        self._pivot_idx = np.array(self.pivots)
        return v


def _concat(block_g, block_h):
    """The stacked vector F_G (+) F_H."""
    return np.concatenate((block_g, block_h), axis=-1)


def _split(vec, length_g):
    """The G and H blocks of a stacked vector, or of every vector of a
    block along the last axis (views, not copies)."""
    return vec[..., :length_g], vec[..., length_g:]


def _closure(bases, seeds, expand, accepting, ops_g, ops_h, stats=None):
    """Worklist closure shared by the pw and multi-state tw deciders (and
    the tests' reference Lasserre closure).

    ``bases`` holds one echelon basis per recogniser state, ``seeds`` the
    (state, candidates) pairs to start from, and ``expand(state, row)``
    yields the (target state, candidates) pairs a popped basis row
    generates, where candidates is one stacked vector or a 2-D block of
    them, one per row.  A block is reduced against its bucket's basis
    ``_CHUNK_ROWS`` rows at a time, with one matrix product per chunk, and
    only the rows left nonzero go on to ``try_insert``, in order.  Full
    reduction against a reduced echelon basis is canonical, so the bases,
    and the rows inserted and queued, are those of offering the rows one
    at a time.

    Returns whether every row of every accepting bucket has equal G and H
    block sums.  Each row is read out as it is inserted into an accepting
    bucket, and the closure stops at the first row that reads unequal.
    That is the full closure's verdict: a bucket's inserted rows span its
    basis at every step (each is the reduced candidate, and the basis rows
    are combinations of them), so they span its final basis, and the
    readout, the G sum minus the H sum mod p, is linear.  It vanishes on
    every final basis row iff it vanishes on every inserted row, and a row
    that reads unequal when it is inserted stays in the span the full
    closure ends with.  ``stats`` receives the closure as it ran: the rows
    inserted up to the stop, and the candidates offered.
    """
    worklist = []  # (state, reduced row vector), one per inserted row
    candidates = 0

    def inserted():
        """Offer the seeds, then the expansions of each row in the order
        it was inserted, to their buckets; yield every row inserted."""
        nonlocal candidates
        pairs, head = seeds, 0
        while True:
            for q, block in pairs:
                basis = bases[q]
                if block.ndim == 1:
                    candidates += 1
                    rows = (block,)
                else:
                    candidates += len(block)
                    rows = basis.survivors(block)
                for vec in rows:
                    row = basis.try_insert(vec)
                    if row is not None:
                        worklist.append((q, row))
                        yield q, row
            if head == len(worklist):
                return
            q, row = worklist[head]
            worklist[head] = None  # the basis keeps the row; drop the copy
            head += 1
            pairs = expand(q, row)

    def equal(row):
        g, h = _split(row, ops_g.length)
        return ops_g.total(g) == ops_h.total(h)

    balanced = all(equal(row) for q, row in inserted() if q in accepting)
    if stats is not None:
        stats["dim_total"] = sum(len(b) for b in bases)
        stats["inserts"] = len(worklist)
        stats["candidates"] = candidates
        stats["per_state"] = {q: len(b) for q, b in enumerate(bases)}
    return balanced


# === Algorithm: modular indistinguishability over a recognisable class ===


def _small_counts(G, H, budget):
    """hom(F, G) and hom(F, H) over the integers, counted the first time
    a prime asks about F and then reused by every later prime of the
    decision."""
    return cache(lambda F: (hom_count(F, G, budget=budget),
                            hom_count(F, H, budget=budget)))


def _small_stage(aut, p, counts):
    """Brute-force hom-count comparison mod p (over the integers when p is
    None) for the class members on at most k vertices, from the decision's
    ``_small_counts``; returns a witness graph or None, and a note."""
    if aut.small_members == "none":
        return None, "small stage skipped (policy none): verdict covers only class members on more than k vertices"
    if aut.small_members == "all":
        if aut.k > 7:
            raise ValueError(
                f"small-stage enumeration capped at 7 vertices, automaton arity is {aut.k}"
            )
        candidates = enumerate_graphs_up_to(aut.k)
    else:
        candidates = aut.small_members
    for F in candidates:
        count_g, count_h = counts(F)
        if p is not None:
            count_g, count_h = count_g % p, count_h % p
        if count_g != count_h:
            return F, ""
    return None, ""


def _linear_closure(G, H, aut, p, include_schur, stats=None):
    """The closure by Gaussian elimination: one echelon basis per
    recogniser state, grown under the operator actions (and pairwise
    Schur products when ``include_schur``); the verdict of ``_closure``."""
    og, oh = BlockOps(G, aut.k, p), BlockOps(H, aut.k, p)
    lg = og.length
    bases = [_Basis(p, lg + oh.length) for _ in range(aut.states)]
    label_js = list(range(1, aut.k + 1))
    label_as = [(i, j) for i in label_js for j in label_js if i < j]

    def expand(q, row):
        g, h = _split(row, lg)
        for i in label_js:
            yield aut.j_state(i, q), _concat(og.apply_j(g, i), oh.apply_j(h, i))
        for i, j in label_as:
            yield aut.a_state(i, j, q), _concat(
                og.apply_a(g, i, j), oh.apply_a(h, i, j))
        if include_schur:
            for r in range(aut.states):
                # Schur products with every row of bucket r
                yield aut.glue_state(q, r), og.schur(row, bases[r].matrix)

    seeds = [(aut.start, _concat(og.ones(), oh.ones()))]
    return _closure(bases, seeds, expand, aut.accepting, og, oh, stats=stats)


# === Partition refinement: the one-state treewidth closure ===


def _dense_ids(keys, span):
    """Dense ids, numbered in sorted order, of the non-negative int64
    ``keys``, all below ``span``, and their count.  Where the span is at
    most a few times the key count, a table marks the keys present and its
    running count numbers them, in O(keys + span) with no sort; elsewhere
    they are sorted.  The count is the table's last running count or the
    number of distinct keys, so no caller reduces the ids for a maximum."""
    if span <= 4 * keys.size + 4096:
        present = np.zeros(span, dtype=bool)
        present[keys] = True
        rank = np.cumsum(present, dtype=np.int64)
        count = int(rank[-1]) if span else 0
        rank -= 1
        return rank[keys], count
    unique, ids = np.unique(keys, return_inverse=True)
    return ids.reshape(-1), len(unique)


def _pair_ids(a, b, count_a, count_b):
    """Dense ids, numbered in sorted order, of the pairs (a[t], b[t]) of
    two non-negative int64 arrays whose entries are below ``count_a`` and
    ``count_b``, and their count: the ids of the keys a * count_b + b,
    below count_a * count_b.  The counts are those the ids came with, so
    a step pairs its ids with the colours without a ``max`` over either."""
    return _dense_ids(a * count_b + b, count_a * count_b)


def _row_multisets(rows, modulus):
    """Dense ids of the rows of the C-contiguous int64 array ``rows`` (one
    row per line, padded with -1 to one width) as multisets counted mod
    ``modulus`` (over the integers when None), and their count: equal
    multisets, equal ids.  A line's multiset is its sorted row, so each
    row is sorted in place; mod p each run of equal entries keeps (its
    length mod p) copies and the rest become -1 padding."""
    rows.sort(axis=1)
    if modulus is not None and rows.size:
        flat = rows.reshape(-1)
        new = np.ones(flat.shape, dtype=bool)  # runs break at every row start
        new[1:] = flat[1:] != flat[:-1]
        new[::rows.shape[1]] = True
        starts = np.flatnonzero(new)
        lengths = np.diff(starts, append=flat.size)
        flat[np.arange(flat.size) - np.repeat(starts, lengths)
             >= np.repeat(lengths % modulus, lengths)] = -1
        rows.sort(axis=1)
    # a row as one raw-bytes item (equal rows, equal bytes) sorts several
    # times faster than rows with axis=0
    rows = rows.view(np.dtype((np.void, rows.strides[0]))).reshape(-1)
    unique, ids = np.unique(rows, return_inverse=True)
    return ids.reshape(-1), len(unique)


def _patterns(G, H, k, relation):
    """The colour of every tuple of V(G)^k ⊔ V(H)^k, G's first, in one
    palette: its pattern of ``relation(g)[x_i, x_j]`` over the slot pairs
    i < j, numbered in lexicographic order; and the colour count.

    The pattern is one mixed-radix key, a digit per slot pair with radix
    the largest relation value + 1; the key is renumbered densely before
    it could pass 2^62, so int64 stays exact at any arity."""
    rels = [relation(g) for g in (G, H)]
    radix = max(int(rel.max(initial=0)) for rel in rels) + 1
    keys = np.zeros(G.n**k + H.n**k, dtype=np.int64)
    cubes = [keys[:G.n**k].reshape((G.n,) * k), keys[G.n**k:].reshape((H.n,) * k)]
    span = 1  # every key is below span
    for i, j in combinations(range(k), 2):
        if span * radix > 1 << 62:
            ids, span = _dense_ids(keys, span)
            keys[...] = ids
        span *= radix
        for cube, rel in zip(cubes, rels):
            shape = [1] * k
            shape[i] = shape[j] = len(rel)
            cube *= radix
            cube += rel.reshape(shape)
    return _dense_ids(keys, span)


def _stable(start, size_g):
    """The coarsest refinement of the start colours that no step splits;
    and its class sizes on the first ``size_g`` tuples (G's) and on the
    others.  ``start()`` returns the start colours (dense ids), their
    count and the steps.  ``_stable`` calls it itself, so that nothing
    else holds the start colours once the sweep has replaced them.

    A step is a pair (settles, step).  ``step(colours, count)`` returns an
    id array and its id count, and refining by it numbers the pairs
    (colour, id) with ``_pair_ids``.  The steps run in turn as one
    Gauss-Seidel sweep: each refines the latest colours, not those a round
    began with.  A step that splits no class is quiet, and the colours
    stay as they are (dense colours number their pairs as themselves).  A
    step settles when the colours it makes are stable under it at once, so
    it need not rerun quiet after its own change.

    The stop rule: the sweep ends once every step has run quiet since the
    last change, except the step that made it if that step settles.  Each
    step has then seen the final colours unsplit, or settles on them, so
    one more pass of every step splits nothing.  Every step is monotone:
    refining a finer partition gives a finer one.  So each partition the
    sweep passes through is coarser than the coarsest stable refinement
    of the start, which every step leaves as it is, and the stable
    partition the sweep ends at is that one, whatever the order of the
    steps: the class sizes are those of refining round by round."""
    colours, count, steps = start()
    quiet = 0  # steps in a row, up to the last one run, that need not rerun
    for settles, step in cycle(steps):
        if quiet == len(steps) or not count:  # count 0: there are no tuples
            break
        ids, id_count = step(colours, count)
        refined, refined_count = _pair_ids(colours, ids, count, id_count)
        if refined_count == count:
            quiet += 1
        else:
            colours, count, quiet = refined, refined_count, int(settles)
        del refined  # else a quiet step's copy of the colours lives on
    return colours, (np.bincount(colours[:size_g], minlength=count),
                     np.bincount(colours[size_g:], minlength=count))


def _refine_steps(G, H, k, modulus):
    """The start of ``_refine`` for ``_stable``: the adjacency-pattern
    colours of V(G)^k ⊔ V(H)^k, their count, and the k axis steps.

    The axis-i step refines by the colour multiset of each axis-i line,
    its sorted row (see the module docstring); the row ids broadcast back
    along axis i.  Every step settles (the lemma of the module docstring:
    the tuples of one axis-i line share the new line id, so the line's
    multiset of new colours is a function of it).  The line table and
    each axis's views of it are made once per call; the ids a step returns
    live in one buffer, valid until the next step runs."""
    sides = [(G.n, 0, 0), (H.n, G.n**k, G.n ** (k - 1))]  # order, first tuple, first row
    table = np.empty((G.n ** (k - 1) + H.n ** (k - 1), max(G.n, H.n)), dtype=np.int64)
    out = np.empty(G.n**k + H.n**k, dtype=np.int64)

    def axis_step(i):
        # a side's tuples as (axes before i, axis i, axes after i): its
        # axis-i lines are the rows (before, after), padded past column n
        views = []
        for n, first, row in sides:
            before, after = n**i, n ** (k - 1 - i)
            tuples, lines = slice(first, first + n**k), slice(row, row + before * after)
            views.append((tuples, (before, n, after),
                          table[lines, :n].reshape(before, after, n), table[lines, n:],
                          lines, (before, 1, after), out[tuples].reshape(before, n, after)))

        def step(colours, count):
            for tuples, shape, rows, padding, *_ in views:
                rows[...] = colours[tuples].reshape(shape).transpose(0, 2, 1)
                padding[...] = -1  # the sort moved the padding
            ids, id_count = _row_multisets(table, modulus)
            for *_, lines, line_shape, spread in views:
                spread[...] = ids[lines].reshape(line_shape)
            return out, id_count

        return True, step

    return (*_patterns(G, H, k, _adjacency), [axis_step(i) for i in range(k)])


def _refine(G, H, k, modulus):
    """Colour-class sizes (on G, on H) of the coarsest partition of
    V(G)^k ⊔ V(H)^k on which every A-mask is constant and, for every
    class B and label i, J_i(e_B) counted mod ``modulus`` (over the
    integers when None) is constant.  Its block indicators span the
    one-state treewidth closure: the span contains 1 and is closed under
    Schur products, and every x in it has x^p = x.

    ``_stable`` sweeps the axis steps of ``_refine_steps`` from the
    adjacency patterns; as every step settles, a change at axis i leaves
    only the other k - 1 axes to run quiet (k = 1 stops after one step).
    Colours and ids stay below the tuple count T and the keys of
    ``_pair_ids`` below T^2, and ``_patterns`` renumbers its keys before
    they pass 2^62, so int64 is exact for any input that fits in memory."""
    return _stable(partial(_refine_steps, G, H, k, modulus), G.n**k)[1]


def _refine_modulus(p, largest):
    """The modulus a refinement counts mod at prime p: None (the integers)
    when p is None or exceeds ``largest``, as no count it takes does."""
    return p if p is not None and p <= largest else None


def _partitions(refine, largest):
    """The partition ``refine(modulus)`` at any prime p, or over the
    integers when p is None, once per modulus: no count exceeds
    ``largest``, so all primes above it share modulus None."""
    refine = cache(refine)
    return lambda p: refine(_refine_modulus(p, largest))


def _tw_partitions(G, H, k):
    """The decision's ``_partitions`` of tw-all at arity k."""
    return _partitions(lambda m: _refine(G, H, k, m), max(G.n, H.n))


def _blocks_balanced(sizes_g, sizes_h, p, stats=None):
    """Every colour class holds as many G-tuples as H-tuples, mod p (over
    the integers when p is None); into ``stats`` goes the partition as a
    closure of one block per colour."""
    if stats is not None:
        stats["dim_total"] = stats["inserts"] = stats["candidates"] = len(sizes_g)
        stats["per_state"] = {0: len(sizes_g)}
    diff = np.abs(sizes_g - sizes_h)
    if p is not None and p <= int(diff.max(initial=0)):
        diff %= p
    return not diff.any()


def _prime_verdict(p, accept, note="", witness=None):
    """The single-prime verdict at p, or the exact verdict when p is None:
    an accept carries the small stage's note, a reject its witness (None
    for a closure reject)."""
    mode, primes = ("exact", []) if p is None else ("single-prime", [p])
    if accept:
        return Verdict(True, mode, primes, notes=note)
    return Verdict(False, mode, primes, rejecting_prime=p,
                   small_stage_witness=witness)


def _closure_verdict(G, H, aut, p, include_schur, counts, stats=None,
                     partitions=None):
    """modhomind / modhomind_pw for a modulus already known to be prime,
    and the one exact check for p None; ``counts`` is the decision's
    ``_small_counts`` and ``partitions`` its ``_partitions`` (made here
    when None).

    A one-state treewidth closure is read off the refined partition.  Every
    other closure spans a subspace of its block indicators (see the module
    docstring), so a partition balanced at p certifies an accept, and only
    an uncertified pair runs the linear closure, up to its first unequal
    readout.  ``stats`` describe the decision as it ran: nothing for a
    small-stage reject, the partition, one block per colour, for a verdict
    the partition decides, and otherwise the linear closure up to its stop.

    At p None the integers decide a small-stage witness, a one-state
    treewidth class and a balanced integer partition (the exact verdict of
    ``homind_randomized`` and ``homind_deterministic_crt``, mode "exact"
    with no prime); any other pair returns None, with no linear closure
    run.

    For a one-state treewidth class the exact verdict is that of p at
    every prime p that a certified draw of ``homind_randomized`` can
    return.  Let n = max(n_G, n_H).  Such a p exceeds L >= N >= 2n^k
    (``bound_tw``), so p > n^k >= n, and:

      * a small member F has at most k vertices, so hom(F, G) and hom(F, H)
        lie in [0, n^k]; they are congruent mod p iff they are equal;
      * p > n, so ``_partitions`` refines over the integers at p, and each
        class size lies in [0, n^k]; a difference of sizes vanishes mod p
        iff it vanishes."""
    witness, note = _small_stage(aut, p, counts)
    if witness is not None:
        if stats is not None:
            stats.update(dim_total=0, inserts=0, candidates=0, per_state={})
        return _prime_verdict(p, False, witness=witness)

    partitions = partitions or _tw_partitions(G, H, aut.k)
    balanced = _blocks_balanced(*partitions(p), p, stats)
    if balanced or (include_schur and aut.states == 1):
        accept = balanced or not aut.accepting
    elif p is None:
        return None
    else:
        accept = _linear_closure(G, H, aut, p, include_schur, stats)
    return _prime_verdict(p, accept, note)


def modhomind(G: Graph, H: Graph, aut: Automaton, p: int, *, stats=None,
              budget=DEFAULT_WORK_BUDGET) -> Verdict:
    """Decide whether G and H admit equal homomorphism counts mod p from
    every member of the class recognised by ``aut`` (treewidth flavour:
    closure includes pairwise Schur products).  Passing ``stats`` fills in
    the statistics of the decision as it ran (see ``_closure_verdict``)."""
    _require_prime(p)
    return _closure_verdict(
        G, H, aut, p, True, _small_counts(G, H, budget), stats=stats)


def modhomind_pw(G: Graph, H: Graph, aut: Automaton, p: int, *, stats=None,
                 budget=DEFAULT_WORK_BUDGET) -> Verdict:
    """Pathwidth flavour of modhomind: the gluing operation is dropped
    from the closure (series-only generation), which is exactly the
    difference between path and tree decompositions.  Passing ``stats``
    fills in the statistics of the decision as it ran."""
    _require_prime(p)
    return _closure_verdict(
        G, H, aut, p, False, _small_counts(G, H, budget), stats=stats)


# === Randomized and deterministic integer-level wrappers ===


_PRIME_BITS_NOTE = "heuristic: prime-bits mode, error bound not certified"


def _first_reject(primes, decide, mode, notes):
    """Run ``decide(p)`` at each of at least one prime in order and stop at
    the first reject.  The verdict lists the primes decided, the rejecting
    prime and its witness, then the notes of the single-prime verdict that
    settled the outcome (the reject, or the last accept) followed by the
    mode's own ``notes``."""
    primes_used = []
    for p in primes:
        primes_used.append(p)
        sub = decide(p)
        if not sub.accept:
            break
    notes = "; ".join(x for x in (sub.notes, *notes) if x)
    if sub.accept:
        return Verdict(True, mode, primes_used, notes=notes)
    return Verdict(False, mode, primes_used, rejecting_prime=primes_used[-1],
                   small_stage_witness=sub.small_stage_witness, notes=notes)


def homind_randomized(G: Graph, H: Graph, aut: Automaton, variant: str = "tw",
                      seed: int = 0, bit_cap=None, budget=DEFAULT_WORK_BUDGET,
                      prime_bits=None) -> Verdict:
    """Decide equal homomorphism counts over the integers from every member
    of the class of ``aut`` (the pathwidth flavour when ``variant`` is
    "pw"): exactly where the integer partition decides, by random primes
    where it cannot.  One-sided error: equal counts are always accepted.

    The decision asks the exact check, ``_closure_verdict`` at p None,
    first: a one-state treewidth class, a small-stage witness over the
    integers and a tw-all partition at arity k balanced over the integers
    are decided exactly (module docstring).  Such a verdict has mode
    "exact", lists no prime and computes no bound, so seed, bit_cap and
    prime_bits do not matter there.

    Only an uncertified pair draws primes, from one generator per decision,
    ``Xoshiro256StarStar(seed)``, so the primes are a pure function of the
    seed.  Each is a uniform prime from (L, L^2] for the class bound L
    (``bound_tw`` or ``bound_pw``), found by rejection sampling
    (``sample_prime_in_range``, which raises RuntimeError rather than
    return a composite).  The decision takes m =
    ``certified_prime_count(L, trials)`` primes in draw order, draws each
    when the loop reaches it, and stops at the first reject; a prime drawn
    twice is decided once.

    The error bound.  Say the counts differ.  By the size bound (module
    ``modular``) they differ on a member F whose counts are at most
    n^N <= 2^L, so D = hom(F, G) - hom(F, H) is nonzero with |D| <= 2^L,
    and the decision at p accepts only if p divides D.  A product of r
    primes above L exceeds L^r, so fewer than L / log2 L primes above L
    divide D.  Rosser and Schoenfeld (Illinois J. Math. 6, 1962, Theorem 1)
    give pi(x) > x / ln x for x >= 17 and pi(x) < 1.25506 x / ln x for
    x > 1, so for L >= 5 the range (L, L^2] holds more than
    L^2 / (2 ln L) - 1.25506 L / ln L = L (L - 2.51012) / (2 ln L) primes.
    A uniform prime from it divides D with probability

        eps < (L / log2 L) * 2 ln L / (L (L - 2.51012)) = 2 ln 2 / (L - 2.51012),

    and m independent ones all divide it with probability eps^m, at most
    2^-trials for trials = ceil(4 log2 L) once m >= trials / log2(1/eps).
    ``certified_prime_count`` returns the least m that its integer test
    proves, which is 5 for every L from 18 on, so at every bound the tests
    reach.  Where the proof does not apply (L < 5) it returns ``trials``.
    The bound assumes that every draw is prime.  ``is_prime`` proves that
    below psi_12 (about 2^78); above it, primality rests on 64 Miller-Rabin
    rounds with bases derived from the candidate, for which no theorem
    gives an error bound (module ``modular``).  A reject is sound at any
    modulus, so only an accept leans on that premise.

    prime_bits switches to the pragmatic mode: trial_count(2^(bits-1))
    uniform primes of that many bits.  Cheap, but the error bound no
    longer applies, so the verdict is flagged.
    """
    if variant not in ("tw", "pw"):
        raise ValueError(f"unknown variant {variant!r}")
    if prime_bits is not None and prime_bits < 5:
        raise ValueError("prime_bits must be at least 5")
    include_schur = variant == "tw"
    counts = _small_counts(G, H, budget)
    partitions = _tw_partitions(G, H, aut.k)
    exact = _closure_verdict(G, H, aut, None, include_schur, counts,
                             partitions=partitions)
    if exact is not None:
        return exact
    rng = Xoshiro256StarStar(seed)
    if prime_bits is not None:
        count = trial_count(1 << (prime_bits - 1))
        draw = lambda: sample_prime_with_bits(prime_bits, rng)
    else:
        bound = bound_tw if include_schur else bound_pw
        try:
            bounds = bound(max(G.n, H.n, 1), aut.k, aut.states, bit_cap=bit_cap)
        except BoundOverflow as exc:
            raise BoundOverflow(
                f"{exc}; rerun with prime_bits for a heuristic decision"
            ) from exc
        count = certified_prime_count(bounds.L, bounds.trials)
        draw = lambda: sample_prime_in_range(bounds.L, rng)
    decide = cache(lambda p: _closure_verdict(G, H, aut, p, include_schur, counts,
                                              partitions=partitions))
    notes = [] if prime_bits is None else [_PRIME_BITS_NOTE]
    return _first_reject((draw() for _ in range(count)), decide,
                         "randomized", notes)


def homind_deterministic_crt(G: Graph, H: Graph, aut: Automaton,
                             variant: str = "pw", prime_budget: int = 10000,
                             bit_cap=None, budget=DEFAULT_WORK_BUDGET) -> Verdict:
    """Deterministic decision for the pathwidth flavour: two counts below
    the largest possible homomorphism count (n^N) can only agree modulo
    every prime of a set whose product exceeds n^N if they are equal.

    The smallest such set, 2, 3, 5, ..., is decided in order up to the
    first prime that rejects; the verdict lists the primes decided.  One
    tw-all partition, refined once for every prime above max(n_G, n_H),
    certifies most accepts without a closure.

    A one-state automaton in the treewidth flavour is decided by the exact
    check, ``_closure_verdict`` at p None, with no prime; a treewidth
    automaton with several states has no deterministic mode (its count
    bound is doubly exponential)."""
    if variant == "tw" and aut.states == 1:
        return _closure_verdict(G, H, aut, None, True, _small_counts(G, H, budget))
    if variant != "pw":
        raise ValueError(
            "deterministic CRT mode is defined for the pathwidth variant"
        )
    n = max(G.n, H.n, 1)
    bounds = bound_pw(n, aut.k, aut.states, bit_cap=bit_cap)
    bound = max(n, 2) ** bounds.N
    primes = smallest_primes_with_product_exceeding(bound)
    if len(primes) > prime_budget:
        raise ValueError(
            f"deterministic mode needs {len(primes)} primes, budget is {prime_budget}"
        )
    counts = _small_counts(G, H, budget)
    partitions = _tw_partitions(G, H, aut.k)
    decide = lambda p: _closure_verdict(G, H, aut, p, False, counts,
                                        partitions=partitions)
    return _first_reject(primes, decide, "deterministic-crt", [])


def verdict_pairs(verdict: Verdict):
    """The (key, value) pairs of a verdict in output order: the lines of
    ``format_verdict`` and the command-line tools' JSON object."""
    pairs = [("verdict", "accept" if verdict.accept else "reject"),
             ("mode", verdict.mode)]
    pairs += [("prime", p) for p in verdict.primes_used]
    if verdict.rejecting_prime is not None:
        pairs.append(("rejecting_prime", verdict.rejecting_prime))
    witness = verdict.small_stage_witness
    pairs.append(("witness", "none" if witness is None else compact_graph(witness)))
    if verdict.notes:
        pairs.append(("note", verdict.notes))
    return pairs


def format_verdict(verdict: Verdict):
    """The key=value lines the command-line tools print for a verdict."""
    return "".join(f"{key}={value}\n" for key, value in verdict_pairs(verdict))
