"""Modular homomorphism indistinguishability over the level-t
matrix-algebra hierarchy.

A (t,t)-bilabelled graph has t "row" and t "column" label vertices; its
homomorphism tensor in a target G is an n^t-by-n^t matrix whose (x, y)
entry counts homomorphisms pinning the row labels to x and the column
labels to y.  Gluing is the entrywise (Schur) product of matrices,
series composition is the matrix product, and relabelling permutes the
2t tensor axes.  The level-t class consists of the unlabelled graphs
obtained by generating from the atomic bilabelled graphs (a partition of
the 2t label slots plus any edge set on the quotient — every vertex
labelled) under those three operations and erasing labels at the end.

The decision procedure mirrors the treewidth engine: it spans stacked
matrix pairs M_G (+) M_H inside F_p^{n_G^{2t}} (+) F_p^{n_H^{2t}},
starting from all atomic pairs and closing under Schur products with
atomics, pairwise matrix products in both orders, and, at t = 2, the
axis transpositions (which generate all label permutations).  At t = 1
the span is closed under the one transposition, the matrix transpose T,
without it: the atomics I, J and A are symmetric, A∘T(X) = T(A∘X) and
T(X)T(Y) = T(YX), so T maps the closure onto a space that holds the
atomics and is closed under the same operations, which contains the
closure and has its dimension.  The span has
dimension at most n_G^{2t} + n_H^{2t}, so the closure terminates, and
the graphs agree on homomorphism counts mod p from every class member
iff every basis element has equal block entry sums (the all-ones
bilinear form 1^T M 1 erases the labels).

The closure is the treewidth engine's worklist loop with a single state,
on the same arrays and kernels: a matrix is a ``BlockOps`` tensor of
arity 2t (``MatrixOps`` adds the matrix products and axis transpositions),
stored as uint64 when p < 2^32 and as object (Python integers)
otherwise.  A popped basis element M yields its candidates as three
blocks: the Schur products with every atomic (one broadcast), the
transpositions (at t = 2), and the products with every basis element
X_b in both orders (``MatrixOps.products``: two matrix products, over
the basis matrices side by side and stacked, interleaved back into the
order M X_1, X_1 M, M X_2, X_2 M, ...; a large basis is cut into slices
of at most ``_PRODUCT_ENTRIES`` entries, one block each, which bounds
the temporaries).  The closure reduces each block against the basis with one
matrix product per chunk of rows.  ``lasserre_mod``
checks that a caller-supplied modulus is prime; the randomized wrapper,
which lifts the modular verdicts to exact counts as the treewidth engine
does with the level-t bound driving the prime range, runs the closure
directly on primes its sampler has proved.
"""

import numpy as np

from .engine import (
    BlockOps,
    Verdict,
    _Basis,
    _closure,
    _concat,
    _mod_matmul,
    _randomized_verdict,
    _require_prime,
    _split,
)
from .graphs import Graph
from .labelled import enumerate_atomic
from .modular import bound_lasserre


class MatrixOps(BlockOps):
    """Kernels for n^t-by-n^t matrices over one target graph: ``BlockOps``
    tensors of arity 2t (row axes first, then column axes), which bring
    the Schur product and the readout 1^T M 1, plus the matrix products
    and the axis transpositions."""

    def __init__(self, g: Graph, t: int, p: int):
        if t < 1:
            raise ValueError("t must be >= 1")
        super().__init__(g, 2 * t, p)
        self.t = t
        self.side = g.n**t
        self._shape = (g.n,) * (2 * t)

    def atomic_tensor(self, atomic):
        """0/1 tensor of an atomic bilabelled graph: coincident slots force
        equal coordinates, atomic edges force adjacent coordinates."""
        combined = atomic.in_labels + atomic.out_labels
        if len(combined) != self.k or atomic.graph.n != len(set(combined)):
            raise ValueError("not an atomic bilabelled graph for this level")
        out = self.ones()
        axis_of = {}
        for axis, v in enumerate(combined, start=1):
            if v in axis_of:
                equal = self._coordinate(axis_of[v]) == self._coordinate(axis)
                out = self.schur(out, equal.astype(self.dtype))
            else:
                axis_of[v] = axis
        for u, v in atomic.graph.edges:
            out = self.schur(out, self._a_mask(axis_of[u], axis_of[v]))
        return out

    def matmul(self, b1, b2):
        """Matrix product of the n^t-by-n^t views, entries mod p: one
        pair at a time, the reference for ``products``."""
        m1 = b1.reshape(self.side, self.side)
        m2 = b2.reshape(self.side, self.side)
        return _mod_matmul(m1, m2, self.p).reshape(self.length)

    def products(self, block, others):
        """The matrix products block @ X and X @ block for every row X of
        ``others``, interleaved (row 2b is block @ X_b, row 2b+1 is
        X_b @ block), as two matrix products over the side-by-side and the
        stacked X."""
        s, d = self.side, len(others)
        m = block.reshape(s, s)
        stack = others.reshape(d, s, s)
        left = _mod_matmul(m, stack.transpose(1, 0, 2).reshape(s, d * s), self.p)
        right = _mod_matmul(stack.reshape(d * s, s), m, self.p)
        out = np.empty((2 * d, self.length), dtype=self.dtype)
        out[0::2] = left.reshape(s, d, s).transpose(1, 0, 2).reshape(d, self.length)
        out[1::2] = right.reshape(d, self.length)
        return out

    def transpose(self, block, a, b):
        """Swap tensor axes a and b (0-based among the 2t slots)."""
        swapped = np.swapaxes(block.reshape(self._shape), a, b)
        return np.ascontiguousarray(swapped).reshape(self.length)


def _check_level(t):
    if t not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {t}")


# Basis entries multiplied per product block: bounds the block and the
# float64 temporaries of ``_mod_matmul`` whatever the basis size.
_PRODUCT_ENTRIES = 1 << 16


def _lasserre_verdict(G, H, t, p, order_rng=None, stats=None):
    """lasserre_mod for a level and modulus already validated."""
    og, oh = MatrixOps(G, t, p), MatrixOps(H, t, p)
    split = og.length
    basis = _Basis(p, og.length + oh.length)
    atomic = enumerate_atomic(t)
    atoms_g = np.array([og.atomic_tensor(a) for a in atomic])
    atoms_h = np.array([oh.atomic_tensor(a) for a in atomic])
    # none at t = 1: the span is transpose-closed without them (see the
    # module docstring)
    transpositions = [
        (a, b) for a in range(2 * t) for b in range(a + 1, 2 * t)
    ] if t > 1 else []

    def expand(_, row):
        g, h = _split(row, split)
        yield 0, np.concatenate((og.schur(atoms_g, g), oh.schur(atoms_h, h)), axis=1)
        if transpositions:
            yield 0, np.array([_concat(og.transpose(g, a, b), oh.transpose(h, a, b))
                               for a, b in transpositions])
        # products with every basis row in both orders, one block per
        # slice of the basis as it stands now
        mat = basis.matrix
        step = max(1, _PRODUCT_ENTRIES // mat.shape[1])
        for s in range(0, len(mat), step):
            part = mat[s:s + step]
            yield 0, np.concatenate(
                (og.products(g, part[:, :split]), oh.products(h, part[:, split:])),
                axis=1)

    seeds = [(0, np.concatenate((atoms_g, atoms_h), axis=1))]
    if _closure([basis], seeds, expand, [0], og, oh, order_rng, stats):
        return Verdict(True, "single-prime", [p])
    return Verdict(False, "single-prime", [p], rejecting_prime=p)


def lasserre_mod(G: Graph, H: Graph, t: int, p: int, *, order_rng=None,
                 stats=None) -> Verdict:
    """Decide whether G and H admit equal homomorphism counts mod p from
    every member of the level-t class."""
    _check_level(t)
    _require_prime(p)
    return _lasserre_verdict(G, H, t, p, order_rng, stats)


def lasserre_randomized(G: Graph, H: Graph, t: int, seed: int = 0,
                        bit_cap=None, prime_bits=None,
                        parallel: int = 1) -> Verdict:
    """Randomized exact-count decision over the level-t class, sampling
    primes against the level-t count bound (one-sided error), or against
    random fixed-width primes in the flagged heuristic mode."""
    _check_level(t)
    return _randomized_verdict(
        lambda p: _lasserre_verdict(G, H, t, p),
        seed, prime_bits, bit_cap, parallel,
        bound_lasserre, max(G.n, H.n, 1), t,
    )
