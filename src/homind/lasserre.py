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

The decision is about the span W of the stacked matrices M_G (+) M_H of
the class: the atomic pairs, closed under Schur products with atomics,
matrix products and, at t = 2, the axis transpositions.  The graphs agree
on counts mod p from every member iff every element of W has equal block
entry sums (1^T M 1 erases the labels).  At t = 1, W is transpose-closed
without the transposition: the atomics I, J and A are symmetric,
A∘T(X) = T(A∘X) and T(X)T(Y) = T(YX), so T maps W onto a space that holds
the atomics and is closed under the same operations, which contains W and
has its dimension.

``_level_refine`` reads W off a partition of V(G)^{2t} ⊔ V(H)^{2t}, as
``engine._refine`` does for tw-all.  It starts from the atomic types (the
equality and adjacency pattern of a tuple's slots), whose indicators the
0/1 atomics span, and refines the colour of (a, b), a, b in V^t, by its
product signature, the multiset, counted mod p, of the pairs
(col(a, c), col(c, b)) over c in V^t, and at t = 2 by the colours of its
adjacent axis transpositions (0 1), (1 2) and (2 3): the coherent-closure
step of Weisfeiler and Leman (1968), on both graphs jointly.  The three
transpositions give the partition that all six give: they generate S_4,
and a partition stable under two permutations (col(x) = col(y) implies
col(sx) = col(sy)) is stable under their product, so the partitions
stable under the three are those stable under all 24.  Both refinements end at the coarsest
partition finer than the atomic types that is stable under the product
signatures and the permutations, the same one.  A line's multiset is its
sorted row: the n^t pairs of line (a, b), each one int64 key, sorted.
As e_X e_Y (a, b) counts the c with col(a, c) = X and col(c, b) = Y, the
stable partition's block indicators span a space that holds the atomics
and is closed under the class operations, so contains W.  ``dim_total``
is the colour count, and the pair is accepted iff every colour holds as
many G-tuples as H-tuples mod p.

The steps run in ``engine._stable``'s Gauss-Seidel sweep, each on the
latest colours.  A transposition s is stable at once after it refines:
the new colour of x is the pair (col(x), col(sx)), and that of sx the
same pair swapped.  The product step is not: a split moves the colours
of the pairs (col(a, c), col(c, b)) it counts, and so can split its own
classes again.  The sweep therefore stops only once every step, the
product step included, has run quiet since the last change; only a
transposition that made the change need not rerun.

Proof owed: the spaces are equal if W is closed under Schur products of
any two members (the ``engine`` docstring's x^p = x argument then makes W
a stable partition's span), which is not proved: the class multiplies by
atomics only.  The equality is measured: the tests gate the colour count
and verdict against the linear closure of W by Gaussian elimination on
``MatrixOps``, on seeded and structured pairs at both levels.  No product
count exceeds n^t, so every prime above it shares the partition refined
over the integers, and ``lasserre_exact`` decides over the integers,
in random mode too, with no prime drawn.
"""

from functools import partial

import numpy as np

from .engine import (
    BlockOps,
    Verdict,
    _adjacency,
    _blocks_balanced,
    _mod_matmul,
    _partitions,
    _patterns,
    _prime_verdict,
    _require_prime,
    _row_multisets,
    _stable,
)
from .graphs import Graph


class MatrixOps(BlockOps):
    """The operations that generate W on n^t-by-n^t matrices over one graph:
    ``BlockOps`` tensors of arity 2t (row axes, then column axes), with the
    atomic tensors, the matrix product and the axis transpositions."""

    def __init__(self, g: Graph, t: int, p: int):
        super().__init__(g, 2 * t, p)
        self.side = g.n**t

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
        """Matrix product of the n^t-by-n^t views, entries mod p."""
        m1 = b1.reshape(self.side, self.side)
        m2 = b2.reshape(self.side, self.side)
        return _mod_matmul(m1, m2, self.p).reshape(self.length)

    def transpose(self, block, a, b):
        """Swap tensor axes a and b (0-based among the 2t slots)."""
        swapped = np.swapaxes(block.reshape((self.n,) * self.k), a, b)
        return np.ascontiguousarray(swapped).reshape(self.length)


_SLICE_KEYS = 1 << 16  # product keys built at a time, whatever the graph size


def _level_steps(G, H, t, modulus):
    """The start of ``_level_refine`` for ``engine._stable``: the atomic
    types of V(G)^{2t} ⊔ V(H)^{2t} (G's first, each in ``MatrixOps``
    order), their count, and the steps: the product signature, then at
    t = 2 the adjacent transpositions.

    The product signature of (a, b) is the sorted row of its line,
    col(a, c) * count + col(c, b) over c (``_row_multisets``), built a
    slice of rows at a time into one table made once per call.  It does
    not settle, and the transpositions do (module docstring).  With
    n = max(n_G, n_H), colours stay below the tuple count T <= 2 n^(2t)
    and every key, here and in ``_pair_ids``, below T^2 <= 4 n^(4t), so
    int64 is exact up to n = 197 at t = 2 (38,967 at t = 1), far past
    what fits in memory."""
    k = 2 * t
    colours, count = _patterns(
        G, H, k, lambda g: 2 * _adjacency(g) + np.eye(g.n, dtype=np.int64))
    sides = [(G.n, 0), (H.n, G.n**k)]  # (order, first tuple)
    table = np.empty((len(colours), max(G.n, H.n) ** t), dtype=np.int64)

    def products(colours, count):
        """The ids and id count of ``_row_multisets`` over one row per line
        (a, b), G's then H's, padded with -1 to one width:
        col(a, c) * count + col(c, b) over c."""
        for n, start in sides:
            s = n**t
            mat = colours[start:start + s * s].reshape(s, s)
            step = max(1, _SLICE_KEYS // max(1, s * s))
            for a in range(0, s, step):
                keys = mat[a:a + step, None, :] * count + mat.T[None, :, :]
                table[start + a * s:start + (a + len(keys)) * s, :s] = keys.reshape(-1, s)
            table[start:start + s * s, s:] = -1  # the sort moved the padding
        return _row_multisets(table, modulus)

    def transposition(a, b):
        def swapped(colours, count):
            return np.concatenate([
                np.swapaxes(colours[start:start + n**k].reshape((n,) * k), a, b).reshape(-1)
                for n, start in sides]), count
        return True, swapped

    steps = [(False, products)]
    if t > 1:
        steps += [transposition(a, a + 1) for a in range(k - 1)]
    return colours, count, steps


def _level_refine(G, H, t, modulus):
    """The colour of every tuple of V(G)^{2t} ⊔ V(H)^{2t} (G's first, each
    in ``MatrixOps`` order) in the coarsest partition finer than the atomic
    types that is stable under the product signatures, counted mod
    ``modulus`` (over the integers when None), and at t = 2 under the axis
    transpositions, generated by the adjacent ones (module docstring);
    and the class sizes (on G, on H).  ``engine._stable`` sweeps the
    steps of ``_level_steps``.  After a product step splits a class, the
    sweep reruns every step, the product step too, until all run quiet:
    the split moves the colour pairs (col(a, c), col(c, b)) the product
    signature counts, so only a quiet rerun shows it splits nothing."""
    return _stable(partial(_level_steps, G, H, t, modulus), G.n ** (2 * t))


def _level_partitions(G, H, t):
    """The decision's ``_partitions`` at level t."""
    if t not in (1, 2):
        raise ValueError(f"level must be 1 or 2, got {t}")
    return _partitions(lambda modulus: _level_refine(G, H, t, modulus)[1],
                       max(G.n, H.n) ** t)


def lasserre_mod(G: Graph, H: Graph, t: int, p: int, *, stats=None) -> Verdict:
    """Decide whether G and H admit equal homomorphism counts mod p from
    every member of the level-t class."""
    partitions = _level_partitions(G, H, t)
    _require_prime(p)
    return _prime_verdict(p, _blocks_balanced(*partitions(p), p, stats))


def lasserre_exact(G: Graph, H: Graph, t: int, *, stats=None) -> Verdict:
    """Decide equal homomorphism counts over the integers from every member
    of the level-t class: every class of the partition refined over the
    integers holds as many G-tuples as H-tuples.  The verdict lists no
    prime (mode "exact").

    This is the verdict of ``lasserre_mod`` at every prime p that a
    certified draw against ``bound_lasserre`` can return.  Let n =
    max(n_G, n_H).  Such a p exceeds L >= N = 2t * 4^(n^(2t)) > n^(2t) >= n^t,
    so ``_level_partitions`` refines over the integers at p, and each class
    size lies in [0, n^(2t)]: a difference of sizes vanishes mod p iff it
    vanishes."""
    partitions = _level_partitions(G, H, t)
    return _prime_verdict(None, _blocks_balanced(*partitions(None), None, stats))

