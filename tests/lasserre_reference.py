"""The linear Lasserre closure: Gaussian elimination over F_p, the
reference that the partition refinement of ``lasserre_mod`` is gated
against.

It spans the stacked matrices M_G (+) M_H of the level-t class from the
atomic pairs, on ``MatrixOps`` kernels through ``engine._closure`` (looked
up when called, so that ``conftest.closure_runs`` sees its bases).  A
popped basis element M yields its candidates as three blocks: the Schur
products with every atomic (one broadcast), the axis transpositions (at
t = 2 only: at t = 1 the span is transpose-closed without them, see the
``lasserre`` docstring), and the matrix products with every basis
element X_b in both orders (``products``), one block per slice of at
most ``PRODUCT_ENTRIES`` basis entries, which bounds the temporaries.
"""

import numpy as np

from homind import engine
from homind.engine import _Basis, _concat, _mod_matmul, _prime_verdict, _split
from homind.labelled import enumerate_atomic
from homind.lasserre import MatrixOps

from conftest import readout

# Basis entries multiplied per product block.
PRODUCT_ENTRIES = 1 << 16


def products(ops, block, others):
    """The matrix products block @ X and X @ block for every row X of
    ``others``, interleaved (row 2b is block @ X_b, row 2b+1 is
    X_b @ block), as two matrix products over the side-by-side and the
    stacked X."""
    s, d = ops.side, len(others)
    m = block.reshape(s, s)
    stack = others.reshape(d, s, s)
    left = _mod_matmul(m, stack.transpose(1, 0, 2).reshape(s, d * s), ops.p)
    right = _mod_matmul(stack.reshape(d * s, s), m, ops.p)
    out = np.empty((2 * d, ops.length), dtype=ops.dtype)
    out[0::2] = left.reshape(s, d, s).transpose(1, 0, 2).reshape(d, ops.length)
    out[1::2] = right.reshape(d, ops.length)
    return out


def lasserre_linear(G, H, t, p, stats=None):
    """The single-prime level-t verdict of the whole linear closure, with
    the closure's statistics in ``stats``.  The closure runs with no
    accepting bucket, so no readout stops it, and its one bucket is read
    out at the end."""
    og, oh = MatrixOps(G, t, p), MatrixOps(H, t, p)
    split = og.length
    basis = _Basis(p, og.length + oh.length)
    atomic = enumerate_atomic(t)
    atoms_g = np.array([og.atomic_tensor(a) for a in atomic])
    atoms_h = np.array([oh.atomic_tensor(a) for a in atomic])
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
        step = max(1, PRODUCT_ENTRIES // mat.shape[1])
        for s in range(0, len(mat), step):
            part = mat[s:s + step]
            yield 0, np.concatenate(
                (products(og, g, part[:, :split]), products(oh, h, part[:, split:])),
                axis=1)

    seeds = [(0, np.concatenate((atoms_g, atoms_h), axis=1))]
    engine._closure([basis], seeds, expand, [], og, oh, stats)
    return _prime_verdict(p, readout([basis], [0], split, p))
