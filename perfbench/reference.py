"""A fixed reference kernel that tells how fast the host runs right now.

On a shared virtual machine the same work runs up to ~1.8x slower for
seconds to minutes at a time, while the process keeps its CPU (CPU time
equals wall time, no steal). The benchmark times this kernel every 50 ms
while it decides, and scales its wall times by ``NOMINAL_S / mean kernel
time``, so they read as seconds at the speed the host ran the kernel at
when the bounds were set. The kernel never calls homind, so a change to
the program cannot move it. It has the shape of the deciders' hot paths:
an incremental echelon basis of uint64 vectors mod p (gather, split
16-bit products, outer-product elimination, vstack) and a plain
interpreter loop, each about half of its time.
"""

import time

import numpy as np

P = 2**31 - 1
_PU = np.uint64(P)
_VECTORS = np.random.default_rng(0).integers(0, P, size=(16, 128),
                                             dtype=np.uint64)
_MAX_ROWS = 12

# about the mean time_once() inside benchmark passes on the host the
# bounds were set on (2-vCPU Xeon VM); only a unit, never tuned per run
NOMINAL_S = 0.001


def _echelon():
    mat, pivots = None, []
    for v in _VECTORS:
        if pivots:
            c = v[np.array(pivots)]
            hi = (c >> np.uint64(16)) @ mat
            lo = (c & np.uint64(0xFFFF)) @ mat
            v = (v + (_PU - (((hi % _PU) << np.uint64(16)) + lo % _PU) % _PU)) % _PU
        if len(pivots) == _MAX_ROWS:
            continue
        piv = int(np.nonzero(v)[0][0])
        v = (v * pow(int(v[piv]), -1, P)) % _PU
        if mat is None:
            mat = v.reshape(1, -1).copy()
        else:
            col = mat[:, piv]
            mat = (mat + (_PU - (col[:, None] * v[None, :]) % _PU)) % _PU
            mat = np.vstack([mat, v])
        pivots.append(piv)


def _interpreter():
    s = 0
    for i in range(6000):
        s = (s * 31 + i) % 1000003
    return s


def time_once():
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _echelon()
    _interpreter()
    return time.perf_counter() - start


time_once()  # warm up: first calls pay for lazy set-up in numpy
