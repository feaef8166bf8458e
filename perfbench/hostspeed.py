"""Reference kernel that measures how fast the host runs right now.

On a shared virtual machine the wall time of the same single-threaded
work drifts by 20-35 % over tens of seconds, and CPU time drifts with it,
so the drift is the host's speed and not contention inside the process.
Timing this fixed kernel right before and after each measured chunk
gives the host's speed at that moment.  The kernel has the same
character as the filter recursion: a Python loop over a 10x3 window with
small matrix products, a triangular mirror and a Cholesky solve.  It
uses numpy and scipy only, never the package under test, so no change
to the package can speed it up or slow it down.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

ITERATIONS = 1000

# Typical kernel duration on a 2-vCPU Intel Xeon VM (Python 3.11, numpy
# 2.4, scipy 1.17), where it ranged over 0.039-0.060 s: the host speed
# that scaled figures refer to.
NOMINAL_S = 0.045


def kernel(iterations: int = ITERATIONS) -> float:
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    d = rng.standard_normal(3)
    w = np.zeros(10)
    acc = 0.0
    for i in range(iterations):
        e = d - X.T @ w
        if abs(e[0]) > 0.1 or i % 3 == 0:
            G = np.triu(X.T @ X)
            G = G + np.triu(G, 1).T
            factor = cho_factor(G + 1e-3 * np.eye(3), lower=True, check_finite=False)
            w = w + 1e-3 * (X @ cho_solve(factor, e, check_finite=False))
        acc += float(w @ w)
    return acc


def time_kernel() -> float:
    """Wall seconds of one kernel pass."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
