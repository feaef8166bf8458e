"""Small dense helpers for the reuse-window normal equations, and the LAPACK they bind.

Everything operates on the (L+1)-sized Gram systems that the projection update and the
energy bookkeeping share.  The Gram inverse is never formed.  Every solve, of one system
or a stack, factors the regularized Gram matrix with LAPACK's ``dpotrf`` and solves with
``dpotrs``, one system at a time, so a system solved in a stack matches it solved alone
to the bit, and the algorithm and its checks apply the same operator.  ``dgesv`` (LU with
row pivoting) serves ``constrained_ls``, so both solution routes run one LAPACK build.
These are scipy's own wrappers from ``scipy.linalg._flapack``, and ``sim``'s AR(1) input
runs ``lfilter``'s loop ``scipy.signal._sigtools._linear_filter``; both compiled modules
are loaded by file, skipping their packages' init.
"""

from __future__ import annotations

import os
from importlib import machinery, util

import numpy as np

from .errors import InvalidInputError, SingularSystemError, in_range

__all__ = ["gram", "solve_spd"]


def _scipy(subpackage: str, name: str, *names: str) -> list:
    """Bind ``names`` from scipy's compiled ``<subpackage>.<name>``, not importing scipy itself."""
    if (scipy := util.find_spec("scipy")) is None:
        raise ImportError("smap needs scipy, which cannot be imported", name="scipy")
    directory = os.path.join(*scipy.submodule_search_locations, subpackage)
    loader = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
    spec = machinery.FileFinder(directory, loader).find_spec(f"scipy.{subpackage}.{name}")
    if spec is None:
        raise ImportError(f"scipy's compiled module {name} is not in {directory}")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [getattr(module, attr) for attr in names]


dgesv, dpotrf, dpotrs = _scipy("linalg", "_flapack", "dgesv", "dpotrf", "dpotrs")
(_linear_filter,) = _scipy("signal", "_sigtools", "_linear_filter")


def gram(X: np.ndarray) -> np.ndarray:
    """Return ``X.T @ X`` for a finite 2-D matrix with at least one column.

    The product is symmetric to the bit as it stands, and the Cholesky
    solve reads only its lower triangle anyway.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise InvalidInputError(
            f"expected a 2-D matrix with at least one column, got shape {X.shape}"
        )
    if not all_finite(X):
        raise InvalidInputError("matrix entries must be finite")
    return X.T @ X


def all_finite(a: np.ndarray) -> bool:
    """True when every entry is finite; one elementwise test, so no sum can warn."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def solve_spd(G: np.ndarray, b: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Solve ``(G + delta*I) y = b`` through a Cholesky factorization.

    Parameters
    ----------
    G : ndarray
        Symmetric positive (semi-)definite matrix.
    b : ndarray
        Right-hand side; a 2-D ``b`` is solved column by column.
    delta : float
        Finite, nonnegative Tikhonov term added to the diagonal before
        factorizing.  With ``delta == 0`` a semidefinite ``G`` raises,
        unless its null rows are trailing zeros with zero right-hand side.

    Returns
    -------
    ndarray
        Solution with the same shape as ``b``.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {G.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != G.shape[0]:
        raise InvalidInputError(
            f"right-hand side shape {b.shape} does not match system size {G.shape[0]}"
        )
    delta = in_range(delta, "delta")
    if delta != 0.0:  # G + delta * np.eye(m), bit for bit, signed zeros included
        G = G + 0.0
        # G + 0.0 is C- or F-contiguous, so this is a view; reshape(-1) copies F order
        G.ravel("K")[:: G.shape[0] + 1] += delta
    y = _cholesky_solve(G, b)
    if y is None:
        raise SingularSystemError(f"Gram system is not positive definite (delta={delta:g})")
    return y


def solve_spd_stack(G: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``G[i] y[i] = b[i]`` for each system of a stack.

    ``G`` has shape ``(R, m, m)``, with any regularization already on its
    diagonal, and ``b`` shape ``(R, m)`` or ``(R, m, c)``.  Returns the
    solutions, shaped like ``b``, and a boolean flag per system that is
    true where ``G[i]`` is not positive definite; ``y[i]`` is zero there,
    and the other systems are solved all the same.  Inputs are not
    validated; ``solve_spd`` is the checked entry point for one system.
    """
    y = np.zeros(b.shape)
    singular = np.zeros(len(G), dtype=bool)
    for i in range(len(G)):
        yi = _cholesky_solve(G[i], b[i])
        if yi is None:
            singular[i] = True
        else:
            y[i] = yi
    return y, singular


def _cholesky_solve(H: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Solve ``H y = b`` by ``dpotrf`` and ``dpotrs``; None if ``H`` is not positive definite.

    A 2-D solution comes back in Fortran order, as from scipy's Cholesky
    helpers, and dot products over its columns round by that layout.

    When the factorization stops at row ``j > 0`` and rows ``j:`` of both
    ``H`` and ``b`` are exactly zero, as the padded lags of an
    unregularized window are, that block is decoupled: the leading
    ``j x j`` system is solved and the rest of ``y`` is zero.
    """
    # lower=1, clean=0 and lower=1, passed by position: f2py parses keywords slowly
    factor, info = dpotrf(H, 1, 0)
    if not info:
        return dpotrs(factor, b, 1)[0]
    j = info - 1  # the first row that failed; LAPACK counts from 1
    lead = None if j < 1 or H[j:].any() or b[j:].any() else _cholesky_solve(H[:j, :j], b[:j])
    if lead is None:
        return None
    y = np.zeros(b.shape, order="F")
    y[:j] = lead
    return y
