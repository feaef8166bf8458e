"""Small dense helpers for the reuse-window normal equations.

Everything operates on the (L+1)-sized Gram systems that the projection
update and the energy bookkeeping share.  The Gram inverse is never
formed explicitly; callers go through the regularized solve so the
algorithm and its checks apply the exact same operator.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrs as potrs

from .errors import InvalidInputError, SingularSystemError

__all__ = ["gram", "solve_spd", "cholesky_stack", "solve_cholesky_stack"]


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
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("matrix entries must be finite")
    return X.T @ X


def solve_spd(G: np.ndarray, b: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Solve ``(G + delta*I) y = b`` through a Cholesky factorization.

    Parameters
    ----------
    G : ndarray
        Symmetric positive (semi-)definite matrix.
    b : ndarray
        Right-hand side; a 2-D ``b`` is solved column by column.
    delta : float
        Nonnegative Tikhonov term added to the diagonal before
        factorizing.  With ``delta == 0`` a semidefinite ``G`` raises.

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
    if not delta >= 0.0:
        raise InvalidInputError(f"delta must be nonnegative, got {delta}")
    H = G if delta == 0.0 else G + delta * np.eye(G.shape[0])
    try:
        factor = cho_factor(H, lower=True, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise _not_positive_definite(delta) from err
    return cho_solve(factor, b, check_finite=False)


def _not_positive_definite(delta: float) -> SingularSystemError:
    return SingularSystemError(f"Gram system is not positive definite (delta={delta:g})")


def cholesky_stack(G: np.ndarray, delta: float = 0.0) -> np.ndarray:
    """Lower Cholesky factors of ``G + delta*I`` for a stack of Gram matrices.

    ``G`` has shape ``(R, m, m)``.  Raises ``SingularSystemError``, as
    ``solve_spd`` does, when any matrix of the stack is not positive
    definite; factor the matrices one by one to find which.  Each factor
    equals the one ``solve_spd`` computes for the same matrix.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 3 or G.shape[1] != G.shape[2]:
        raise InvalidInputError(f"expected a stack of square matrices, got shape {G.shape}")
    H = G if delta == 0.0 else G + delta * np.eye(G.shape[-1])
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError as err:
        raise _not_positive_definite(delta) from err


def solve_cholesky_stack(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) y = b`` for each system of a stack, given its factor ``L``.

    ``factor`` holds the lower factors from ``cholesky_stack``, shape
    ``(R, m, m)``; ``b`` is ``(R, m)`` or ``(R, m, c)``.  Each system goes
    through LAPACK's ``potrs``, the routine behind ``solve_spd``, so a
    system solved here matches ``solve_spd`` on the same matrix to the bit.
    """
    b = np.asarray(b, dtype=float)
    if factor.ndim != 3 or b.ndim not in (2, 3) or b.shape[:2] != factor.shape[:2]:
        raise InvalidInputError(
            f"right-hand side shape {b.shape} does not match factor stack {factor.shape}"
        )
    y = np.empty_like(b)
    for i in range(b.shape[0]):
        y[i], _ = potrs(factor[i], b[i], lower=1)
    return y
