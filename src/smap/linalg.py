"""Small dense helpers for the reuse-window normal equations.

Everything operates on the (L+1)-sized Gram systems that the projection
update and the energy bookkeeping share.  The Gram inverse is never
formed explicitly; callers go through the regularized solve so the
algorithm and its checks apply the exact same operator.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import InvalidInputError, SingularSystemError

__all__ = ["gram", "solve_spd"]


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
        raise SingularSystemError(
            f"Gram system is not positive definite (delta={delta:g})"
        ) from err
    return cho_solve(factor, b, check_finite=False)
