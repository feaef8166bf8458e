"""Independent route to the constrained step: the stacked KKT system, solved by LU.

The production update solves the (L+1)-sized normal equations by Cholesky; this solver
factors the (N+L+1)-sized stacked system with ``dgesv`` (LU with row pivoting).  The two
routes share no routine and no system, only ``linalg``'s LAPACK build; hence the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularSystemError
from .linalg import all_finite, dgesv

__all__ = ["ConstrainedLSProblem", "solve_constrained"]


@dataclass(frozen=True, slots=True)
class ConstrainedLSProblem:
    """``min ||w - w_prev||^2`` subject to ``X.T w = d - cv``."""

    X: np.ndarray
    d: np.ndarray
    w_prev: np.ndarray
    cv: np.ndarray

    def __post_init__(self) -> None:
        for name in ("X", "d", "w_prev", "cv"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not all_finite(value):
                raise InvalidInputError(f"problem {name} must be finite")
            object.__setattr__(self, name, value)
        X, d, w_prev, cv = self.X, self.d, self.w_prev, self.cv
        if X.ndim != 2 or X.shape[1] < 1:
            raise InvalidInputError(f"inputs must form a 2-D matrix, got shape {X.shape}")
        if X.shape[1] > X.shape[0]:
            raise InvalidInputError(
                f"window width {X.shape[1]} exceeds coefficient count {X.shape[0]}"
            )
        if d.shape != (X.shape[1],) or cv.shape != d.shape:
            raise InvalidInputError("reference and constraint must match the window width")
        if w_prev.shape != (X.shape[0],):
            raise InvalidInputError(
                f"coefficient shape {w_prev.shape} does not match input rows {X.shape[0]}"
            )


def solve_constrained(problem: ConstrainedLSProblem) -> np.ndarray:
    """Solve the stacked stationarity/feasibility system

    ::

        [ I    X ] [ w  ]   [ w_prev ]
        [ X.T  0 ] [ l  ] = [ d - cv ]

    by LU elimination and return ``w``.  A rank-deficient ``X`` either
    fails the factorization or leaves a constraint residual; both raise.
    """
    X = problem.X
    m, n = X.shape[0], sum(X.shape)
    kkt = np.zeros((n, n), order="F")  # the layout dgesv factors in place, with no copy
    kkt.ravel("K")[: m * (n + 1) : n + 1] = 1.0  # the identity block, through a view
    kkt[:m, m:] = X
    kkt[m:, :m] = X.T
    target = problem.d - problem.cv
    # overwrite_a=1 and overwrite_b=1, passed by position: f2py parses keywords slowly
    _, _, solution, info = dgesv(kkt, np.concatenate([problem.w_prev, target]), 1, 1)
    if info > 0 or not all_finite(solution):
        raise SingularSystemError("stacked system is singular; inputs are rank deficient")
    w = solution[:m]
    # 2-norms without squaring, so entries near the float limit cannot overflow
    residual = math.hypot(*(X.T @ w - target).tolist())
    if not residual <= 1e-9 * (1.0 + math.hypot(*target.tolist())):
        raise SingularSystemError(
            f"constraint residual {residual:.3e}; inputs are numerically rank deficient"
        )
    return w
