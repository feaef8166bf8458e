"""Independent route to the constrained step: a KKT system solved with a
generic pivoted elimination.

The production update reaches the same coefficients through the normal
equations and a Cholesky factorization; this solver shares none of that
path, which is exactly why the two are compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SingularSystemError
from .linalg import all_finite

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
    m, p = X.shape
    kkt = np.zeros((m + p, m + p))
    kkt[:m, :m] = np.eye(m)
    kkt[:m, m:] = X
    kkt[m:, :m] = X.T
    target = problem.d - problem.cv
    rhs = np.concatenate([problem.w_prev, target])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as err:
        raise SingularSystemError("stacked system is singular; inputs are rank deficient") from err
    w = solution[:m]
    residual = float(np.linalg.norm(X.T @ w - target))
    if not residual <= 1e-9 * (1.0 + float(np.linalg.norm(target))):
        raise SingularSystemError(
            f"constraint residual {residual:.3e}; inputs are numerically rank deficient"
        )
    return w
