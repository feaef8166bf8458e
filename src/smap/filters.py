"""Set-membership affine projection updates and the plain projection baseline.

The adaptive filter keeps ``N+1`` coefficients and reuses the ``L+1``
most recent input/reference pairs per step.  The set-membership variant
moves only when the a-priori error leaves the acceptance band and then
lands every posterior error in the window exactly on a caller-supplied
constraint vector; the conventional affine projection baseline moves on
every step, scaled by a step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConstraintBoundError, InvalidInputError
from .linalg import gram, solve_spd

# Classification labels shared by the energy records and the trace CSV.
CONTRACT = "contract"
PRESERVE = "preserve"
EXPAND = "expand"
NO_UPDATE = "no-update"

# Absolute slack when validating constraint components against the
# threshold.  Regularized steps leave posterior errors a hair outside the
# band, and error-reusing strategies feed those back in as constraints.
CV_BOUND_SLACK = 1e-8

__all__ = [
    "CONTRACT",
    "PRESERVE",
    "EXPAND",
    "NO_UPDATE",
    "CV_BOUND_SLACK",
    "FilterState",
    "DataWindow",
    "UpdateOutcome",
    "error_vector",
    "indicator",
    "check_cv_bound",
    "smap_update",
    "ap_update",
]


@dataclass(frozen=True, slots=True)
class FilterState:
    """Adaptive coefficients; every update returns a fresh instance."""

    w: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInputError(f"coefficients must be a non-empty vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InvalidInputError("coefficients must be finite")
        object.__setattr__(self, "w", w)

    @property
    def order(self) -> int:
        """Filter order N (number of taps minus one)."""
        return self.w.shape[0] - 1

    @classmethod
    def zeros(cls, num_taps: int) -> "FilterState":
        return cls(np.zeros(num_taps))


@dataclass(frozen=True, slots=True)
class DataWindow:
    """The ``L+1`` most recent input vectors and reference samples.

    Column ``j`` of ``X`` is the input vector ``j`` steps back; ``d[j]``
    and ``n[j]`` are the matching reference and noise samples.  The noise
    is only observable in simulation, hence optional.
    """

    X: np.ndarray
    d: np.ndarray
    n: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if X.ndim != 2 or X.shape[1] < 1:
            raise InvalidInputError(f"inputs must form a 2-D matrix, got shape {X.shape}")
        if d.shape != (X.shape[1],):
            raise InvalidInputError(
                f"reference shape {d.shape} does not match window width {X.shape[1]}"
            )
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "d", d)
        if self.n is not None:
            n = np.asarray(self.n, dtype=float)
            if n.shape != d.shape:
                raise InvalidInputError(
                    f"noise shape {n.shape} does not match window width {X.shape[1]}"
                )
            object.__setattr__(self, "n", n)

    @property
    def reuse(self) -> int:
        """Data-reuse factor L (window width minus one)."""
        return self.X.shape[1] - 1


@dataclass(frozen=True, slots=True)
class UpdateOutcome:
    """Everything observable about one gated step without the true system.

    The energy sums and the classification need the true system; see
    ``robustness.local_check``.
    """

    prior_errors: np.ndarray
    updated: bool
    posterior_errors: np.ndarray


def error_vector(state: FilterState, window: DataWindow) -> np.ndarray:
    """A-priori errors over the reuse window: ``d - X.T w``; entry 0 is current."""
    if window.X.shape[0] != state.w.shape[0]:
        raise InvalidInputError(
            f"window rows {window.X.shape[0]} do not match tap count {state.w.shape[0]}"
        )
    return window.d - window.X.T @ state.w


def indicator(e0: float, gamma_bar: float) -> bool:
    """True when the current error magnitude strictly exceeds the threshold.

    The boundary case deliberately does not update.  A non-finite error
    is rejected: it would otherwise compare false and skip the step.
    """
    if not math.isfinite(e0):
        raise InvalidInputError(f"current error must be finite, got {e0}")
    return abs(e0) > gamma_bar


def check_cv_bound(cv: np.ndarray, gamma_bar: float) -> None:
    """Reject constraint components above ``gamma_bar`` plus ``CV_BOUND_SLACK``.

    A NaN component fails too.  ``cv`` may be one vector or a stack of
    them; the error names the largest magnitude in it.
    """
    if not np.all(np.abs(cv) <= gamma_bar + CV_BOUND_SLACK):
        raise ConstraintBoundError(
            f"constraint magnitude {np.max(np.abs(cv)):.6g} exceeds threshold {gamma_bar:.6g}"
        )


def smap_update(
    state: FilterState,
    window: DataWindow,
    cv: np.ndarray,
    gamma_bar: float,
    delta: float = 0.0,
    *,
    enforce_cv_bound: bool = True,
) -> tuple[FilterState, UpdateOutcome]:
    """Gated projection step steering the window errors onto ``cv``.

    When the current error sits inside the acceptance band the state is
    returned untouched.  Otherwise the minimum-norm coefficient move is
    taken whose posterior errors equal the constraint vector
    componentwise (exactly for ``delta == 0``, to first order in
    ``delta`` otherwise).

    Parameters
    ----------
    state, window
        Coefficients and data going into the step.
    cv : ndarray
        Constraint vector of length ``L+1``.
    gamma_bar : float
        Error-magnitude threshold defining the acceptance band.
    delta : float
        Tikhonov term added to the Gram matrix before solving.
    enforce_cv_bound : bool
        Reject constraint components with magnitude above ``gamma_bar``
        plus ``CV_BOUND_SLACK`` (default).  The simulation harness
        disables this for the noise-proportional strategy, which may
        leave the band.

    Returns
    -------
    (FilterState, UpdateOutcome)
        The new state (the same object when no update fires) and the
        per-step record.
    """
    cv = np.asarray(cv, dtype=float)
    if cv.shape != window.d.shape:
        raise InvalidInputError(
            f"constraint shape {cv.shape} does not match window width {window.d.shape[0]}"
        )
    if enforce_cv_bound:
        check_cv_bound(cv, gamma_bar)
    e = error_vector(state, window)
    if not indicator(e[0], gamma_bar):
        return state, UpdateOutcome(e, False, e)
    y = solve_spd(gram(window.X), e - cv, delta)
    new_state = FilterState(state.w + window.X @ y)
    posterior = window.d - window.X.T @ new_state.w
    return new_state, UpdateOutcome(e, True, posterior)


def ap_update(
    state: FilterState, window: DataWindow, mu: float, delta: float = 0.0
) -> FilterState:
    """Conventional affine projection step ``w + mu X (X^T X + delta I)^{-1} e``.

    Updates unconditionally; ``mu`` must lie in ``[0, 1]``.
    """
    if not 0.0 <= mu <= 1.0:
        raise InvalidInputError(f"step size must lie in [0, 1], got {mu}")
    e = error_vector(state, window)
    y = solve_spd(gram(window.X), e, delta)
    return FilterState(state.w + mu * (window.X @ y))
