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

from .constraints import CV_BOUND_SLACK, check_threshold, satisfies_bound
from .errors import ConstraintBoundError, InvalidInputError
from .linalg import all_finite, gram, solve_spd

__all__ = [
    "FilterState",
    "DataWindow",
    "UpdateOutcome",
    "error_vector",
    "indicator",
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
        if not all_finite(w):
            raise InvalidInputError("coefficients must be finite")
        object.__setattr__(self, "w", w)

    @classmethod
    def zeros(cls, num_taps: int) -> "FilterState":
        return cls(np.zeros(num_taps))


@dataclass(frozen=True, slots=True)
class DataWindow:
    """The ``L+1`` most recent input vectors and reference samples.

    Column ``j`` of ``X`` is the input vector ``j`` steps back; ``d[j]``
    and ``n[j]`` are the matching reference and noise samples.  The noise
    is only observable in simulation, hence optional.  Every entry must
    be finite.
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
        # A sum or dot product of finite entries is finite barring overflow
        # (inf * 0 is nan).  Tested apart, so that +inf never meets -inf, they
        # clear the usual window; only one that fails is searched for the culprit.
        dot = np.dot(d, d if self.n is None else self.n)
        if not (math.isfinite(X.sum()) and math.isfinite(dot)):
            for name in ("X", "d", "n"):
                value = getattr(self, name)
                if value is not None and not np.isfinite(value).all():
                    raise InvalidInputError(f"window {name} must be finite")


def _unchecked_window(X: np.ndarray, d: np.ndarray, n: Optional[np.ndarray]) -> DataWindow:
    """A ``DataWindow`` of float arrays that the caller has checked, built without re-checking."""
    window = object.__new__(DataWindow)
    object.__setattr__(window, "X", X)
    object.__setattr__(window, "d", d)
    object.__setattr__(window, "n", n)
    return window


@dataclass(frozen=True, slots=True)
class UpdateOutcome:
    """Everything observable about one gated step without the true system.

    The energy sums and the classification need the true system; see
    ``robustness.local_check``.
    """

    updated: bool
    posterior_errors: np.ndarray


def error_vector(state: FilterState, window: DataWindow) -> np.ndarray:
    """A-priori errors over the reuse window: ``d - X.T w``; entry 0 is current."""
    if window.X.shape[0] != state.w.shape[0]:
        raise InvalidInputError(
            f"window rows {window.X.shape[0]} do not match tap count {state.w.shape[0]}"
        )
    return window.d - window.X.T @ state.w


def _prior(state: FilterState, window: DataWindow, prior: Optional[np.ndarray]) -> np.ndarray:
    """``prior`` if it can be the step's ``error_vector``, which is computed when it is None."""
    e = error_vector(state, window) if prior is None else np.asarray(prior, dtype=float)
    if e.shape != window.d.shape or window.X.shape[0] != state.w.shape[0]:
        raise InvalidInputError(
            f"prior errors {e.shape} do not fit {state.w.size} taps and window {window.X.shape}",
            field="prior",
        )
    return e


def indicator(e0: float, gamma_bar: float) -> bool:
    """True when the current error magnitude strictly exceeds the threshold.

    The boundary case deliberately does not update.  A non-finite error
    is rejected: it would otherwise compare false and skip the step.
    """
    if not math.isfinite(e0):
        raise InvalidInputError(f"current error must be finite, got {e0}")
    return abs(e0) > gamma_bar


def smap_update(
    state: FilterState,
    window: DataWindow,
    cv: np.ndarray,
    gamma_bar: float,
    delta: float = 0.0,
    *,
    enforce_cv_bound: bool = True,
    prior: Optional[np.ndarray] = None,
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
    prior : ndarray, optional
        ``error_vector(state, window)``, if the caller has it; only its shape is checked.

    Returns
    -------
    (FilterState, UpdateOutcome)
        The new state (the same object when no update fires) and the
        per-step record.
    """
    check_threshold(gamma_bar)
    cv = np.asarray(cv, dtype=float)
    if cv.shape != window.d.shape:
        raise InvalidInputError(
            f"constraint shape {cv.shape} does not match window width {window.d.shape[0]}"
        )
    if enforce_cv_bound and not satisfies_bound(cv, gamma_bar + CV_BOUND_SLACK):
        raise ConstraintBoundError(
            f"constraint magnitude {np.abs(cv).max():.6g} exceeds threshold {gamma_bar:.6g}"
        )
    e = _prior(state, window, prior)
    if not indicator(e[0], gamma_bar):
        return state, UpdateOutcome(False, e)
    y = solve_spd(gram(window.X), e - cv, delta)
    new_state = FilterState(state.w + window.X @ y)
    posterior = window.d - window.X.T @ new_state.w
    return new_state, UpdateOutcome(True, posterior)


def ap_update(
    state: FilterState, window: DataWindow, mu: float, delta: float = 0.0,
    *, prior: Optional[np.ndarray] = None,
) -> tuple[FilterState, UpdateOutcome]:
    """Conventional affine projection step ``w + mu X (X^T X + delta I)^{-1} e``.

    Updates unconditionally; ``mu`` must lie in ``[0, 1]``, and ``prior``
    is as for ``smap_update``.  The move is the SM-AP move toward the
    constraint vector ``(1 - mu) e``, the target ``local_check`` certifies
    it against.  Returns the new state and ``UpdateOutcome(True, d - X.T w_new)``.
    """
    if not 0.0 <= mu <= 1.0:
        raise InvalidInputError(f"step size must lie in [0, 1], got {mu}")
    e = _prior(state, window, prior)
    y = solve_spd(gram(window.X), e, delta)
    new_state = FilterState(state.w + mu * (window.X @ y))
    return new_state, UpdateOutcome(True, window.d - window.X.T @ new_state.w)
