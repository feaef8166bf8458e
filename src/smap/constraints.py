"""Constraint-vector strategies for the set-membership update.

Built-ins: a fixed vector sitting at the threshold, the sign-led choice
that reuses the windowed errors, a noise-proportional vector only a
simulation can know, and all zeros.  A custom hook covers adversarial
and test scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConstraintBoundError, InvalidInputError

CvFn = Callable[[np.ndarray, Optional[np.ndarray], float], np.ndarray]

FIXED = "fixed"
SCCV = "sccv"
NOISE = "noise"
ZERO = "zero"
CUSTOM = "custom"
KINDS = (FIXED, SCCV, NOISE, ZERO, CUSTOM)

__all__ = [
    "FIXED",
    "SCCV",
    "NOISE",
    "ZERO",
    "CUSTOM",
    "KINDS",
    "ConstraintStrategy",
    "fixed_cv",
    "sc_cv",
    "noise_cv",
    "zero_cv",
    "custom_cv",
    "make_cv",
    "satisfies_bound",
]


@dataclass(frozen=True, slots=True)
class ConstraintStrategy:
    """A named rule producing the ``L+1`` posterior-error targets."""

    kind: str
    scale: float = 1.0  # noise kind only: multiplier on the noise window
    fn: Optional[CvFn] = None  # custom kind only

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown strategy kind {self.kind!r}")
        if self.kind == NOISE and not self.scale >= 0.0:
            raise InvalidInputError(f"noise scale must be nonnegative, got {self.scale}")
        if self.kind == CUSTOM and self.fn is None:
            raise InvalidInputError("custom strategy needs a callable")


def fixed_cv() -> ConstraintStrategy:
    """Every component equals the threshold."""
    return ConstraintStrategy(FIXED)


def sc_cv() -> ConstraintStrategy:
    """Threshold with the current error's sign in front, windowed errors behind.

    Trailing components are clipped into the acceptance band.
    """
    return ConstraintStrategy(SCCV)


def noise_cv(scale: float = 1.0) -> ConstraintStrategy:
    """``scale`` times the noise window (simulation only)."""
    return ConstraintStrategy(NOISE, scale=scale)


def zero_cv() -> ConstraintStrategy:
    """All posterior errors driven to zero."""
    return ConstraintStrategy(ZERO)


def custom_cv(fn: CvFn) -> ConstraintStrategy:
    """Arbitrary rule ``fn(prior_errors, noise_window, gamma_bar) -> cv``."""
    return ConstraintStrategy(CUSTOM, fn=fn)


def make_cv(
    strategy: ConstraintStrategy,
    prior_errors: np.ndarray,
    noise_window: Optional[np.ndarray],
    gamma_bar: float,
    *,
    enforce_bound: bool = True,
) -> np.ndarray:
    """Build the constraint vector for one updating step, or for a stack of them.

    ``prior_errors`` is the current error vector over the window (entry 0
    first), or a stack of such rows with shape ``(R, L+1)`` whose rows
    are treated independently; ``noise_window`` matches its shape and is
    consulted by the noise strategy only.  A custom rule takes one row
    per call.  With ``enforce_bound`` the noise strategy raises when a
    scaled component leaves the acceptance band; the simulation harness
    relaxes this and counts instead.
    """
    prior = np.asarray(prior_errors, dtype=float)
    if prior.ndim not in (1, 2) or prior.shape[-1] == 0:
        raise InvalidInputError(
            f"prior errors must be a non-empty vector or a stack of them, got shape {prior.shape}"
        )
    if prior.ndim == 2 and strategy.kind == CUSTOM:
        raise InvalidInputError("a custom rule takes one error vector per call")
    if not gamma_bar > 0.0:
        raise InvalidInputError(f"threshold must be positive, got {gamma_bar}")
    if strategy.kind == FIXED:
        return np.full(prior.shape, gamma_bar)
    if strategy.kind == SCCV:
        # Trailing components are the windowed errors clipped into the
        # band.  With exact posteriors they already sit inside; clipping
        # absorbs the leakage regularized steps leave behind.
        cv = np.clip(prior, -gamma_bar, gamma_bar)
        cv[..., 0] = gamma_bar * np.sign(prior[..., 0])
        return cv
    if strategy.kind == NOISE:
        if noise_window is None:
            raise InvalidInputError("noise strategy needs the noise window")
        cv = strategy.scale * np.asarray(noise_window, dtype=float)
        if cv.shape != prior.shape:
            raise InvalidInputError(
                f"noise window shape {cv.shape} does not match error shape {prior.shape}"
            )
        if enforce_bound and np.any(np.abs(cv) > gamma_bar):
            raise ConstraintBoundError(
                f"scaled noise component {np.max(np.abs(cv)):.6g} exceeds threshold {gamma_bar:.6g}"
            )
        return cv
    if strategy.kind == ZERO:
        return np.zeros(prior.shape)
    cv = np.asarray(strategy.fn(prior, noise_window, gamma_bar), dtype=float)
    if cv.shape != prior.shape:
        raise InvalidInputError(
            f"custom rule returned shape {cv.shape}, expected {prior.shape}"
        )
    return cv


def satisfies_bound(cv: np.ndarray, gamma_bar: float):
    """True when every component magnitude is at most ``gamma_bar``; a NaN fails.

    For a stack of constraint vectors the answer is a boolean array with
    one entry per row.
    """
    ok = np.all(np.abs(np.asarray(cv, dtype=float)) <= gamma_bar, axis=-1)
    return ok if ok.ndim else bool(ok)
