"""Energy bookkeeping for the gated projection update.

Covers the per-step energy identity and its contract/preserve/expand
trichotomy, the accumulated run-level energy ratio, and the
posterior-error divergence monitor.  Everything here needs knowledge a
deployed filter does not have — the true system and the noise samples —
so it lives on the simulation side of the fence.

All quadratic forms go through the same regularized Gram operator the
filter itself applies; mixing operators would leave the identity open by
far more than the tolerances tracked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateDenominatorError, InvalidInputError
from .filters import CONTRACT, EXPAND, NO_UPDATE, PRESERVE, DataWindow, FilterState
from .linalg import gram, solve_spd

# Relative half-width of the tie band separating "preserve" from the
# strict inequalities.
PRESERVE_RTOL = 1e-12

__all__ = [
    "PRESERVE_RTOL",
    "LocalRobustnessRecord",
    "GlobalRobustnessReport",
    "DivergenceMonitorRecord",
    "local_check",
    "expands",
    "global_accumulate",
    "divergence_monitor",
]


@dataclass(frozen=True, slots=True)
class LocalRobustnessRecord:
    """Per-iteration energy balance around one (possibly skipped) step."""

    k: int
    updated: bool
    g1: float  # misalignment after + windowed noiseless-error energy
    g2: float  # misalignment before + windowed noise energy
    lhs: float  # constraint energy through the Gram operator
    rhs: float  # twice the constraint/noise cross term
    classification: str
    identity_residual: float
    w_tilde_sq_after: float
    e_tilde_quad: float
    noise_quad: float


@dataclass(frozen=True, slots=True)
class GlobalRobustnessReport:
    """Accumulated energy ratio over a whole run; at most 1 when no step expands."""

    update_set_size: int
    numerator: float
    denominator: float
    ratio: float
    condition_violations: int


@dataclass(frozen=True, slots=True)
class DivergenceMonitorRecord:
    """Worst posterior window error right after a step."""

    k: int
    max_abs_posterior: float


def _tied(lhs, rhs):
    # |lhs - rhs| <= PRESERVE_RTOL * max(1, rhs), for numbers and arrays alike
    gap = abs(lhs - rhs)
    return (gap <= PRESERVE_RTOL) | (gap <= PRESERVE_RTOL * rhs)


def _classify(lhs: float, rhs: float) -> str:
    if _tied(lhs, rhs):
        return PRESERVE
    return CONTRACT if lhs < rhs else EXPAND


def expands(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise over condition terms: True where ``local_check`` would say expand."""
    return ~(lhs < rhs) & ~_tied(lhs, rhs)


def local_check(
    w0: np.ndarray,
    state_before: FilterState,
    state_after: FilterState,
    window: DataWindow,
    cv: np.ndarray,
    updated: bool,
    delta: float = 0.0,
    *,
    k: int = 0,
) -> LocalRobustnessRecord:
    """Classify one iteration against the per-step energy identity.

    For an updating step the two energy sums satisfy
    ``g1 = g2 - rhs + lhs`` up to the regularization leakage, and the
    sign of ``lhs - rhs`` decides whether the step contracted, preserved
    or expanded the combined energy.  For a skipped step the sums reduce
    to the unchanged misalignment and the condition fields are zero.

    Parameters
    ----------
    w0 : ndarray
        True system coefficients.
    state_before, state_after : FilterState
        Coefficients around the step.
    window : DataWindow
        Data window of the step; must carry the noise samples when
        ``updated`` is true.
    cv : ndarray
        Constraint vector the step aimed at (ignored when skipped).
    updated : bool
        Whether the gate fired.
    delta : float
        Regularization the step used; reused verbatim here.
    """
    w0 = np.asarray(w0, dtype=float)
    wt_before = w0 - state_before.w
    wt_sq_before = float(wt_before @ wt_before)
    wt_after = w0 - state_after.w
    wt_sq_after = float(wt_after @ wt_after)
    if not updated:
        return LocalRobustnessRecord(
            k, False, wt_sq_after, wt_sq_before, 0.0, 0.0, NO_UPDATE,
            0.0, wt_sq_after, 0.0, 0.0,
        )
    if window.n is None:
        raise InvalidInputError("energy check needs the noise window")
    cv = np.asarray(cv, dtype=float)
    e_tilde = window.X.T @ wt_before
    sols = solve_spd(gram(window.X), np.stack([e_tilde, window.n, cv], axis=1), delta)
    e_quad = float(e_tilde @ sols[:, 0])
    n_quad = float(window.n @ sols[:, 1])
    lhs = float(cv @ sols[:, 2])
    rhs = 2.0 * float(cv @ sols[:, 1])
    g1 = wt_sq_after + e_quad
    g2 = wt_sq_before + n_quad
    if g2 == 0.0:
        raise DegenerateDenominatorError("misalignment and noise energy are both zero")
    residual = abs(g1 - (g2 - rhs + lhs))
    return LocalRobustnessRecord(
        k, True, g1, g2, lhs, rhs, _classify(lhs, rhs),
        residual, wt_sq_after, e_quad, n_quad,
    )


def global_accumulate(
    records: Iterable[LocalRobustnessRecord],
    w_tilde_0_sq: float,
    w_tilde_K_sq: float,
) -> GlobalRobustnessReport:
    """Fold per-iteration records into the run-level energy ratio.

    Noiseless-error and noise energies are summed over updating
    iterations only; skipped steps contribute nothing.  The certified
    ceiling of 1 applies whenever no step was classified as expanding.
    """
    e_sum = 0.0
    n_sum = 0.0
    updates = 0
    violations = 0
    for rec in records:
        if rec.updated:
            updates += 1
            e_sum += rec.e_tilde_quad
            n_sum += rec.noise_quad
            if rec.classification == EXPAND:
                violations += 1
    numerator = float(w_tilde_K_sq) + e_sum
    denominator = float(w_tilde_0_sq) + n_sum
    if denominator == 0.0:
        raise DegenerateDenominatorError("energy-ratio denominator is zero")
    return GlobalRobustnessReport(
        updates, numerator, denominator, numerator / denominator, violations
    )


def divergence_monitor(
    state_after: FilterState, window: DataWindow, *, k: int = 0
) -> DivergenceMonitorRecord:
    """Record the worst posterior window error.

    After an unregularized step every posterior error sits on a
    constraint component, so for in-band constraint vectors the recorded
    maximum stays within the threshold; that containment is what rules
    out divergence of the error sequence.  The misalignment after the
    step is ``LocalRobustnessRecord.w_tilde_sq_after``.
    """
    posterior = window.d - window.X.T @ state_after.w
    return DivergenceMonitorRecord(k, float(np.max(np.abs(posterior))))
