"""System-identification experiment engine.

Generates the correlated input / noisy reference pair, drives either
recursion sample by sample with the energy checker and divergence
monitor attached, and averages Monte-Carlo ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from .constraints import NOISE, ConstraintStrategy, fixed_cv, make_cv, satisfies_bound
from .errors import InvalidInputError, SimulationError, SmapError
from .filters import (
    DataWindow,
    FilterState,
    ap_update,
    error_vector,
    indicator,
    smap_update,
)
from .robustness import (
    DivergenceMonitorRecord,
    GlobalRobustnessReport,
    LocalRobustnessRecord,
    divergence_monitor,
    global_accumulate,
    local_check,
)

SMAP = "smap"
AP = "ap"

_CAL_SAMPLES = 10_000  # warm stretch used for the one-shot power calibration
_CAL_SKIP = 500  # transient discarded before measuring

__all__ = [
    "SMAP",
    "AP",
    "ScenarioConfig",
    "RunTrace",
    "MonteCarloSummary",
    "generate_system",
    "generate_signals",
    "run_rng",
    "run_single",
    "run_monte_carlo",
    "steady_state_db",
]


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Experiment configuration; defaults match the standard benchmark setup."""

    num_taps: int = 10
    reuse: int = 2
    gamma_bar: float = 0.2236
    delta: float = 1e-12
    noise_variance: float = 0.01
    ar_coefficient: float = 0.95
    snr_db: float = 20.0
    iterations: int = 1000
    cv_strategy: ConstraintStrategy = field(default_factory=fixed_cv)
    ap_step: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_taps < 1:
            raise InvalidInputError(f"need at least one tap, got {self.num_taps}")
        if not 0 <= self.reuse < self.num_taps:
            raise InvalidInputError(
                f"reuse factor must lie in [0, {self.num_taps - 1}] for "
                f"{self.num_taps} taps, got {self.reuse}"
            )
        for name in ("gamma_bar", "delta", "noise_variance", "snr_db"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.gamma_bar > 0.0:
            raise InvalidInputError(f"threshold must be positive, got {self.gamma_bar}")
        if not self.delta >= 0.0:
            raise InvalidInputError(f"regularization must be nonnegative, got {self.delta}")
        if not self.noise_variance > 0.0:
            raise InvalidInputError(f"noise variance must be positive, got {self.noise_variance}")
        if not abs(self.ar_coefficient) < 1.0:
            raise InvalidInputError(
                f"autoregression coefficient must satisfy |a| < 1, got {self.ar_coefficient}"
            )
        if self.iterations < 0:
            raise InvalidInputError(f"iteration count must be nonnegative, got {self.iterations}")
        if self.ap_step is not None and not 0.0 < self.ap_step <= 1.0:
            raise InvalidInputError(f"step size must lie in (0, 1], got {self.ap_step}")


@dataclass(frozen=True, slots=True)
class RunTrace:
    """Complete record of one run.

    ``misalignment`` holds ``iterations + 1`` entries (before each step
    plus the final state); the other series have one entry per
    iteration.  For the baseline recursion the constraint-condition
    fields of the local records are vacuous (zero target); the
    misalignment and divergence series carry the signal there.
    """

    w0: np.ndarray
    misalignment: np.ndarray
    errors: np.ndarray
    update_flags: np.ndarray
    local_records: tuple[LocalRobustnessRecord, ...]
    divergence_records: tuple[DivergenceMonitorRecord, ...]
    global_report: GlobalRobustnessReport
    cv_relaxations: int = 0

    @property
    def squared_error(self) -> np.ndarray:
        return self.errors**2

    @property
    def update_rate(self) -> float:
        return float(self.update_flags.mean()) if self.update_flags.size else 0.0


@dataclass(frozen=True, slots=True)
class MonteCarloSummary:
    """Pointwise-averaged squared error and run-level statistics."""

    runs: int
    mse_curve: np.ndarray
    mean_update_rate: float
    mean_violation_count: float
    steady_state_mse_db: float
    mean_cv_relaxations: float = 0.0


def generate_system(num_taps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the unknown system: i.i.d. standard-normal coefficients."""
    if num_taps < 1:
        raise InvalidInputError(f"need at least one tap, got {num_taps}")
    return rng.standard_normal(num_taps)


def generate_signals(
    config: ScenarioConfig, w0: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Produce one run's input, reference and noise series.

    The input is a first-order autoregression whose driving noise is
    independent of the measurement noise.  Driving power starts from the
    stationary-variance formula for the given system and is rescaled
    once against a measured warm stretch, putting the clean reference
    power ``snr_db`` above the noise floor.  The reference then applies
    the unknown system to the run segment with zero initial state,
    matching the zero-padded history the filter itself sees.

    Returns
    -------
    (x, d, n)
        Input, noisy reference and noise, each of length
        ``config.iterations``.
    """
    w0 = np.asarray(w0, dtype=float)
    if w0.shape != (config.num_taps,):
        raise InvalidInputError(
            f"system shape {w0.shape} does not match tap count {config.num_taps}"
        )
    a = config.ar_coefficient
    target = config.noise_variance * 10.0 ** (config.snr_db / 10.0)
    lags = np.arange(w0.size)
    stationary_corr = a ** np.abs(lags[:, None] - lags[None, :])
    response = float(w0 @ stationary_corr @ w0)
    input_var = target / response if response > 0.0 else target
    drive_std = float(np.sqrt(input_var * (1.0 - a * a)))
    total = _CAL_SAMPLES + config.iterations
    drive = rng.normal(0.0, drive_std, total)
    # the driving sample enters the recursion one step late
    x_all = lfilter([1.0], [1.0, -a], np.concatenate(([0.0], drive[:-1])))
    warm_output = lfilter(w0, [1.0], x_all[:_CAL_SAMPLES])
    measured = float(np.var(warm_output[_CAL_SKIP:]))
    if measured > 0.0:
        x_all = x_all * np.sqrt(target / measured)
    x = x_all[_CAL_SAMPLES:]
    # zero initial state: the filter starts cold too
    clean = lfilter(w0, [1.0], x) if x.size else np.zeros(0)
    noise = rng.normal(0.0, float(np.sqrt(config.noise_variance)), config.iterations)
    return x, clean + noise, noise


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one run of an experiment."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(run_index,)))


def _padded_regressors(
    x: np.ndarray, d: np.ndarray, n: np.ndarray, num_taps: int, reuse: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tap-delay rows plus ``reuse`` leading zero rows for the window lookback."""
    K = x.size
    U = np.zeros((K, num_taps))
    for i in range(min(num_taps, K)):
        U[i:, i] = x[: K - i]
    pad = np.zeros((reuse, num_taps))
    return (
        np.vstack([pad, U]),
        np.concatenate([np.zeros(reuse), d]),
        np.concatenate([np.zeros(reuse), n]),
    )


def run_single(
    config: ScenarioConfig, algorithm: str, rng: np.random.Generator
) -> RunTrace:
    """Drive one full run of the chosen recursion.

    Draws a fresh unknown system and signal set from ``rng``, starts the
    filter at zero, and executes ``config.iterations`` steps with the
    energy checker and divergence monitor attached.  ``algorithm`` is
    ``"smap"`` or ``"ap"``; the latter requires ``config.ap_step``.

    During the first ``reuse`` iterations the window reaches back before
    the start of the run; those padded lags carry zero data and the
    matching constraint components are forced to zero so the padded
    subsystem stays exactly neutral.  Noise-proportional constraint
    vectors that leave the acceptance band are applied anyway and
    counted in ``cv_relaxations``.
    """
    if algorithm not in (SMAP, AP):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    if algorithm == AP and config.ap_step is None:
        raise InvalidInputError("baseline recursion needs ap_step in the configuration")
    K = config.iterations
    L = config.reuse
    w0 = generate_system(config.num_taps, rng)
    x, d, n = generate_signals(config, w0, rng)
    Upad, dpad, npad = _padded_regressors(x, d, n, config.num_taps, L)
    state = FilterState.zeros(config.num_taps)
    misalignment = np.empty(K + 1)
    misalignment[0] = float(w0 @ w0)
    errors = np.empty(K)
    flags = np.zeros(K, dtype=bool)
    local_records: list[LocalRobustnessRecord] = []
    div_records: list[DivergenceMonitorRecord] = []
    relaxations = 0
    zero_cv = np.zeros(L + 1)
    lag = np.arange(L + 1)
    relaxed = algorithm == SMAP and config.cv_strategy.kind == NOISE
    k = -1
    try:
        for k in range(K):
            window = DataWindow(
                Upad[k : k + L + 1][::-1].T,
                dpad[k : k + L + 1][::-1],
                npad[k : k + L + 1][::-1],
            )
            prev = state
            if algorithm == AP:
                errors[k] = error_vector(prev, window)[0]
                state = ap_update(prev, window, config.ap_step, config.delta)
                cv = zero_cv
                updated = True
            else:
                e = error_vector(prev, window)
                errors[k] = e[0]
                if indicator(e[0], config.gamma_bar):
                    cv = make_cv(
                        config.cv_strategy, e, window.n, config.gamma_bar,
                        enforce_bound=False,
                    )
                    if k < L:
                        cv = np.where(lag <= k, cv, 0.0)
                    if relaxed and not satisfies_bound(cv, config.gamma_bar):
                        relaxations += 1
                else:
                    cv = zero_cv
                state, outcome = smap_update(
                    prev, window, cv, config.gamma_bar, config.delta,
                    enforce_cv_bound=not relaxed,
                )
                updated = outcome.updated
            flags[k] = updated
            record = local_check(
                w0, prev, state, window, cv, updated, config.delta, k=k
            )
            local_records.append(record)
            misalignment[k + 1] = record.w_tilde_sq_after
            div_records.append(divergence_monitor(state, window, k=k))
    except SimulationError:
        raise
    except SmapError as err:
        raise SimulationError(f"iteration {k}: {err}") from err
    report = global_accumulate(local_records, misalignment[0], misalignment[K])
    return RunTrace(
        w0=w0,
        misalignment=misalignment,
        errors=errors,
        update_flags=flags,
        local_records=tuple(local_records),
        divergence_records=tuple(div_records),
        global_report=report,
        cv_relaxations=relaxations,
    )


def run_monte_carlo(config: ScenarioConfig, algorithm: str, runs: int) -> MonteCarloSummary:
    """Average ``runs`` independent runs pointwise.

    Each run draws its system and signals from a substream derived from
    the master seed and the run index, so the ensemble is reproducible
    regardless of how the runs would be scheduled, and a failing run is
    reported with the run index and seed that replay it.
    """
    if runs < 1:
        raise InvalidInputError(f"run count must be positive, got {runs}")
    mse = np.zeros(config.iterations)
    rates = np.empty(runs)
    violations = np.empty(runs)
    relaxations = np.empty(runs)
    for run_index in range(runs):
        try:
            trace = run_single(config, algorithm, run_rng(config.seed, run_index))
        except SimulationError as err:
            raise SimulationError(f"run {run_index} (seed {config.seed}): {err}") from err
        mse += trace.squared_error
        rates[run_index] = trace.update_rate
        violations[run_index] = trace.global_report.condition_violations
        relaxations[run_index] = trace.cv_relaxations
    mse /= runs
    return MonteCarloSummary(
        runs=runs,
        mse_curve=mse,
        mean_update_rate=float(rates.mean()),
        mean_violation_count=float(violations.mean()),
        steady_state_mse_db=steady_state_db(mse),
        mean_cv_relaxations=float(relaxations.mean()),
    )


def steady_state_db(mse_curve: np.ndarray, fraction: float = 0.2) -> float:
    """Mean of the final stretch of the curve, in dB."""
    curve = np.asarray(mse_curve, dtype=float)
    if curve.size == 0:
        return float("nan")
    tail = curve[-max(1, int(curve.size * fraction)) :]
    return float(10.0 * np.log10(tail.mean()))
