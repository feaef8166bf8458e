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
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

from .constraints import CUSTOM, NOISE, ConstraintStrategy, fixed_cv, make_cv, satisfies_bound
from .errors import (
    ConstraintBoundError,
    InvalidInputError,
    SimulationError,
    SingularSystemError,
    SmapError,
)
from .filters import (
    DataWindow,
    FilterState,
    ap_update,
    check_cv_bound,
    error_vector,
    indicator,
    smap_update,
)
from .linalg import cholesky_stack, solve_cholesky_stack
from .robustness import (
    DivergenceMonitorRecord,
    GlobalRobustnessReport,
    LocalRobustnessRecord,
    divergence_monitor,
    expands,
    global_accumulate,
    local_check,
)

SMAP = "smap"
AP = "ap"

_CAL_SAMPLES = 10_000  # warm stretch used for the one-shot power calibration
_CAL_SKIP = 500  # transient discarded before measuring

# Runs that run_monte_carlo steps together.  Each run of a block holds its
# padded input, reference and noise series, so peak memory grows with
# _BLOCK_RUNS * iterations, not with the run count.
_BLOCK_RUNS = 64

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
        # each error names the field at fault, so a front end can name
        # its own spelling of it
        def require(ok: bool, name: str, message: str) -> None:
            if not ok:
                raise InvalidInputError(message, field=name)

        require(self.num_taps >= 1, "num_taps", f"need at least one tap, got {self.num_taps}")
        require(
            0 <= self.reuse < self.num_taps, "reuse",
            f"reuse factor must lie in [0, {self.num_taps - 1}] for "
            f"{self.num_taps} taps, got {self.reuse}",
        )
        for name in ("gamma_bar", "delta", "noise_variance", "snr_db"):
            value = getattr(self, name)
            require(math.isfinite(value), name, f"{name} must be finite, got {value}")
        require(
            self.gamma_bar > 0.0, "gamma_bar", f"threshold must be positive, got {self.gamma_bar}"
        )
        require(
            self.delta >= 0.0, "delta", f"regularization must be nonnegative, got {self.delta}"
        )
        require(
            self.noise_variance > 0.0, "noise_variance",
            f"noise variance must be positive, got {self.noise_variance}",
        )
        try:
            power = self.reference_power
        except OverflowError:
            power = math.inf
        require(
            0.0 < power < math.inf, "snr_db",
            f"an SNR of {self.snr_db} dB puts the reference power at {power}, "
            "outside the positive floats",
        )
        require(
            abs(self.ar_coefficient) < 1.0, "ar_coefficient",
            f"autoregression coefficient must satisfy |a| < 1, got {self.ar_coefficient}",
        )
        require(
            self.iterations >= 0, "iterations",
            f"iteration count must be nonnegative, got {self.iterations}",
        )
        require(
            self.ap_step is None or 0.0 < self.ap_step <= 1.0, "ap_step",
            f"step size must lie in (0, 1], got {self.ap_step}",
        )

    @property
    def reference_power(self) -> float:
        """Power of the clean reference: ``snr_db`` above the noise variance."""
        return self.noise_variance * 10.0 ** (self.snr_db / 10.0)


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
    """Pointwise-averaged squared error plus per-run statistics.

    ``update_rates``, ``violation_counts`` (expanding steps) and
    ``cv_relaxations`` hold one entry per run, in run-index order.
    """

    mse_curve: np.ndarray
    update_rates: np.ndarray
    violation_counts: np.ndarray
    cv_relaxations: np.ndarray

    @property
    def runs(self) -> int:
        return self.update_rates.size

    @property
    def mean_update_rate(self) -> float:
        return float(self.update_rates.mean())

    @property
    def mean_violation_count(self) -> float:
        return float(self.violation_counts.mean())

    @property
    def mean_cv_relaxations(self) -> float:
        return float(self.cv_relaxations.mean())

    @property
    def steady_state_mse_db(self) -> float:
        return steady_state_db(self.mse_curve)


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
    target = config.reference_power
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


def _check_algorithm(config: ScenarioConfig, algorithm: str) -> None:
    if algorithm not in (SMAP, AP):
        raise InvalidInputError(f"unknown algorithm {algorithm!r}")
    if algorithm == AP and config.ap_step is None:
        raise InvalidInputError("baseline recursion needs ap_step in the configuration")


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
    _check_algorithm(config, algorithm)
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
    the master seed and the run index, exactly as ``run_single`` does
    with ``run_rng(config.seed, run_index)``, so the ensemble is
    reproducible and a failing run is reported with the run index and
    seed that replay it.

    The runs are advanced in lockstep, in blocks of ``_BLOCK_RUNS``, so
    peak memory grows with the block, not with ``runs``.  Each time step
    handles every run of a block at once; the runs whose gate fires share
    one stacked Cholesky factorization of their regularized Gram
    matrices, which serves both the update and the energy check.  Every
    check of ``run_single`` applies, and the ``SmapError`` it would raise
    reads ``run r (seed s): iteration k: ...``, naming the lowest failing
    run at the first failing step of the first failing block.

    Each run follows its ``run_single`` trajectory to the bit: products
    go through the same numpy loops, solves through the same LAPACK
    routine, and squared errors are summed in run order, so
    ``mse_curve`` equals the average of the ``run_single`` curves and the
    per-run rates and counts match.  The energy check's quadratic forms
    are summed in another order, which could move a step's
    classification only at the edge of the ``PRESERVE_RTOL`` tie band.
    A custom constraint rule is called once per firing run and step, in
    run order within each step, so a rule that keeps state sees a
    different call order than under ``run_single``.
    """
    _check_algorithm(config, algorithm)
    if runs < 1:
        raise InvalidInputError(f"run count must be positive, got {runs}")
    K = config.iterations
    mse = np.zeros(K)
    counts = np.zeros((3, runs))  # updates, expanding steps, relaxations per run
    for first in range(0, runs, _BLOCK_RUNS):
        stop = min(runs, first + _BLOCK_RUNS)
        _lockstep_block(config, algorithm, first, stop, mse, counts[:, first:stop])
    mse /= runs
    updates, violations, relaxations = counts
    return MonteCarloSummary(
        mse_curve=mse,
        update_rates=updates / K if K else np.zeros(runs),
        violation_counts=violations,
        cv_relaxations=relaxations,
    )


def _lockstep_block(
    config: ScenarioConfig,
    algorithm: str,
    first: int,
    stop: int,
    mse: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Step runs ``first`` to ``stop - 1`` together.

    Adds each run's squared errors to ``mse``, in run order as the
    average of ``run_single`` curves would, and its updates, expanding
    steps and constraint relaxations to the columns of ``counts``.
    """
    K, N, L = config.iterations, config.num_taps, config.reuse
    gamma_bar, delta, strategy = config.gamma_bar, config.delta, config.cv_strategy
    R, m = stop - first, L + 1
    ap = algorithm == AP
    relaxed = not ap and strategy.kind == NOISE
    updates, violations, relaxations = counts
    # Series are stored newest sample first with zeros behind the start of
    # the run, so at step k the window of lag j starts at index K-1-k+j.
    xs = np.zeros((R, K + N + L - 1))
    ds = np.zeros((R, K + L))
    ns = np.zeros((R, K + L))
    w0 = np.empty((R, N))
    for r in range(R):
        rng = run_rng(config.seed, first + r)
        w0[r] = generate_system(N, rng)
        x, d, n = generate_signals(config, w0[r], rng)
        xs[r, :K], ds[r, :K], ns[r, :K] = x[::-1], d[::-1], n[::-1]
    inputs = sliding_window_view(xs, N, axis=1)  # a view: inputs[r, i] = xs[r, i:i+N]
    w = np.zeros((R, N))
    errors = np.empty((K, R))
    noise_energy = np.zeros(R)
    every = np.arange(R)
    for k in range(K):
        s = K - 1 - k
        Xt = inputs[:, s : s + m]  # (R, m, N); row j is the input vector j steps back
        e = ds[:, s : s + m] - (Xt @ w[:, :, None])[:, :, 0]
        e0 = e[:, 0]
        errors[k] = e0
        failed: dict[int, SmapError] = {}
        if not ap and not np.isfinite(e0).all():  # the gate's check; AP has no gate
            _record(failed, every, lambda r: indicator(e0[r], gamma_bar))
        rows = every if ap else np.flatnonzero(np.abs(e0) > gamma_bar)
        if rows.size:
            sel = slice(None) if rows.size == R else rows
            updates[sel] += 1
            ef, nf = e[sel], ns[sel, s : s + m]
            if ap:
                cv = np.zeros_like(ef)
            elif strategy.kind == CUSTOM:
                cv = np.zeros_like(ef)

                def custom_row(i: int) -> None:
                    cv[i] = make_cv(strategy, ef[i], nf[i], gamma_bar, enforce_bound=False)

                _record(failed, rows, custom_row)
            else:
                cv = make_cv(strategy, ef, nf, gamma_bar, enforce_bound=False)
            if k < L:
                cv[:, k + 1 :] = 0.0  # padded lags stay neutral, as in run_single
            if relaxed:
                relaxations[sel] += ~satisfies_bound(cv, gamma_bar)
            elif not ap:
                try:
                    check_cv_bound(cv, gamma_bar)
                except ConstraintBoundError:
                    _record(failed, rows, lambda i: check_cv_bound(cv[i], gamma_bar))
            # Products are taken over the strided windows of every run, never
            # over gathered copies: numpy then runs the same unblocked loops
            # as it does on run_single's windows, so that, with potrs for the
            # solves, each run follows run_single's trajectory to the bit.
            G = (Xt @ Xt.transpose(0, 2, 1))[sel]
            try:
                factor = cholesky_stack(G, delta)
            except SingularSystemError:
                singular = _record(failed, rows, lambda i: cholesky_stack(G[i : i + 1], delta))
                G[singular] = np.eye(m)  # stand-ins so that the other rows still factor
                factor = cholesky_stack(G, delta)
            # the update and the energy check share the factor: one solve each row
            sols = solve_cholesky_stack(factor, np.stack((ef - cv, nf, cv), axis=2))
            y = np.zeros((R, m))
            y[sel] = sols[:, :, 0]
            move = (y[:, None, :] @ Xt)[sel, 0]
            if ap:
                move *= config.ap_step
            w_new = w[sel] + move
            if not np.isfinite(w_new).all():
                _record(failed, rows, lambda i: FilterState(w_new[i]))
            noise_quad = np.einsum("ij,ij->i", nf, sols[:, :, 1])
            if not noise_quad.all():
                # a zero noise term leaves g2 = misalignment, which may vanish too
                _record(failed, rows, lambda i: local_check(
                    w0[rows[i]], FilterState(w[rows[i]]), FilterState(w_new[i]),
                    DataWindow(Xt[rows[i]].T, ds[rows[i], s : s + m], nf[i]), cv[i], True, delta,
                ))
            noise_energy[sel] += noise_quad
            if not ap:
                lhs = np.einsum("ij,ij->i", cv, sols[:, :, 2])
                rhs = 2.0 * np.einsum("ij,ij->i", cv, sols[:, :, 1])
                violations[sel] += expands(lhs, rhs)
            w[sel] = w_new
        if failed:
            r = min(failed)
            raise SimulationError(
                f"run {first + r} (seed {config.seed}): iteration {k}: {failed[r]}"
            ) from failed[r]
    denominators = np.einsum("ij,ij->i", w0, w0) + noise_energy
    if not denominators.all():
        r = int(np.flatnonzero(denominators == 0.0)[0])
        raise SimulationError(
            f"run {first + r} (seed {config.seed}): energy-ratio denominator is zero"
        )
    squared = errors**2
    for r in range(R):
        mse += squared[:, r]


def _record(failed: dict, rows: np.ndarray, check) -> list[int]:
    """Call ``check(i)`` for each position ``i`` in ``rows``; return those that raised.

    The first ``SmapError`` per run is kept in ``failed`` under the run's
    row ``rows[i]``.  The stages of a step run in ``run_single``'s order,
    so a run keeps the error that ``run_single`` would raise.
    """
    raised = []
    for i, r in enumerate(rows):
        try:
            check(i)
        except SmapError as err:
            failed.setdefault(int(r), err)
            raised.append(i)
    return raised


def steady_state_db(mse_curve: np.ndarray, fraction: float = 0.2) -> float:
    """Mean of the final stretch of the curve, in dB."""
    curve = np.asarray(mse_curve, dtype=float)
    if curve.size == 0:
        return float("nan")
    tail = curve[-max(1, int(curve.size * fraction)) :]
    return float(10.0 * np.log10(tail.mean()))
