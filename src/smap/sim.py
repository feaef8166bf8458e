"""System-identification experiment engine.

Generates the correlated input / noisy reference pair, drives either
recursion sample by sample with the energy checker and divergence
monitor attached, and averages Monte-Carlo ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NoReturn, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constraints import (
    CUSTOM,
    CV_BOUND_SLACK,
    NOISE,
    ConstraintStrategy,
    fixed_cv,
    make_cv,
    satisfies_bound,
)
from .errors import SimulationError, SmapError, integer, real, require
from .filters import DataWindow, FilterState, ap_update, error_vector, indicator, smap_update
from .filters import _unchecked_window
from .linalg import all_finite, dgttrs, solve_spd_stack
from .robustness import (
    NO_UPDATE,
    DivergenceMonitorRecord,
    GlobalRobustnessReport,
    LocalRobustnessRecord,
    divergence_monitor,  # not called here; perfbench/tracing.py patches this binding
    expands,
    global_accumulate,
    local_check,
)

SMAP = "smap"
AP = "ap"

_CAL_SAMPLES = 10_000  # warm stretch used for the one-shot power calibration
_CAL_SKIP = 500  # transient discarded before measuring

# Runs that run_monte_carlo steps together, and time steps per chunk of such
# a block.  Each run of a block holds its padded input, reference and noise
# series, so peak memory grows with _BLOCK_RUNS * iterations, not with the
# run count; a chunk's Gram matrices and log, with _BLOCK_RUNS * _CHUNK_STEPS.
_BLOCK_RUNS = 64
_CHUNK_STEPS = 64

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
        for name, low in (("num_taps", 1), ("reuse", 0), ("iterations", 0), ("seed", 0)):
            integer(getattr(self, name), name, low)
        for name in ("gamma_bar", "delta", "noise_variance", "ar_coefficient", "snr_db", "ap_step"):
            if name != "ap_step" or self.ap_step is not None:
                real(getattr(self, name), name)
        require(
            isinstance(self.cv_strategy, ConstraintStrategy), "cv_strategy",
            f"cv_strategy must be a ConstraintStrategy, got {self.cv_strategy!r}",
        )
        require(
            self.reuse < self.num_taps, "reuse",
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
    iteration.
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
    return rng.standard_normal(integer(num_taps, "num_taps", 1))


def generate_signals(
    config: ScenarioConfig, w0: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Produce one run's input, reference and noise series.

    The input is a first-order autoregression whose driving noise is
    independent of the measurement noise.  Driving power starts from the
    stationary-variance formula for the given system and is rescaled once
    against a measured warm stretch, putting the clean reference power
    ``snr_db`` above the noise floor.  The reference then applies the
    unknown system to the run segment with zero initial state, matching
    the zero-padded history the filter sees.  Both match ``lfilter`` to the bit.

    Returns
    -------
    (x, d, n)
        Input, noisy reference and noise, each of length
        ``config.iterations``.
    """
    w0 = np.asarray(w0, dtype=float)
    require(
        w0.shape == (config.num_taps,), "w0",
        f"system shape {w0.shape} does not match tap count {config.num_taps}",
    )
    a = config.ar_coefficient
    target = config.reference_power
    lags = np.arange(w0.size)
    stationary_corr = (a**lags)[np.abs(lags[:, None] - lags)]  # a ** |i - j|
    response = float(w0 @ stationary_corr @ w0)
    input_var = target / response if response > 0.0 else target
    drive_std = float(np.sqrt(input_var * (1.0 - a * a)))
    total = _CAL_SAMPLES + config.iterations
    drive = rng.normal(0.0, drive_std, total)
    # the driving sample enters the recursion one step late
    x_all = _ar1(np.concatenate(([0.0], drive[:-1])), a)
    warm_output = np.convolve(w0, x_all[:_CAL_SAMPLES])[:_CAL_SAMPLES]
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        measured = float(np.var(warm_output[_CAL_SKIP:]))
    require(
        math.isfinite(measured), "snr_db",
        f"a reference power of {target} overflows the warm stretch's measured variance",
    )
    if measured > 0.0:
        x_all = x_all * np.sqrt(target / measured)
    x = x_all[_CAL_SAMPLES:]
    # zero initial state: the filter starts cold too
    clean = np.convolve(w0, x)[: x.size] if x.size else np.zeros(0)
    noise = rng.normal(0.0, float(np.sqrt(config.noise_variance)), config.iterations)
    return x, clean + noise, noise


def _ar1(u: np.ndarray, a: float) -> np.ndarray:
    """AR(1) from rest by ``dgttrs``, which rounds as ``lfilter``; BLAS banded solves fuse FMAs."""
    n = u.size
    ipiv = np.arange(1, n + 1, dtype=np.int32)  # no row swaps
    y, info = dgttrs(np.full(n - 1, -a), np.ones(n), np.zeros(n - 1), np.zeros(n - 2), ipiv, u)
    if info:
        raise SimulationError(f"AR(1) solve failed (info={info})")
    return y


def run_rng(seed: int, run_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one run of an experiment."""
    key = (integer(run_index, "run_index"),)
    return np.random.default_rng(np.random.SeedSequence(integer(seed, "seed"), spawn_key=key))


def _series(
    config: ScenarioConfig, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one system and signal set per generator, laid out as both engines read them.

    Returns ``w0``, one row per run, the input store ``xs``, the views ``d``
    and ``n``, and ``bad``, each run's first step whose window takes in a
    non-finite sample, or ``K + 1``.  At step ``k`` the entries
    ``[r, s + j]`` with ``s = K-1-k`` of ``d``, ``n`` and the window view
    ``inputs`` of ``xs`` hold run ``r``'s reference, noise sample and
    input vector ``j`` steps back, and zeros before the start of the run.
    Inputs are stored newest sample first, ``inputs[r, i] = xs[r, i:i+N]``;
    reference and noise are stored oldest first behind ``L + 1`` zeros and
    read reversed (with positive strides, ``local_check``'s noise dot
    product would go to BLAS and round differently).  Both engines take
    their products over strided windows of this store, so numpy runs the
    same loops for both at every filter length.
    """
    K, N, L = config.iterations, config.num_taps, config.reuse
    R = len(rngs)
    xs = np.zeros((R, K + L + N))  # one spare zero in each keeps a window at K = 0
    ds = np.zeros((R, L + 1 + K))
    ns = np.zeros((R, L + 1 + K))
    w0 = np.empty((R, N))
    for r, rng in enumerate(rngs):
        w0[r] = generate_system(N, rng)
        x, ds[r, L + 1 :], ns[r, L + 1 :] = generate_signals(config, w0[r], rng)
        xs[r, :K] = x[::-1]
    finite = np.isfinite(xs[:, :K][:, ::-1]) & np.isfinite(ds[:, L + 1 :])
    finite &= np.isfinite(ns[:, L + 1 :])
    bad = np.full(R, K + 1)  # a sample is taken in first, and fails, at its own step
    np.minimum.at(bad, *np.nonzero(~finite))
    return w0, xs, ds[:, ::-1], ns[:, ::-1], bad


def _check_algorithm(config: ScenarioConfig, algorithm: str) -> None:
    require(algorithm in (SMAP, AP), "algorithm", f"unknown algorithm {algorithm!r}")
    stepless = algorithm == AP and config.ap_step is None
    require(not stepless, "ap_step", "baseline recursion needs ap_step in the configuration")


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
    K, L = config.iterations, config.reuse
    w0, xs, d, n, bad = (a[0] for a in _series(config, [rng]))
    bad = int(bad)  # the series are finite before this step; its checked window raises
    inputs = sliding_window_view(xs, config.num_taps)
    state = FilterState.zeros(config.num_taps)
    misalignment = np.empty(K + 1)
    misalignment[0] = wt_sq = float(w0 @ w0)
    priors = np.empty((K, L + 1))
    flags = np.zeros(K, dtype=bool)
    local_records: list[LocalRobustnessRecord] = []
    peaks: list[float] = []  # max |posterior error| of each updating step
    relaxations = 0
    zero_cv = np.zeros(L + 1)
    lag = np.arange(L + 1)
    relaxed = algorithm == SMAP and config.cv_strategy.kind == NOISE
    try:
        for k in range(K):
            s = K - 1 - k
            make = _unchecked_window if k < bad else DataWindow
            window = make(inputs[s : s + L + 1].T, d[s : s + L + 1], n[s : s + L + 1])
            prev = state
            priors[k] = e = error_vector(prev, window)
            if algorithm == AP:  # the SM-AP move toward (1 - mu) e; padded lags of e are 0
                cv = (1.0 - config.ap_step) * e
                state, outcome = ap_update(prev, window, config.ap_step, config.delta, prior=e)
            else:
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
                    cv = zero_cv  # in band: smap_update need not check it
                state, outcome = smap_update(
                    prev, window, cv, config.gamma_bar, config.delta,
                    enforce_cv_bound=not relaxed and cv is not zero_cv, prior=e,
                )
            flags[k] = updated = outcome.updated
            if updated:
                record = local_check(w0, prev, state, window, cv, True, config.delta, k=k)
                wt_sq = record.w_tilde_sq_after
                peaks.append(float(np.abs(outcome.posterior_errors).max()))
            else:  # local_check's record of a quiet step: the misalignment carries over
                record = LocalRobustnessRecord(k, False, wt_sq, wt_sq, 0.0, 0.0, NO_UPDATE,
                                               0.0, wt_sq, 0.0, 0.0)
            local_records.append(record)
            misalignment[k + 1] = wt_sq
    except SmapError as err:
        raise SimulationError(f"iteration {k}: {err}") from err
    report = global_accumulate(local_records, misalignment[0], misalignment[K])
    # divergence_monitor's max |d - X.T w|, as the step took it; a quiet step's are its priors
    posterior = np.abs(priors).max(axis=1)
    posterior[flags] = peaks
    return RunTrace(
        w0=w0,
        misalignment=misalignment,
        errors=priors[:, 0].copy(),
        update_flags=flags,
        local_records=tuple(local_records),
        divergence_records=tuple(map(DivergenceMonitorRecord, range(K), posterior.tolist())),
        global_report=report,
        cv_relaxations=relaxations,
    )


def run_monte_carlo(config: ScenarioConfig, algorithm: str, runs: int) -> MonteCarloSummary:
    """Average ``runs`` independent runs pointwise.

    Each run draws its system and signals from a substream derived from
    the master seed and the run index, exactly as ``run_single`` does
    with ``run_rng(config.seed, run_index)``, so the ensemble is
    reproducible.  The engine applies every check of ``run_single`` but
    notes only each run's first failing step.  The lowest failing run at
    the first failing step of the first failing block is then replayed
    by ``run_single``, at most that run's steps, whose ``SmapError`` is
    raised as ``run r (seed s): iteration k: ...`` from the same cause.

    The runs are advanced together, in blocks of ``_BLOCK_RUNS``, so
    peak memory grows with the block, not with ``runs``.  A block walks
    time in chunks of ``_CHUNK_STEPS`` steps.  One stacked product builds
    the regularized Gram matrices of every run and step of a chunk.  The
    chunk goes in rounds: in each, every run whose gate fires next takes
    one firing step, stacked over those runs, whose one Cholesky
    factorization serves both the update and the energy check.  For
    SM-AP with ``reuse >= 1`` each run keeps its own step: one product
    gives its prior errors up to the chunk's end, and it jumps to its
    next firing step, so rounds follow updates, not samples.  AP fires
    on every step, and at ``reuse == 0`` a product over several steps
    rounds unlike ``run_single``'s, so both advance one step per round.
    The energy terms, which never feed back into the recursion, are
    folded in one pass at the end of the chunk.

    Both engines read the runs' data from one store, so products go
    through the same numpy loops as in ``run_single`` at every filter
    length; solves go through the same LAPACK calls (``dpotrf``,
    ``dpotrs``), and squared errors are summed in run order.  So each run
    follows its ``run_single`` trajectory to the bit: ``mse_curve``
    equals the average of the ``run_single`` curves and the per-run rates
    and counts match.  The energy check's quadratic forms are summed in
    another order, which could move a step's classification only at the
    edge of the ``PRESERVE_RTOL`` tie band.
    A custom constraint rule is called once per firing run and step,
    round by round and in run order within a round, so a rule that keeps
    state sees a different call order than under ``run_single``.  If the
    ensemble then fails where the replay does not, the error says so.
    """
    _check_algorithm(config, algorithm)
    runs = integer(runs, "runs", 1)
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
    w0, xs, ds, ns, bad = _series(config, [run_rng(config.seed, r) for r in range(first, stop)])
    for a in (xs, ds, ns):  # only at or after a run's step bad, where it stops and is replayed
        a[~np.isfinite(a)] = 0.0
    # Products are taken over strided windows of the store, or of segments
    # gathered from it and windowed alike, never over contiguous copies:
    # numpy then runs the same unblocked loops as it does on run_single's
    # windows, so that, with solve_spd's LAPACK calls for the solves, each
    # run follows run_single's trajectory to the bit.
    # At step k = K-1-s, run r's input and noise windows are xwin[r, s]
    # and nwin[r, s], and segments[r, s] holds the inputs of xwin[r, s].
    # Chunk column c of the chunk views belongs to step k1-1-c.
    inputs = sliding_window_view(xs, N, axis=1)
    xwin = sliding_window_view(inputs, m, axis=1).transpose(0, 1, 3, 2)
    nwin = sliding_window_view(ns, m, axis=1)
    segments = sliding_window_view(xs, m + N - 1, axis=1)
    every, lag = np.arange(R), np.arange(m)
    tri = np.arange(_CHUNK_STEPS) >= np.arange(_CHUNK_STEPS + 1)[:, None]  # tri[d, i] = i >= d
    w = np.zeros((R, N))
    errors = np.empty((K, R))
    noise_energy = np.zeros(R)
    kfail = int(bad.min())  # the first failing step found so far; bad[r] = K: zero denominator

    def fail(rows: np.ndarray, steps, failing: np.ndarray) -> None:
        """Fold runs ``rows[failing]``, at step ``steps`` or ``steps[failing]``, into ``bad``."""
        nonlocal kfail
        np.minimum.at(bad, rows[failing], np.broadcast_to(steps, rows.shape)[failing])
        kfail = int(bad.min())

    def fire(rows: np.ndarray, c, ef: np.ndarray) -> None:
        """One firing step for runs ``rows``, each at its chunk column ``c``."""
        nonlocal w
        steps = k1 - 1 - c
        if rows.size == R and isinstance(c, int):  # every run at one step: views
            s = c + K - k1
            sel, nf, G, Xt = slice(None), nwin[:, s], grams[:, c], xwin[:, s]
        else:
            sel, g = rows, pack[rows, c]
            nf, G = g[:, :m], g[:, m : m + m * m].reshape(-1, m, m)
            # the input segment, windowed as inputs is: the move then takes
            # the same loop as over the store, where a copy would go to BLAS
            Xt = np.ndarray((rows.size, m, N), g.dtype, g, 8 * m * (m + 1), (g.strides[0], 8, 8))
        if not ap and not all_finite(ef):  # the gate's check; AP has no gate
            fail(rows, steps, ~np.isfinite(ef[:, 0]))
        if ap:  # AP's move is the SM-AP move toward (1 - mu) e
            cv = (1.0 - config.ap_step) * ef
        elif strategy.kind == CUSTOM:
            cv = np.zeros(ef.shape)
            for i in range(rows.size):
                try:
                    cv[i] = make_cv(strategy, ef[i], nf[i], gamma_bar, enforce_bound=False)
                except SmapError:  # fails the bound check below, at this step
                    cv[i] = np.nan
        else:
            cv = make_cv(strategy, ef, nf, gamma_bar, enforce_bound=False)
        if k0 < L:  # padded lags stay neutral, as in run_single
            np.copyto(cv, 0.0, where=lag > np.reshape(steps, (-1, 1)))
        if relaxed:
            relaxations[sel] += ~satisfies_bound(cv, gamma_bar)
        elif not ap and not satisfies_bound(cv.ravel(), gamma_bar + CV_BOUND_SLACK):
            fail(rows, steps, ~satisfies_bound(cv, gamma_bar + CV_BOUND_SLACK))
        # right-hand side j is b[:, :, j]; AP solves for e and scales the move
        b = np.array((ef if ap else ef - cv, nf, cv)).transpose(1, 2, 0)
        sols, singular = solve_spd_stack(G, b)
        if singular.any():
            fail(rows, steps, singular)
        move = (sols[:, None, :, 0] @ Xt)[:, 0]
        if ap:
            move *= config.ap_step
        before = w[sel]
        w_new = before + move
        if not all_finite(w_new):
            fail(rows, steps, ~np.isfinite(w_new).all(axis=1))
        log.append((steps, rows, nf, cv, sols, before))
        if rows.size == R:  # w is replaced, not written to: before may be a view of it
            w = w_new
        else:
            w[rows] = w_new

    for k0 in range(0, K, _CHUNK_STEPS):
        k1 = min(K, k0 + _CHUNK_STEPS)
        C = k1 - k0
        cols = slice(K - k1, K - k0)
        chunk, xc, dc = xwin[:, cols], inputs[:, K - k1 :], ds[:, K - k1 :]
        grams = chunk @ chunk.transpose(0, 1, 3, 2)
        if delta != 0.0:
            grams += delta * np.eye(m)
        # one gather of a column serves a firing step: noise, Gram matrix, inputs
        pack = np.concatenate((nwin[:, cols], grams.reshape(R, C, -1), segments[:, cols]), axis=2)
        log = []  # (steps, rows, noise windows, cv, solutions, coefficients before)
        if ap or L == 0:
            # AP fires on every step, and at L = 0 a product over several
            # steps rounds unlike the step's own: one step per round
            for c in range(C - 1, -1, -1):
                e = dc[:, c : c + m] - (chunk[:, c] @ w[:, :, None])[:, :, 0]
                errors[k1 - 1 - c] = e0 = e[:, 0]
                rows = every if ap else (~(np.abs(e0) <= gamma_bar)).nonzero()[0]
                if rows.size:
                    fire(rows, c, e if rows.size == R else e[rows])
                if kfail <= k1 - 1 - c:  # every run is checked up to the first failure
                    break
        else:
            # Each run keeps its own step.  A round takes every run's prior
            # errors from its step on in one product under its present w,
            # records them up to its next step whose gate fires or must
            # reject a non-finite error, and fires it there.  Rounds end at
            # the first failing step: a failed run's next step is past it.
            at = np.zeros(R, dtype=np.intp)  # each run's next step, counted from k0
            while (p := int(at.min())) < (end := min(C, kfail - k0 + 1)):
                h, a = end - p, C - end  # steps k0+p to k0+end-1 are columns a+h-1 to a
                e = dc[:, a : a + h + L] - (xc[:, a : a + h + L] @ w[:, :, None])[:, :, 0]
                e0 = e[:, h - 1 :: -1]  # e0[:, i] is step k0+p+i's
                pending = tri[at - p, :h]
                np.copyto(errors[k0 + p : k0 + end].T, e0, where=pending)
                fires = pending > (np.abs(e0) <= gamma_bar)
                rows = fires.any(axis=1).nonzero()[0]
                q = h - 1 - fires.argmax(axis=1)[rows]
                at.fill(end)  # a run that does not fire is done, up to end
                at[rows] = end - q
                if rows.size:
                    lags = np.ndarray((R, h, m), buffer=e, strides=(e.strides[0], 8, 8))
                    fire(rows, a + q, lags[rows, q])
        if log:
            # The energy terms never feed back into the recursion, so each
            # chunk folds them in one pass, before any failure is replayed.
            steps, hits, nfs, cvs, solss, befores = zip(*log)
            hit, nf, cv, sols = map(np.concatenate, (hits, nfs, cvs, solss))
            noise_quad = np.einsum("ij,ij->i", nf, sols[:, :, 1])
            lhs = np.einsum("ij,ij->i", cv, sols[:, :, 2])
            rhs = 2.0 * np.einsum("ij,ij->i", cv, sols[:, :, 1])
            updates += np.bincount(hit, minlength=R)
            violations += np.bincount(hit[expands(lhs, rhs)], minlength=R)
            noise_energy += np.bincount(hit, noise_quad, R)
            # local_check's last test: g2 = misalignment + noise term may vanish
            if not noise_quad.all():
                wt = w0[hit] - np.concatenate(befores)
                steps = np.concatenate([np.broadcast_to(k, r.shape) for k, r in zip(steps, hits)])
                fail(hit, steps, (noise_quad == 0.0) & (np.einsum("ij,ij->i", wt, wt) == 0.0))
        if kfail < k1:
            break
    fail(every, K, np.einsum("ij,ij->i", w0, w0) + noise_energy == 0.0)  # the denominators
    if kfail <= K:  # the lowest failing run at the first failing step
        _replay(config, algorithm, first + int(bad.argmin()), kfail)
    squared = errors**2
    for r in range(R):
        mse += squared[:, r]


def _replay(config: ScenarioConfig, algorithm: str, run: int, step: int) -> NoReturn:
    """Raise the error of ensemble run ``run``, failing at ``step``, that ``run_single`` raises."""
    where = f"run {run} (seed {config.seed})"
    try:
        run_single(config, algorithm, run_rng(config.seed, run))
    except SmapError as err:
        raise SimulationError(f"{where}: {err}") from (err.__cause__ or err)
    # only a custom rule that keeps state can fail in the ensemble and not alone
    raise SimulationError(f"{where}: failed at iteration {step}, but its replay did not fail")


def steady_state_db(mse_curve: np.ndarray) -> float:
    """Mean of the final fifth of the curve, at least its last point, in dB."""
    curve = np.asarray(mse_curve, dtype=float)
    if curve.size == 0:
        return float("nan")
    tail = curve[-max(1, int(curve.size * 0.2)) :]
    return float(10.0 * np.log10(tail.mean()))
