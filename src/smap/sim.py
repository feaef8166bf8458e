"""System-identification experiment engine.

Generates the correlated input / noisy reference pair, drives either
recursion sample by sample with the energy checker and divergence
monitor attached, and averages Monte-Carlo ensembles.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import NoReturn, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .constraints import (
    CUSTOM,
    NOISE,
    ConstraintStrategy,
    fixed_cv,
    make_cv,
    satisfies_bound,
)
from .errors import SimulationError, SmapError, fits_array, in_range, integer, require
from .filters import DataWindow, FilterState, ap_update, error_vector, smap_update
from .filters import _unchecked_window
from .linalg import _linear_filter, all_finite, solve_spd_stack
from .robustness import (
    DivergenceMonitorRecord,
    GlobalRobustnessReport,
    LocalRobustnessRecord,
    divergence_monitor,  # not called here; perfbench/tracing.py patches this binding
    expands,
    global_accumulate,
    local_check,
    _quiet,
)

SMAP = "smap"
AP = "ap"

_CAL_SAMPLES = 10_000  # warm stretch used for the one-shot power calibration
_CAL_SKIP = 500  # transient discarded before measuring

# Runs that run_monte_carlo steps together, and steps per chunk: a round's
# lookahead, or a stretch of one-step rounds.  A block holds each run's
# padded series, so peak memory grows with _BLOCK_RUNS * iterations, not the
# run count; chunk Grams and the energy log, with _BLOCK_RUNS * _CHUNK_STEPS.
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
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        for name in ("gamma_bar", "delta", "noise_variance", "ar_coefficient", "snr_db", "ap_step"):
            if name != "ap_step" or self.ap_step is not None:
                object.__setattr__(self, name, in_range(getattr(self, name), name))
        require(
            isinstance(self.cv_strategy, ConstraintStrategy), "cv_strategy",
            f"cv_strategy must be a ConstraintStrategy, got {self.cv_strategy!r}",
        )
        require(
            self.reuse < self.num_taps, "reuse",
            f"reuse factor must lie in [0, {self.num_taps - 1}] for "
            f"{self.num_taps} taps, got {self.reuse}",
        )
        samples = _CAL_SAMPLES + self.iterations + self.num_taps + self.reuse
        huge = "iterations" if self.iterations >= self.num_taps else "num_taps"
        fits_array(samples, huge, f"a run's {samples} float64 samples")
        try:  # a finite SNR of +-4000 dB still makes the power overflow, or underflow to 0
            power = self.reference_power
        except OverflowError:
            power = math.inf
        require(
            0.0 < power < math.inf, "snr_db",
            f"an SNR of {self.snr_db} dB puts the reference power at {power}, "
            "outside the positive floats",
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
    iteration.  ``local_records`` and ``divergence_records`` equal the tuples
    of their records; a quiet step's are built from the columns when read.
    """

    w0: np.ndarray
    misalignment: np.ndarray
    errors: np.ndarray
    update_flags: np.ndarray
    max_abs_posterior: np.ndarray
    local_records: Sequence[LocalRobustnessRecord]
    divergence_records: Sequence[DivergenceMonitorRecord]
    global_report: GlobalRobustnessReport
    cv_relaxations: int = 0

    @property
    def update_rate(self) -> float:
        return float(self.update_flags.mean()) if self.update_flags.size else 0.0


class _Records(Sequence):
    """One record per step of a run, read-only; ``build(k)`` makes step ``k``'s when read."""

    def __init__(self, size: int, build) -> None:
        self._size, self._build = size, build

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i):
        steps = range(self._size)[i]  # an int, or a range for a slice
        return tuple(map(self._build, steps)) if isinstance(i, slice) else self._build(steps)

    def __eq__(self, other) -> bool:  # as the tuple of its records; a view on the right reflects
        return tuple(self) == other if isinstance(other, (tuple, _Records)) else NotImplemented


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
    num_taps = integer(num_taps, "num_taps", 1)
    return rng.standard_normal(fits_array(num_taps, "num_taps", f"{num_taps} taps"))


def generate_signals(
    config: ScenarioConfig, w0: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Produce one run's input, reference and noise series.

    The input is a first-order autoregression, run by ``lfilter``'s loop,
    whose driving noise is independent of the measurement noise.  Driving
    power starts from the stationary-variance formula for the given system;
    the run segment alone is then rescaled once against the warm stretch
    before it, putting the clean reference power ``snr_db`` above the noise
    floor.  The reference applies the unknown system to that segment from
    zero state, as the filter's zero-padded history does.  Both match
    ``lfilter`` to the bit.

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
    require(all_finite(w0), "w0", "system coefficients must be finite")
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
    x = x_all[_CAL_SAMPLES:]
    if measured > 0.0:
        x = x * np.sqrt(target / measured)
    # zero initial state: the filter starts cold too
    clean = np.convolve(w0, x)[: x.size] if x.size else np.zeros(0)
    noise = rng.normal(0.0, float(np.sqrt(config.noise_variance)), config.iterations)
    return x, clean + noise, noise


def _ar1(u: np.ndarray, a: float) -> np.ndarray:
    """AR(1) from rest, ``y[k] = u[k] + a y[k-1]``, by the compiled loop ``lfilter`` runs."""
    return _linear_filter(np.ones(1), np.array([1.0, -a]), u, -1)


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
    errors = np.empty(K)
    posterior = np.empty((K, L + 1))  # each step's posterior errors, as the step returned them
    flags = np.zeros(K, dtype=bool)
    records: list[Optional[LocalRobustnessRecord]] = [None] * K  # updating steps' only
    relaxations = 0
    zero_cv = np.zeros(L + 1)  # a quiet step's, which smap_update need not check
    lag = np.arange(L + 1)
    relaxed = config.cv_strategy.kind == NOISE  # read on SM-AP steps only
    try:
        for k in range(K):
            s = K - 1 - k
            make = _unchecked_window if k < bad else DataWindow
            window = make(inputs[s : s + L + 1].T, d[s : s + L + 1], n[s : s + L + 1])
            prev = state
            e = error_vector(prev, window)
            errors[k] = e[0]
            if algorithm == AP:  # the SM-AP move toward (1 - mu) e; padded lags of e are 0
                cv = (1.0 - config.ap_step) * e
                state, outcome = ap_update(prev, window, config.ap_step, config.delta, prior=e)
            else:
                cv = zero_cv
                if fires := config.gamma_bar < abs(e[0]) < math.inf:  # inf, nan: smap_update raises
                    cv = make_cv(config.cv_strategy, e, window.n, config.gamma_bar,
                                 enforce_bound=False)
                    if k < L:
                        cv = np.where(lag <= k, cv, 0.0)
                    if relaxed and not satisfies_bound(cv, config.gamma_bar):
                        relaxations += 1
                state, outcome = smap_update(prev, window, cv, config.gamma_bar, config.delta,
                                             enforce_cv_bound=fires and not relaxed, prior=e)
            flags[k] = updated = outcome.updated
            posterior[k] = outcome.posterior_errors
            if updated:
                records[k] = rec = local_check(w0, prev, state, window, cv, True, config.delta, k=k)
                wt_sq = rec.w_tilde_sq_after
            misalignment[k + 1] = wt_sq  # a quiet step carries it over
    except SmapError as err:
        raise SimulationError(f"iteration {k}: {err}") from err
    report = global_accumulate(filter(None, records), misalignment[0], misalignment[K])
    posterior = np.abs(posterior, out=posterior).max(axis=1)  # divergence_monitor's max |d - X.T w|
    misalignment.flags.writeable = posterior.flags.writeable = False  # the views read them
    return RunTrace(
        w0=w0,
        misalignment=misalignment,
        errors=errors,
        update_flags=flags,
        max_abs_posterior=posterior,
        local_records=_Records(K, partial(_local_record, records, misalignment)),
        divergence_records=_Records(K, partial(_monitor_record, posterior)),
        global_report=report,
        cv_relaxations=relaxations,
    )


def _local_record(records: list, misalignment: np.ndarray, k: int) -> LocalRobustnessRecord:
    """Step ``k``'s stored record, or at a quiet step the one ``local_check`` makes."""
    m = float(misalignment[k + 1])  # a quiet step's misalignment, carried over
    return records[k] or _quiet(k, m, m)


def _monitor_record(posterior: np.ndarray, k: int) -> DivergenceMonitorRecord:
    return DivergenceMonitorRecord(k, float(posterior[k]))


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
    peak memory grows with the block, not with ``runs``.  A block goes in
    rounds: in each, every run whose gate fires next takes one firing
    step, stacked over those runs, whose one Cholesky factorization serves
    both the update and the energy check.  For SM-AP with ``reuse >= 1``
    each run keeps its own step across the block: a round takes its prior
    errors over the next ``_CHUNK_STEPS`` steps in one product and moves
    it to its first firing step among them, or past them, so the rounds
    follow the busiest run's updates, not samples.  AP fires on every
    step, and at ``reuse == 0`` a product over several steps rounds unlike
    ``run_single``'s, so both advance every run one step per round, over
    chunks of ``_CHUNK_STEPS`` steps whose Gram matrices one stacked
    product builds.  The energy terms, which never feed back into the
    recursion, are folded in one pass every ``_CHUNK_STEPS`` rounds.

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
    fits_array(3 * runs, "runs", f"the counts of {runs} runs")  # as counts below holds them
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
    R, m, h = stop - first, L + 1, _CHUNK_STEPS
    ap = algorithm == AP
    relaxed = not ap and strategy.kind == NOISE
    updates, violations, relaxations = counts
    w0, xs, ds, ns, bad = _series(config, [run_rng(config.seed, r) for r in range(first, stop)])
    for a in (xs, ds, ns):  # only at or after a run's step bad, where it stops and is replayed
        a[~np.isfinite(a)] = 0.0
    xs, ds = (np.concatenate((np.zeros((R, h)), a), axis=1) for a in (xs, ds))
    # Products are taken over strided windows of the store, or of segments
    # gathered from it and windowed alike, never over contiguous copies:
    # numpy then runs the same unblocked loops as it does on run_single's
    # windows, so that, with solve_spd's LAPACK calls for the solves, each
    # run follows run_single's trajectory to the bit.
    # At step k = K-1-s, run r's input and noise windows are xwin[r, s]
    # and nwin[r, s], and xseg[r, s] holds the inputs of xwin[r, s].  Its
    # newest input and reference are xs[r, h+s] and ds[r, h+s], behind h
    # zeros that a span reaching past step K-1 reads.
    inputs = sliding_window_view(xs[:, h:], N, axis=1)
    xwin = sliding_window_view(inputs, m, axis=1).transpose(0, 1, 3, 2)
    nwin = sliding_window_view(ns, m, axis=1)
    xseg = sliding_window_view(xs[:, h:], m + N - 1, axis=1)
    every, lag = np.arange(R), np.arange(m)
    ridge = delta * np.eye(m)
    w = np.zeros((R, N))
    errors = np.empty((R, h + K))  # run r's step K-1-s at [r, h+s], as in xs
    noise_energy = np.zeros(R)
    kfail = int(bad.min())  # the first failing step found so far; bad[r] = K: zero denominator
    log = []  # (steps, rows, noise windows, cv, solutions, coefficients before) per round

    def fail(rows: np.ndarray, steps, failing: np.ndarray) -> None:
        """Fold runs ``rows[failing]``, at step ``steps`` or ``steps[failing]``, into ``bad``."""
        nonlocal kfail
        np.minimum.at(bad, rows[failing], np.broadcast_to(steps, rows.shape)[failing])
        kfail = int(bad.min())

    def gram(X: np.ndarray) -> np.ndarray:
        """The regularized Gram matrices ``X Xᵀ + δI`` of a stack of windows ``X``."""
        G = X @ X.swapaxes(-1, -2)
        if delta != 0.0:
            G += ridge
        return G

    def windows(a: np.ndarray, count: int, size: int = N) -> np.ndarray:
        """The first ``count`` windows of ``size`` entries of each row of a gathered ``a``,
        strided as ``inputs`` is: products then take the same loops as over the store."""
        return np.ndarray((len(a), count, size), float, a, 0, (a.strides[0], 8, 8))

    def fire(rows: np.ndarray, steps, ef: np.ndarray, nf, G, Xt) -> None:
        """One firing step for runs ``rows``, at step ``steps`` or ``steps[i]``."""
        nonlocal w
        sel = slice(None) if rows.size == R else rows
        if not ap and not all_finite(ef):  # the gate's check; AP has no gate
            fail(rows, steps, ~np.isfinite(ef[:, 0]))
            ef = np.where(np.isfinite(ef[:, :1]), ef, 0.0)  # keeps a failed run's move finite
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
        if k0 < L:  # padded lags stay neutral, as in run_single; k0 <= every step here
            np.copyto(cv, 0.0, where=lag > np.reshape(steps, (-1, 1)))
        if relaxed:
            relaxations[sel] += ~satisfies_bound(cv, gamma_bar)
        elif not ap and not satisfies_bound(cv.ravel(), gamma_bar):
            fail(rows, steps, ~satisfies_bound(cv, gamma_bar))
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
        if len(log) == h:  # at most as many steps as a chunk of all runs has
            fold()

    def fold() -> None:
        """Fold the logged energy terms, which never feed back into the recursion, and
        empty the log; each block folds its last ones before any failure is replayed."""
        nonlocal updates, violations, noise_energy  # added to in place
        steps, hits, nfs, cvs, solss, befores = zip(*log)
        log.clear()
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

    if ap or L == 0:
        # AP fires on every step, and at L = 0 a product over several steps
        # rounds unlike the step's own: one step per round, in chunks whose
        # Gram matrices one stacked product builds.  Chunk column c of the
        # chunk views belongs to step k0+C-1-c.
        for k0 in range(0, K, h):
            k1 = min(K, k0 + h)
            chunk, dc = xwin[:, K - k1 : K - k0], ds[:, h + K - k1 :]
            grams = gram(chunk)
            for c in range(k1 - k0 - 1, -1, -1):
                k = k1 - 1 - c
                e = dc[:, c : c + m] - (chunk[:, c] @ w[:, :, None])[:, :, 0]
                errors[:, h + K - 1 - k] = e0 = e[:, 0]
                rows = every if ap else (~(np.abs(e0) <= gamma_bar)).nonzero()[0]
                if rows.size == R:  # every run at one step: views
                    fire(rows, k, e, nwin[:, K - 1 - k], grams[:, c], chunk[:, c])
                elif rows.size:
                    Xt = windows(xseg[rows, K - 1 - k], m)
                    fire(rows, k, e[rows], nwin[rows, K - 1 - k], grams[rows, c], Xt)
                if kfail <= k:  # every run is checked up to the first failure
                    break
            if kfail < k1:
                break
    else:
        # Each run keeps its own step across the block.  A round takes every
        # run's prior errors over the h steps from its step, under its present
        # w, and fires the first whose gate fires or must reject a non-finite
        # error, or moves the run past them; runs stop at the first failing
        # step found so far.  Column j of a span's inputs, references and
        # errors holds step at+h-1-j, and the span starts at column K-at.
        at = np.zeros(R, dtype=np.intp)  # each run's next step, at most K
        xspan = sliding_window_view(xs, h + L + N - 1, axis=1)
        dspan = sliding_window_view(ds, h + L, axis=1)
        espan = sliding_window_view(errors, h, axis=1, writeable=True)
        while (k0 := int(at.min())) < (limit := min(K, kfail + 1)):
            start = K - at
            e = dspan[every, start] - (windows(xspan[every, start], h + L) @ w[:, :, None])[:, :, 0]
            espan[every, start] = e[:, :h]
            e0 = e[:, h - 1 :: -1]  # e0[:, i] is step at+i's
            fires = ~(np.abs(e0) <= gamma_bar)
            if near := int(at.max()) > limit - h:  # a span reaches limit: not the steps from there
                fires &= np.arange(h) < (limit - at)[:, None]
            rows = fires.any(axis=1).nonzero()[0]
            q = h - 1 - fires.argmax(axis=1)[rows]  # the first firing step's column
            at += h  # past the span, or past the firing step
            at[rows] -= q
            if near:
                np.minimum(at, K, out=at)
            if rows.size:
                s = K - at[rows]  # the firing steps' store columns
                Xt = windows(xseg[rows, s], m)
                fire(rows, K - 1 - s, windows(e, h, m)[rows, q], nwin[rows, s], gram(Xt), Xt)
    if log:
        fold()
    fail(every, K, np.einsum("ij,ij->i", w0, w0) + noise_energy == 0.0)  # the denominators
    if kfail <= K:  # the lowest failing run at the first failing step
        _replay(config, algorithm, first + int(bad.argmin()), kfail)
    squared = errors[:, h:][:, ::-1] ** 2  # in step order
    for r in range(R):
        mse += squared[r]


def _replay(config: ScenarioConfig, algorithm: str, run: int, step: int) -> NoReturn:
    """Raise the error of ensemble run ``run``, failing at ``step``, that ``run_single`` raises."""
    where = f"run {run} (seed {config.seed})"
    try:
        run_single(config, algorithm, run_rng(config.seed, run))
    except SmapError as err:
        raise SimulationError(f"{where}: {err}") from (err.__cause__ or err)
    # only a custom rule that keeps state can fail in the ensemble and not alone
    raise SimulationError(f"{where}: failed at iteration {step}, but its replay did not fail")


def steady_state_db(mse_curve: np.ndarray, square: bool = False) -> float:
    """Mean of the final fifth of the curve, at least its last point, in dB.  With
    ``square`` the curve holds errors, and only that fifth of them is squared."""
    curve = np.asarray(mse_curve, dtype=float)
    if curve.size == 0:
        return float("nan")
    tail = curve[-max(1, int(curve.size * 0.2)) :]
    return float(10.0 * np.log10((tail**2 if square else tail).mean()))
