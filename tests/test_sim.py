"""Tests for signal generation and the experiment driver."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from smap import sim
from smap.constraints import custom_cv, fixed_cv, noise_cv, sc_cv, zero_cv
from smap.errors import InvalidInputError, SimulationError, SmapError
from smap.filters import DataWindow, ap_update, error_vector, smap_update
from smap.robustness import divergence_monitor, local_check
from smap.sim import (
    AP,
    SMAP,
    ScenarioConfig,
    generate_signals,
    generate_system,
    run_monte_carlo,
    run_rng,
    run_single,
    steady_state_db,
)


class TestScenarioConfig:
    def test_defaults(self):
        config = ScenarioConfig()
        assert config.num_taps == 10
        assert config.reuse == 2
        assert config.gamma_bar == pytest.approx(0.2236)
        assert config.delta == 1e-12
        assert config.noise_variance == 0.01
        assert config.ar_coefficient == 0.95
        assert config.snr_db == 20.0
        assert config.cv_strategy.kind == "fixed"
        assert config.ap_step is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_taps": 0},
            {"reuse": -1},
            {"gamma_bar": 0.0},
            {"delta": -1e-9},
            {"noise_variance": 0.0},
            {"ar_coefficient": 1.0},
            {"ar_coefficient": -1.5},
            {"iterations": -1},
            {"reuse": 10},
            {"gamma_bar": float("inf")},
            {"snr_db": float("nan")},
            {"ap_step": 0.0},
            {"ap_step": 1.5},
            {"snr_db": 4000.0},  # reference power overflows
            {"snr_db": -4000.0},  # reference power underflows to zero
            {"num_taps": 2.5},
            {"reuse": 1.5},
            {"iterations": 2.5},
            {"seed": 1.5},
            {"seed": -1},
            {"cv_strategy": "fixed"},
            {"gamma_bar": "0.2"},
            {"ap_step": "0.5"},
            {"num_taps": "3"},
            {"seed": "3"},
            {"seed": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInputError) as exc:
            ScenarioConfig(**kwargs)
        assert exc.value.field == next(iter(kwargs))

    def test_accepts_numpy_integers(self):
        config = ScenarioConfig(
            num_taps=np.int64(4), reuse=np.int32(1), iterations=np.int16(60), seed=np.uint8(3)
        )
        assert run_single(config, SMAP, run_rng(config.seed, 0)).errors.size == 60


class TestSignals:
    def test_system_moments_and_reproducibility(self):
        w0 = generate_system(100_000, np.random.default_rng(11))
        assert abs(w0.mean()) < 0.01
        assert abs(w0.var() - 1.0) < 0.02
        again = generate_system(100_000, np.random.default_rng(11))
        npt.assert_array_equal(w0, again)
        with pytest.raises(InvalidInputError):
            generate_system(0, np.random.default_rng(0))

    def test_snr_calibration(self):
        config = ScenarioConfig(iterations=20_000)
        rng = np.random.default_rng(7)
        w0 = generate_system(config.num_taps, rng)
        x, d, n = generate_signals(config, w0, rng)
        assert x.shape == d.shape == n.shape == (20_000,)
        clean = d - n
        snr = 10.0 * np.log10(clean.var() / n.var())
        assert abs(snr - config.snr_db) < 0.5
        assert abs(n.var() - config.noise_variance) < 0.002

    def test_overflowing_warm_stretch_is_rejected(self):
        # the reference power is a float at both SNRs, but at 3070 dB the
        # warm stretch's variance overflows and would rescale the input to 0
        w0 = generate_system(10, np.random.default_rng(1))
        with pytest.raises(InvalidInputError) as exc:
            generate_signals(ScenarioConfig(snr_db=3070.0), w0, np.random.default_rng(2))
        assert exc.value.field == "snr_db"
        x, d, n = generate_signals(ScenarioConfig(snr_db=3060.0), w0, np.random.default_rng(2))
        assert np.isfinite(x).all() and np.isfinite(d).all()
        assert np.abs(x).max() > 0.0

    def test_input_autocorrelation(self):
        config = ScenarioConfig(iterations=100_000)
        rng = np.random.default_rng(3)
        w0 = generate_system(config.num_taps, rng)
        x, _, _ = generate_signals(config, w0, rng)
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho - 0.95) < 0.01

    def test_white_input_when_ar_zero(self):
        config = ScenarioConfig(iterations=100_000, ar_coefficient=0.0)
        rng = np.random.default_rng(3)
        w0 = generate_system(config.num_taps, rng)
        x, _, _ = generate_signals(config, w0, rng)
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho) < 0.02

    def test_reference_matches_zero_padded_history(self):
        # the clean reference at every step must equal the dot product of
        # the unknown system with the same truncated window the filter sees
        config = ScenarioConfig(iterations=40)
        rng = np.random.default_rng(5)
        w0 = generate_system(config.num_taps, rng)
        x, d, n = generate_signals(config, w0, rng)
        for k in (0, 3, 30):
            window = np.array(
                [x[k - i] if k - i >= 0 else 0.0 for i in range(config.num_taps)]
            )
            assert d[k] - n[k] == pytest.approx(window @ w0, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        config = ScenarioConfig()
        with pytest.raises(InvalidInputError) as exc:
            generate_signals(config, np.zeros(3), np.random.default_rng(0))
        assert exc.value.field == "w0"

    @pytest.mark.parametrize("a", [0.95, -0.95, 0.5, 0.9999, -0.3, 0.0])
    @pytest.mark.parametrize("n", [1, 10, 257, 1024])
    def test_stationary_correlation_gather_matches_power_matrix(self, a, n):
        # generate_signals gathers a ** |i - j| from the N powers of a; it
        # must give the bytes of the N x N power matrix it replaced
        lags = np.arange(n)
        gathered = (a**lags)[np.abs(lags[:, None] - lags)]
        assert gathered.tobytes() == (a ** np.abs(lags[:, None] - lags[None, :])).tobytes()

    @pytest.mark.parametrize(
        "field, args",
        [
            ("seed", (-1, 0)),
            ("seed", (1.5, 0)),
            ("seed", ("3", 0)),
            ("run_index", (0, -1)),
            ("run_index", (0, "3")),
            ("run_index", (0, 2.0)),
        ],
    )
    def test_run_rng_rejects_bad_arguments(self, field, args):
        with pytest.raises(InvalidInputError) as exc:
            run_rng(*args)
        assert exc.value.field == field

    def test_run_rng_takes_numpy_integers_as_ints(self):
        assert run_rng(np.uint8(3), np.int64(2)).random() == run_rng(3, 2).random()

    @pytest.mark.parametrize(
        "a", [0.0, -0.0, 0.5, -0.5, 0.95, -0.95, 0.9999, -0.9999, "random"]
    )
    @pytest.mark.parametrize("n", [3, 10, 11_000])
    @pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
    def test_ar1_matches_lfilter_to_the_bit(self, a, n, scale):
        rng = np.random.default_rng(n)
        coefficients = rng.uniform(-0.9999, 0.9999, 8) if a == "random" else [a]
        for coefficient in coefficients:
            u = scale * rng.standard_normal(n)
            u[0] = 0.0  # generate_signals delays the drive by one step
            got = sim._ar1(u, coefficient)
            want = lfilter([1.0], [1.0, -coefficient], u)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), coefficient
            assert np.array_equal(np.signbit(got), np.signbit(want)), coefficient

    @pytest.mark.parametrize("ar", [0.0, 0.95, -0.95])
    @pytest.mark.parametrize("iterations", [0, 1, 1000])
    @pytest.mark.parametrize("num_taps", [1, 10, 256])
    def test_signals_match_the_lfilter_construction_to_the_bit(self, ar, iterations, num_taps):
        config = ScenarioConfig(
            num_taps=num_taps, reuse=0, iterations=iterations, ar_coefficient=ar
        )
        seed = 1000 * num_taps + iterations
        w0 = generate_system(num_taps, np.random.default_rng(seed))
        got = generate_signals(config, w0, np.random.default_rng(seed + 1))
        want = _lfilter_signals(config, w0, np.random.default_rng(seed + 1))
        for g, w in zip(got, want):
            assert g.shape == w.shape == (iterations,)
            assert g.tobytes() == w.tobytes()

    def test_import_does_not_load_scipy_signal(self):
        # scipy.signal and scipy.linalg's package init (which pulls in
        # numpy.f2py and numpy.testing) cost most of the start-up time and
        # tens of MB, and the library needs only three LAPACK routines
        src = os.path.dirname(os.path.dirname(sim.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        heavy = ["scipy.signal", "scipy.linalg", "numpy.f2py", "numpy.testing"]
        code = f"import sys, smap, smap.cli; print([m for m in {heavy!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def _lfilter_signals(config, w0, rng):
    """generate_signals as built on scipy.signal.lfilter."""
    a = config.ar_coefficient
    target = config.reference_power
    lags = np.arange(w0.size)
    response = float(w0 @ (a ** np.abs(lags[:, None] - lags[None, :])) @ w0)
    input_var = target / response if response > 0.0 else target
    drive_std = float(np.sqrt(input_var * (1.0 - a * a)))
    drive = rng.normal(0.0, drive_std, sim._CAL_SAMPLES + config.iterations)
    x_all = lfilter([1.0], [1.0, -a], np.concatenate(([0.0], drive[:-1])))
    warm_output = lfilter(w0, [1.0], x_all[: sim._CAL_SAMPLES])
    measured = float(np.var(warm_output[sim._CAL_SKIP :]))
    if measured > 0.0:
        x_all = x_all * np.sqrt(target / measured)
    x = x_all[sim._CAL_SAMPLES :]
    clean = lfilter(w0, [1.0], x) if x.size else np.zeros(0)
    noise = rng.normal(0.0, float(np.sqrt(config.noise_variance)), config.iterations)
    return x, clean + noise, noise


class TestRunSingle:
    def test_zero_iterations(self):
        config = ScenarioConfig(iterations=0, seed=1)
        trace = run_single(config, SMAP, run_rng(1, 0))
        assert trace.errors.shape == (0,)
        assert trace.misalignment.shape == (1,)
        assert trace.local_records == ()
        assert trace.global_report.ratio == 1.0
        assert trace.update_rate == 0.0

    @pytest.mark.parametrize("num_taps,reuse", [(1, 0), (3, 2), (10, 2), (12, 9)])
    def test_windows_are_zero_padded_tap_delay_lines(self, monkeypatch, num_taps, reuse):
        # the engines share one store, so check it against the raw signals:
        # every window, the warm-up steps k < L included, exactly; finite
        # series go through the unchecked windows, each one the checked
        # DataWindow of its data field for field
        windows = []
        unchecked = sim._unchecked_window

        def record(X, d, n):
            windows.append((X, d, n))
            window, checked = unchecked(X, d, n), DataWindow(X, d, n)
            for name in ("X", "d", "n"):
                field, expected = getattr(window, name), getattr(checked, name)
                assert field.dtype == expected.dtype and field.shape == expected.shape
                npt.assert_array_equal(field, expected)
            return window

        monkeypatch.setattr(sim, "_unchecked_window", record)
        monkeypatch.setattr(sim, "DataWindow", None)  # no window is checked again
        config = ScenarioConfig(iterations=30, num_taps=num_taps, reuse=reuse, seed=3)
        run_single(config, SMAP, run_rng(3, 0))
        rng = run_rng(3, 0)
        x, d, n = generate_signals(config, generate_system(num_taps, rng), rng)

        def past(series, k):
            return series[k] if k >= 0 else 0.0

        assert len(windows) == config.iterations
        lags = range(reuse + 1)
        for k, (X, dk, nk) in enumerate(windows):
            taps = [[past(x, k - j - i) for j in lags] for i in range(num_taps)]
            npt.assert_array_equal(X, taps)
            npt.assert_array_equal(dk, [past(d, k - j) for j in lags])
            npt.assert_array_equal(nk, [past(n, k - j) for j in lags])

    def test_bitwise_reproducible(self):
        config = ScenarioConfig(iterations=200, seed=42)
        first = run_single(config, SMAP, run_rng(42, 0))
        second = run_single(config, SMAP, run_rng(42, 0))
        npt.assert_array_equal(first.errors, second.errors)
        npt.assert_array_equal(first.misalignment, second.misalignment)
        npt.assert_array_equal(first.update_flags, second.update_flags)

    def test_skipped_steps_freeze_the_state(self):
        config = ScenarioConfig(iterations=400, seed=9)
        trace = run_single(config, SMAP, run_rng(9, 0))
        assert trace.errors.shape == (400,)
        assert len(trace.local_records) == len(trace.divergence_records) == 400
        skipped = np.flatnonzero(~trace.update_flags)
        assert skipped.size > 0  # the gate must actually reject some steps
        for k in skipped[:50]:
            assert trace.misalignment[k + 1] == trace.misalignment[k]
        assert trace.update_rate == pytest.approx(trace.update_flags.mean())

    def test_sign_led_strategy_passes_enforcement(self):
        config = ScenarioConfig(iterations=600, seed=13, cv_strategy=sc_cv())
        trace = run_single(config, SMAP, run_rng(13, 0))
        assert trace.cv_relaxations == 0
        assert trace.global_report.ratio <= 1.0 + 1e-8

    def test_noise_strategy_relaxes_but_never_expands(self):
        config = ScenarioConfig(iterations=600, seed=13, cv_strategy=noise_cv())
        trace = run_single(config, SMAP, run_rng(13, 0))
        assert trace.cv_relaxations > 0
        assert trace.global_report.condition_violations == 0

    def test_baseline_updates_every_step(self):
        config = ScenarioConfig(iterations=100, seed=2, ap_step=0.5)
        trace = run_single(config, AP, run_rng(2, 0))
        assert trace.update_flags.all()
        assert trace.global_report.update_set_size == 100

    def test_baseline_certificate_counts_expanding_steps(self):
        # `smap run --mu 0.05 --iters 120 --taps 13 --reuse 8 --delta 1e-3 --seed 18`:
        # AP is SM-AP aiming at (1 - mu) e, so its ratio above 1 comes with
        # expanding steps, in both engines
        config = ScenarioConfig(
            iterations=120, num_taps=13, reuse=8, delta=1e-3, ap_step=0.05, seed=18
        )
        report = run_single(config, AP, run_rng(18, 0)).global_report
        assert report.condition_violations == 74
        assert f"{report.ratio:.6f}" == "2.869192"
        npt.assert_array_equal(run_monte_carlo(config, AP, 1).violation_counts, [74])

    def test_unknown_algorithm_rejected(self):
        config = ScenarioConfig(iterations=10)
        with pytest.raises(InvalidInputError) as exc:
            run_single(config, "nlms", run_rng(0, 0))
        assert exc.value.field == "algorithm"

    def test_baseline_needs_step_size(self):
        config = ScenarioConfig(iterations=10)
        with pytest.raises(InvalidInputError) as exc:
            run_single(config, AP, run_rng(0, 0))
        assert exc.value.field == "ap_step"

    @pytest.mark.parametrize(
        "drive",
        [
            lambda config: run_single(config, SMAP, run_rng(0, 0)),
            lambda config: run_monte_carlo(config, SMAP, 2),
        ],
        ids=["run_single", "run_monte_carlo"],
    )
    def test_non_callable_custom_rule_is_rejected_before_the_run(self, drive):
        # the rule is checked when the strategy is built, not when a step calls it
        with pytest.raises(InvalidInputError) as exc:
            drive(ScenarioConfig(iterations=10, cv_strategy=custom_cv(5)))
        assert exc.value.field == "fn"

    def test_unregularized_warmup_failure_is_wrapped(self, monkeypatch):
        # with an all-zero input every window's Gram matrix vanishes, so
        # without the diagonal bump the first update has nothing to solve
        monkeypatch.setattr(sim, "generate_signals", _zero_input)
        config = ScenarioConfig(iterations=5, delta=0.0, seed=0)
        with pytest.raises(SimulationError, match="iteration 0: Gram system is not positive"):
            run_single(config, SMAP, run_rng(0, 0))

    def test_adversarial_strategy_keeps_identity_tight(self):
        # in-band but otherwise arbitrary targets, including during the
        # padded warm-up where the unused components must be masked
        draws = np.random.default_rng(99)

        def adversary(prior, noise_window, gamma_bar):
            return draws.uniform(-gamma_bar, gamma_bar, prior.size)

        config = ScenarioConfig(
            iterations=50, seed=21, cv_strategy=custom_cv(adversary)
        )
        trace = run_single(config, SMAP, run_rng(21, 0))
        assert sum(r.updated for r in trace.local_records) > 10
        for record in trace.local_records:
            if record.updated:
                assert record.identity_residual <= 1e-8 * max(1.0, record.g2)

    def test_zero_target_strategy_never_expands(self):
        config = ScenarioConfig(iterations=300, seed=4, cv_strategy=zero_cv())
        trace = run_single(config, SMAP, run_rng(4, 0))
        assert trace.global_report.condition_violations == 0
        assert trace.global_report.ratio <= 1.0 + 1e-8

    @pytest.mark.parametrize("case", ["fixed", "sccv", "noise", "ap:0.9"])
    def test_divergence_records_match_the_monitor(self, monkeypatch, case):
        # an SM-AP step's record is read off the update's posterior errors;
        # it must be the one divergence_monitor gives, at every step
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        config = ScenarioConfig(iterations=300, seed=13, **kwargs)
        trace, steps = _spied_run(monkeypatch, config, algorithm)
        if case == "noise":
            assert trace.cv_relaxations > 0
        assert 0 < trace.update_flags.sum() and len(steps) == 300
        for k, ((_, window, _, state), record) in enumerate(
            zip(steps, trace.divergence_records, strict=True)
        ):
            assert record == divergence_monitor(state, window, k=k)

    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-3])
    @pytest.mark.parametrize("num_taps,reuse", [(1, 0), (10, 2), (16, 9)])
    @pytest.mark.parametrize("case", ["fixed", "sccv", "noise", "zero", "custom", "ap:0.9"])
    def test_records_match_a_replay_through_the_public_checks(
        self, monkeypatch, case, num_taps, reuse, delta
    ):
        # run_single builds a quiet step's record itself and carries the
        # misalignment over; replaying every step through local_check and
        # divergence_monitor must give the same records and misalignment,
        # bit for bit, the cold-start steps k < reuse included
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        config = ScenarioConfig(
            iterations=150, num_taps=num_taps, reuse=reuse, delta=delta, seed=25, **kwargs
        )
        trace, steps = _spied_run(monkeypatch, config, algorithm)
        assert len(steps) == config.iterations
        assert 0 < trace.update_flags.sum() and (algorithm == AP or not trace.update_flags.all())
        local, monitored = [], []
        for k, (before, window, cv, after) in enumerate(steps):
            updated = bool(trace.update_flags[k])
            if algorithm == AP:  # the SM-AP target that AP's move aims at
                cv = (1.0 - config.ap_step) * error_vector(before, window)
            local.append(local_check(trace.w0, before, after, window, cv, updated, delta, k=k))
            monitored.append(divergence_monitor(after, window, k=k))
        assert trace.local_records == tuple(local)
        assert trace.divergence_records == tuple(monitored)
        misalignment = [float(trace.w0 @ trace.w0)] + [rec.w_tilde_sq_after for rec in local]
        npt.assert_array_equal(trace.misalignment, misalignment)


def _spied_run(monkeypatch, config, algorithm):
    """``run_single``'s trace, and each step's ``(state before, window, cv,
    state after)`` as its update took them; AP's entry has no cv (None)."""
    steps = []

    def spy(update):
        def step(before, window, *args, **kwargs):
            after, outcome = update(before, window, *args, **kwargs)
            steps.append((before, window, args[0] if update is smap_update else None, after))
            return after, outcome

        return step

    monkeypatch.setattr(sim, "smap_update", spy(smap_update))
    monkeypatch.setattr(sim, "ap_update", spy(ap_update))
    return run_single(config, algorithm, run_rng(config.seed, 0)), steps


def _zero_input(config, w0, rng):
    """``generate_signals`` with the input zeroed, leaving every window singular."""
    x, d, n = generate_signals(config, w0, rng)
    return np.zeros_like(x), d + 1.0, n  # the offset makes the gate fire at once


def _cause(err):
    """The type and text of the error an ensemble or run failure was raised from."""
    return type(err.__cause__), str(err.__cause__)


def _halved_reversed(prior, noise_window, gamma_bar):
    """A stateless in-band custom rule."""
    return np.clip(0.5 * prior[::-1], -gamma_bar, gamma_bar)


ENSEMBLE_CASES = {
    "fixed": {"cv_strategy": fixed_cv()},
    "sccv": {"cv_strategy": sc_cv()},
    "noise": {"cv_strategy": noise_cv()},
    "zero": {"cv_strategy": zero_cv()},
    "custom": {"cv_strategy": custom_cv(_halved_reversed)},
    "ap:0.9": {"ap_step": 0.9},
    "ap:0.05": {"ap_step": 0.05},
}


def _assert_lockstep_matches_run_single(config, algorithm, runs):
    """The lockstep engine against the scalar reference, run by run, to the bit."""
    summary = run_monte_carlo(config, algorithm, runs)
    traces = [run_single(config, algorithm, run_rng(config.seed, i)) for i in range(runs)]
    npt.assert_array_equal(summary.update_rates, [t.update_rate for t in traces])
    npt.assert_array_equal(
        summary.violation_counts, [t.global_report.condition_violations for t in traces]
    )
    npt.assert_array_equal(summary.cv_relaxations, [t.cv_relaxations for t in traces])
    npt.assert_array_equal(summary.mse_curve, sum(t.squared_error for t in traces) / runs)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "reuse,num_taps", [(0, 3), (2, 3), (0, 10), (2, 10), (4, 10), (5, 12), (2, 20), (8, 64)]
    )
    @pytest.mark.parametrize("case", list(ENSEMBLE_CASES))
    def test_lockstep_matches_run_single(self, case, reuse, num_taps):
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        for seed in (0, 1, 2):
            config = ScenarioConfig(
                iterations=150, num_taps=num_taps, reuse=reuse, seed=seed, **kwargs
            )
            _assert_lockstep_matches_run_single(config, algorithm, 4)

    @pytest.mark.parametrize("reuse,num_taps", [(0, 3), (2, 3), (2, 10), (5, 12), (8, 64)])
    @pytest.mark.parametrize("case", ["fixed", "sccv", "zero", "noise", "ap:0.9"])
    def test_unregularized_lockstep_matches_run_single(self, case, reuse, num_taps):
        # delta = 0, the paper's SM-AP: the padded lags of the first L steps
        # leave the Gram matrix singular, and both engines solve the rest
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        for seed in (0, 1):
            config = ScenarioConfig(
                iterations=150, num_taps=num_taps, reuse=reuse, delta=0.0, seed=seed, **kwargs
            )
            _assert_lockstep_matches_run_single(config, algorithm, 4)

    @pytest.mark.parametrize("runs", [1, 8, 65])
    @pytest.mark.parametrize("reuse", [1, 2, 8])
    @pytest.mark.parametrize("iterations", [1, 63, 64, 65, 200])
    def test_per_run_steps_match_run_single(self, iterations, reuse, runs):
        # runs jump to their own firing steps: chunk ends, ragged last
        # chunks and a second block of runs must not move a bit
        config = ScenarioConfig(
            iterations=iterations, reuse=reuse, seed=iterations + runs, cv_strategy=sc_cv()
        )
        _assert_lockstep_matches_run_single(config, SMAP, runs)

    def test_sparse_ensemble_solves_per_update_not_per_step(self, monkeypatch):
        # each solve call serves one firing step of every run whose gate
        # fires next, so a sparse ensemble needs far fewer calls than steps
        calls = []
        solve = sim.solve_spd_stack

        def spy(G, b):
            calls.append(len(G))
            return solve(G, b)

        monkeypatch.setattr(sim, "solve_spd_stack", spy)
        config = ScenarioConfig(iterations=1000, seed=0, cv_strategy=sc_cv())
        _assert_lockstep_matches_run_single(config, SMAP, 8)
        assert 0 < len(calls) <= 0.3 * config.iterations

    def test_earlier_failure_of_a_higher_run_wins(self, monkeypatch):
        # The rule fails on a reference spike.  Run 0 never fires, so its
        # first round takes it straight to its spike at step 40; run 1
        # fires on its first steps and meets its spike at step 20 only in
        # a later round of the same chunk.
        def faulty(config, w0, rng):
            x, d, n = generate_signals(config, w0, rng)
            run = rng.bit_generator.seed_seq.spawn_key[0]
            d = np.zeros_like(d) if run == 0 else d + 10.0
            d[40 if run == 0 else 20] = 1e6
            return x, d, n

        def rule(prior, noise_window, gamma_bar):
            return np.full(prior.size, (3.0 if abs(prior[0]) > 1e5 else 1.0) * gamma_bar)

        monkeypatch.setattr(sim, "generate_signals", faulty)
        config = ScenarioConfig(iterations=100, seed=6, cv_strategy=custom_cv(rule))
        with pytest.raises(SimulationError) as single:
            run_single(config, SMAP, run_rng(6, 1))
        assert str(single.value).startswith("iteration 20: ")
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, SMAP, 2)
        assert str(ensemble.value) == f"run 1 (seed 6): {single.value}"

    @pytest.mark.parametrize("series", ["x", "d", "n"])
    @pytest.mark.parametrize(
        "algorithm,kwargs",
        [
            pytest.param(SMAP, {"cv_strategy": sc_cv()}, id="smap:sccv"),
            pytest.param(SMAP, {"cv_strategy": fixed_cv(), "reuse": 0}, id="smap:fixed-reuse0"),
            pytest.param(AP, {"ap_step": 0.9}, id="ap:0.9"),
        ],
    )
    def test_non_finite_sample_fails_as_in_run_single(self, monkeypatch, algorithm, kwargs, series):
        # per-run steps, one step per round, and AP: a NaN in run 2's input,
        # reference or noise fails the window that takes it in, at step 30
        def faulty(config, w0, rng):
            signals = dict(zip("xdn", generate_signals(config, w0, rng)))
            if rng.bit_generator.seed_seq.spawn_key == (2,):
                signals[series][30] = np.nan
            return signals["x"], signals["d"], signals["n"]

        monkeypatch.setattr(sim, "generate_signals", faulty)
        config = ScenarioConfig(iterations=100, seed=1, **kwargs)
        with pytest.raises(SimulationError) as single:
            run_single(config, algorithm, run_rng(1, 2))
        name = series.upper() if series == "x" else series
        assert str(single.value) == f"iteration 30: window {name} must be finite"
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, algorithm, 4)
        assert str(ensemble.value) == f"run 2 (seed 1): {single.value}"

    @pytest.mark.parametrize("series", ["x", "d", "n", "xd"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [0, 30, 99])
    def test_series_check_finds_the_first_bad_step(self, monkeypatch, step, value, series):
        # both engines read the one check of the series: the first and last
        # steps, every non-finite value, and x and d bad at once, where the
        # checked window names X first, as DataWindow checks it
        def faulty(config, w0, rng):
            signals = dict(zip("xdn", generate_signals(config, w0, rng)))
            if rng.bit_generator.seed_seq.spawn_key == (1,):
                for name in series:
                    signals[name][step] = value
            return signals["x"], signals["d"], signals["n"]

        monkeypatch.setattr(sim, "generate_signals", faulty)
        config = ScenarioConfig(iterations=100, seed=4, cv_strategy=sc_cv())
        with pytest.raises(SimulationError) as single:
            run_single(config, SMAP, run_rng(4, 1))
        name = "X" if "x" in series else series
        assert str(single.value) == f"iteration {step}: window {name} must be finite"
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, SMAP, 3)
        assert str(ensemble.value) == f"run 1 (seed 4): {single.value}"

    @pytest.mark.parametrize("case", list(ENSEMBLE_CASES))
    def test_passing_ensemble_never_replays(self, monkeypatch, case):
        # run_single is called only to replay a failure
        calls = []
        monkeypatch.setattr(sim, "run_single", lambda *args: calls.append(args))
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        run_monte_carlo(ScenarioConfig(iterations=150, seed=2, **kwargs), algorithm, 4)
        assert calls == []

    def test_failure_its_replay_does_not_repeat_is_reported(self):
        # A rule that keeps state: out of band on its fifth call only, which
        # the replay, counting on from the ensemble's calls, never makes.
        # The prior error of that call finds its run and step.
        seed, priors = 3, []

        def rule(prior, noise_window, gamma_bar):
            priors.append(prior[0])
            if len(priors) == 5:
                return np.full(prior.size, 2.0 * gamma_bar)
            return _halved_reversed(prior, noise_window, gamma_bar)

        plain = ScenarioConfig(iterations=100, seed=seed, cv_strategy=custom_cv(_halved_reversed))
        traces = [run_single(plain, SMAP, run_rng(seed, run)) for run in range(3)]
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(replace(plain, cv_strategy=custom_cv(rule)), SMAP, 3)
        (run, step), = [
            (run, k) for run in range(3) for k in np.flatnonzero(traces[run].errors == priors[4])
        ]
        assert str(ensemble.value) == (
            f"run {run} (seed {seed}): failed at iteration {step}, but its replay did not fail"
        )

    def test_blocks_join_in_run_order(self, monkeypatch):
        config = ScenarioConfig(iterations=60, seed=8, cv_strategy=sc_cv())
        whole = run_monte_carlo(config, SMAP, 5)
        monkeypatch.setattr(sim, "_BLOCK_RUNS", 2)
        blocked = run_monte_carlo(config, SMAP, 5)
        npt.assert_array_equal(blocked.mse_curve, whole.mse_curve)
        npt.assert_array_equal(blocked.update_rates, whole.update_rates)
        npt.assert_array_equal(blocked.violation_counts, whole.violation_counts)

    @pytest.mark.parametrize("iterations", [0, 60, 63, 130])
    @pytest.mark.parametrize("case", ["fixed", "sccv", "noise", "ap:0.9"])
    def test_chunk_seams_leave_the_ensemble_unchanged(self, monkeypatch, case, iterations):
        # 130 steps cross the default chunk seam too; 63 ends on a seam of 7
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        config = ScenarioConfig(iterations=iterations, seed=3, **kwargs)
        whole = run_monte_carlo(config, algorithm, 4)
        monkeypatch.setattr(sim, "_CHUNK_STEPS", 7)
        chunked = run_monte_carlo(config, algorithm, 4)
        for name in ("mse_curve", "update_rates", "violation_counts", "cv_relaxations"):
            npt.assert_array_equal(getattr(chunked, name), getattr(whole, name))
        _assert_lockstep_matches_run_single(config, algorithm, 4)

    def test_chunk_buffers_do_not_grow_with_iterations(self):
        # Only the block's series (input, reference, noise, errors and
        # squared errors, R x K each) may grow with K; a per-chunk log or
        # Gram buffer kept for the whole run would grow 3 to 7 times as
        # fast, whatever R and K.  tracemalloc slows every allocation, so
        # the pair is kept small.
        runs, short, long = 16, 250, 2000

        def peak(iterations: int) -> int:
            tracemalloc.start()
            try:
                run_monte_carlo(ScenarioConfig(iterations=iterations), SMAP, runs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        series = 5 * runs * (long - short) * 8
        assert peak(long) - peak(short) <= 1.1 * series

    def test_single_run_matches_run_single(self):
        config = ScenarioConfig(iterations=150, seed=6)
        summary = run_monte_carlo(config, SMAP, runs=1)
        trace = run_single(config, SMAP, run_rng(6, 0))
        npt.assert_array_equal(summary.mse_curve, trace.squared_error)
        assert summary.mean_update_rate == trace.update_rate

    def test_average_over_three_runs(self):
        config = ScenarioConfig(iterations=80, seed=17)
        summary = run_monte_carlo(config, SMAP, runs=3)
        manual = np.mean(
            [
                run_single(config, SMAP, run_rng(17, i)).squared_error
                for i in range(3)
            ],
            axis=0,
        )
        npt.assert_allclose(summary.mse_curve, manual, rtol=1e-15)
        assert summary.runs == 3

    def test_zero_iterations_without_reuse(self):
        # neither steps nor padded lags, yet the store must still hold a window
        config = ScenarioConfig(iterations=0, reuse=0)
        assert run_monte_carlo(config, SMAP, 2).mse_curve.shape == (0,)
        assert run_single(config, SMAP, run_rng(0, 0)).errors.shape == (0,)

    def test_rejects_bad_run_count(self):
        config = ScenarioConfig(iterations=30)
        with pytest.raises(InvalidInputError) as exc:
            run_monte_carlo(config, SMAP, runs=0)
        assert exc.value.field == "runs"

    @pytest.mark.parametrize("runs", [2.5, "3", None])
    def test_rejects_non_integer_run_count(self, runs):
        config = ScenarioConfig(iterations=30)
        with pytest.raises(InvalidInputError, match="runs must be an integer") as exc:
            run_monte_carlo(config, SMAP, runs)
        assert exc.value.field == "runs"

    def test_numpy_integer_run_count_passes(self):
        config = ScenarioConfig(iterations=30)
        want = run_monte_carlo(config, SMAP, 2)
        got = run_monte_carlo(config, SMAP, np.int64(2))
        assert got.mse_curve.tobytes() == want.mse_curve.tobytes()

    def test_failure_names_run_and_seed(self, monkeypatch):
        # the same singular windows as above, now inside an ensemble
        monkeypatch.setattr(sim, "generate_signals", _zero_input)
        config = ScenarioConfig(iterations=5, delta=0.0, seed=2)
        with pytest.raises(SimulationError) as single:
            run_single(config, SMAP, run_rng(2, 0))
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, SMAP, 3)
        assert re.match(r"run 0 \(seed 2\): iteration 0: Gram", str(ensemble.value))
        assert _cause(ensemble.value) == _cause(single.value)

    @pytest.mark.parametrize("fault", ["out-of-band", "wrong-shape"])
    def test_later_run_failure_replays_with_run_single(self, fault):
        seed = 5
        plain = ScenarioConfig(iterations=100, seed=seed, cv_strategy=custom_cv(_halved_reversed))
        # run 0 never passes this level, so the failure comes from a later run
        level = np.max(np.abs(run_single(plain, SMAP, run_rng(seed, 0)).errors))

        def rule(prior, noise_window, gamma_bar):
            if abs(prior[0]) <= level:
                return _halved_reversed(prior, noise_window, gamma_bar)
            if fault == "out-of-band":
                return np.full(prior.size, 2.0 * gamma_bar)
            return np.zeros(prior.size + 1)

        config = replace(plain, cv_strategy=custom_cv(rule))
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, SMAP, 6)
        # replay every run alone: the ensemble names the first failing
        # step and, among the runs failing there, the lowest
        replays = {}
        for run in range(6):
            try:
                run_single(config, SMAP, run_rng(seed, run))
            except SimulationError as err:
                step = int(re.match(r"iteration (\d+): ", str(err))[1])
                replays[(step, run)] = err
        step, run = min(replays)
        assert run > 0
        assert str(ensemble.value) == f"run {run} (seed {seed}): {replays[(step, run)]}"
        assert _cause(ensemble.value) == _cause(replays[(step, run)])

    def test_rule_raising_simulation_error_names_its_iteration(self):
        # a stateless rule that raises SimulationError on a large error is
        # reported with its iteration, like any other SmapError
        def rule(prior, noise_window, gamma_bar):
            if abs(prior[0]) > 2.0:
                raise SimulationError("boom")
            return np.full(prior.size, gamma_bar)

        config = ScenarioConfig(iterations=100, seed=3, cv_strategy=custom_cv(rule))
        with pytest.raises(SimulationError) as single:
            run_single(config, SMAP, run_rng(3, 1))
        assert str(single.value) == "iteration 6: boom"
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, SMAP, 4)
        assert str(ensemble.value) == "run 1 (seed 3): iteration 6: boom"

    def test_zero_energy_step_fails_as_in_run_single(self, monkeypatch):
        # a zero system and zero noise leave the baseline's first step with
        # neither misalignment nor noise energy, which local_check rejects
        def silent(config, w0, rng):
            x, d, n = generate_signals(config, w0, rng)
            return x, d - n, np.zeros_like(n)

        monkeypatch.setattr(sim, "generate_system", lambda num_taps, rng: np.zeros(num_taps))
        monkeypatch.setattr(sim, "generate_signals", silent)
        config = ScenarioConfig(iterations=10, seed=4, ap_step=0.5)
        with pytest.raises(SimulationError, match="iteration 0: misalignment") as single:
            run_single(config, AP, run_rng(4, 0))
        with pytest.raises(SimulationError) as ensemble:
            run_monte_carlo(config, AP, 3)
        assert str(ensemble.value) == f"run 0 (seed 4): {single.value}"
        assert _cause(ensemble.value) == _cause(single.value)

    @pytest.mark.parametrize("fault", ["out-of-band", "wrong-shape"])
    @pytest.mark.parametrize("chunk", [1, 2])
    def test_later_run_failure_replays_across_chunk_seams(self, monkeypatch, chunk, fault):
        # the failure comes at iteration 1: after a flush with one step per
        # chunk, at the last step of the first chunk with two
        monkeypatch.setattr(sim, "_CHUNK_STEPS", chunk)
        self.test_later_run_failure_replays_with_run_single(fault)


@st.composite
def _scenarios(draw):
    """Any scenario in the paper's parameter box, with the recursion to run."""
    num_taps = draw(st.integers(1, 16))
    rule = draw(st.sampled_from(["fixed", "sccv", "noise", "zero", "ap"]))
    step = draw(st.floats(0.01, 1.0)) if rule == "ap" else None
    config = ScenarioConfig(
        num_taps=num_taps,
        reuse=draw(st.integers(0, num_taps - 1)),
        gamma_bar=10.0 ** draw(st.floats(-3.0, 1.0)),
        delta=draw(st.sampled_from([0.0, 1e-12, 1e-3])),
        ar_coefficient=draw(st.floats(-0.99, 0.99)),
        snr_db=draw(st.floats(0.0, 40.0)),
        iterations=draw(st.integers(0, 120)),
        ap_step=step,
        seed=draw(st.integers(0, 2**32 - 1)),
        **({} if rule == "ap" else ENSEMBLE_CASES[rule]),
    )
    return (AP if rule == "ap" else SMAP), config


def _first_failure(config, algorithm, runs):
    """``(iteration, run, message)`` of the ensemble's first failure under
    ``run_single``: the earliest failing iteration, then the lowest run."""
    failures = []
    for r in range(runs):
        try:
            run_single(config, algorithm, run_rng(config.seed, r))
        except SmapError as err:
            step = re.match(r"iteration (\d+): ", str(err))
            failures.append((int(step[1]) if step else config.iterations, r, str(err)))
    return min(failures, default=None)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_scenarios())
@example((SMAP, ScenarioConfig(  # run 1 alone fails, at iteration 11
    num_taps=14, reuse=11, gamma_bar=0.1, delta=0.0, ar_coefficient=0.0, snr_db=0.0,
    iterations=12, seed=5,
)))
def test_no_parameter_choice_diverges_or_fools_the_energy_bound(scenario):
    # the paper: SM-AP never diverges whatever the parameters; a run either
    # fails loudly in both engines or stays finite, and with no expanding
    # step the energy ratio exceeds 1 only by the steps' own leakage
    algorithm, config = scenario
    try:
        trace = run_single(config, algorithm, run_rng(config.seed, 0))
    except SmapError:
        with pytest.raises(SmapError):
            run_monte_carlo(config, algorithm, 1)
        return
    assert np.isfinite(trace.misalignment).all()
    report = trace.global_report
    if report.condition_violations == 0:
        leakage = sum(
            r.identity_residual + max(0.0, r.lhs - r.rhs) for r in trace.local_records if r.updated
        )
        slack = leakage + 1e-12 * max(1.0, report.denominator)
        assert report.numerator <= report.denominator + slack
    try:
        _assert_lockstep_matches_run_single(config, algorithm, 3)
    except SmapError as err:  # a later run fails alone, and the ensemble names the first
        failure = _first_failure(config, algorithm, 3)
        assert failure is not None, f"no run fails alone, but: {err}"
        _, run, message = failure
        assert str(err) == f"run {run} (seed {config.seed}): {message}"


class TestSteadyState:
    def test_tail_window(self):
        curve = np.concatenate([np.ones(80), np.full(20, 0.01)])
        assert steady_state_db(curve) == pytest.approx(-20.0)

    def test_empty_curve_is_nan(self):
        assert np.isnan(steady_state_db(np.array([])))

    def test_short_curve_uses_last_point(self):
        assert steady_state_db(np.array([1.0, 0.1])) == pytest.approx(-10.0)

    def test_tail_is_the_last_fifth(self):
        curve = np.random.default_rng(3).uniform(0.5, 2.0, 100)
        assert steady_state_db(curve) == float(10.0 * np.log10(curve[-20:].mean()))
