"""Tests for signal generation and the experiment driver."""

import re
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from smap import sim
from smap.constraints import custom_cv, fixed_cv, noise_cv, sc_cv, zero_cv
from smap.errors import InvalidInputError, SimulationError
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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInputError) as exc:
            ScenarioConfig(**kwargs)
        assert exc.value.field == next(iter(kwargs))


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
        with pytest.raises(InvalidInputError):
            generate_signals(config, np.zeros(3), np.random.default_rng(0))


class TestRunSingle:
    def test_zero_iterations(self):
        config = ScenarioConfig(iterations=0, seed=1)
        trace = run_single(config, SMAP, run_rng(1, 0))
        assert trace.errors.shape == (0,)
        assert trace.misalignment.shape == (1,)
        assert trace.local_records == ()
        assert trace.global_report.ratio == 1.0
        assert trace.update_rate == 0.0

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

    def test_unknown_algorithm_rejected(self):
        config = ScenarioConfig(iterations=10)
        with pytest.raises(InvalidInputError):
            run_single(config, "nlms", run_rng(0, 0))

    def test_baseline_needs_step_size(self):
        config = ScenarioConfig(iterations=10)
        with pytest.raises(InvalidInputError):
            run_single(config, AP, run_rng(0, 0))

    def test_unregularized_warmup_failure_is_wrapped(self):
        # the first windows repeat zero-padded regressors, so without the
        # diagonal bump the normal equations are singular
        config = ScenarioConfig(iterations=5, delta=0.0, seed=0)
        with pytest.raises(SimulationError, match="iteration 0"):
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


class TestMonteCarlo:
    @pytest.mark.parametrize("reuse,num_taps", [(0, 3), (2, 3), (0, 10), (2, 10)])
    @pytest.mark.parametrize("case", list(ENSEMBLE_CASES))
    def test_lockstep_matches_run_single(self, case, reuse, num_taps):
        # the lockstep engine against the scalar reference, run by run
        kwargs = ENSEMBLE_CASES[case]
        algorithm = AP if "ap_step" in kwargs else SMAP
        for seed in (0, 1, 2):
            config = ScenarioConfig(
                iterations=150, num_taps=num_taps, reuse=reuse, seed=seed, **kwargs
            )
            summary = run_monte_carlo(config, algorithm, 4)
            traces = [run_single(config, algorithm, run_rng(seed, i)) for i in range(4)]
            npt.assert_array_equal(summary.update_rates, [t.update_rate for t in traces])
            npt.assert_array_equal(
                summary.violation_counts,
                [t.global_report.condition_violations for t in traces],
            )
            npt.assert_array_equal(summary.cv_relaxations, [t.cv_relaxations for t in traces])
            npt.assert_array_equal(
                summary.mse_curve, sum(t.squared_error for t in traces) / 4
            )

    def test_blocks_join_in_run_order(self, monkeypatch):
        config = ScenarioConfig(iterations=60, seed=8, cv_strategy=sc_cv())
        whole = run_monte_carlo(config, SMAP, 5)
        monkeypatch.setattr(sim, "_BLOCK_RUNS", 2)
        blocked = run_monte_carlo(config, SMAP, 5)
        npt.assert_array_equal(blocked.mse_curve, whole.mse_curve)
        npt.assert_array_equal(blocked.update_rates, whole.update_rates)
        npt.assert_array_equal(blocked.violation_counts, whole.violation_counts)

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

    def test_rejects_bad_run_count(self):
        config = ScenarioConfig(iterations=30)
        with pytest.raises(InvalidInputError):
            run_monte_carlo(config, SMAP, runs=0)

    def test_failure_names_run_and_seed(self):
        # the same singular warm-up as above, now inside an ensemble
        config = ScenarioConfig(iterations=5, delta=0.0, seed=2)
        with pytest.raises(SimulationError, match=r"run 0 \(seed 2\): iteration 0"):
            run_monte_carlo(config, SMAP, 3)

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


class TestSteadyState:
    def test_tail_window(self):
        curve = np.concatenate([np.ones(80), np.full(20, 0.01)])
        assert steady_state_db(curve) == pytest.approx(-20.0)

    def test_empty_curve_is_nan(self):
        assert np.isnan(steady_state_db(np.array([])))

    def test_short_curve_uses_last_point(self):
        assert steady_state_db(np.array([1.0, 0.1])) == pytest.approx(-10.0)
