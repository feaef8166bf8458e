"""Acceptance checks for the whole package.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single pass/fail line; run with ``pytest -s`` to see them.  The
statistical bands are wide enough to absorb seed-to-seed variance but
the master seed below keeps every reported number reproducible.
"""

import time

import numpy as np
import pytest

from smap.constraints import custom_cv, fixed_cv, noise_cv, sc_cv, zero_cv
from smap.cli import verify_update_against_kkt
from smap.robustness import EXPAND
from smap.sim import (
    AP,
    SMAP,
    ScenarioConfig,
    run_monte_carlo,
    run_rng,
    run_single,
    steady_state_db,
)

SEED = 2024
ITERATIONS = 1000
IDENTITY_RTOL = 1e-8
POSTERIOR_SLACK = 1e-8
NOISE_FLOOR_DB = 10.0 * np.log10(0.01)


def _check(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num}: {text}"


def _scenario(**kwargs) -> ScenarioConfig:
    kwargs.setdefault("iterations", ITERATIONS)
    kwargs.setdefault("seed", SEED)
    return ScenarioConfig(**kwargs)


@pytest.fixture(scope="module")
def single_runs():
    """One 1000-iteration benchmark run per built-in strategy, with wall time."""
    runs = {}
    for name, strategy in (
        ("fixed", fixed_cv()),
        ("sccv", sc_cv()),
        ("noise", noise_cv()),
    ):
        start = time.perf_counter()
        trace = run_single(_scenario(cv_strategy=strategy), SMAP, run_rng(SEED, 0))
        runs[name] = (trace, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def ensembles():
    """Monte-Carlo ensembles per strategy (sign-led at full scale), with wall time."""
    start = time.perf_counter()
    out = {
        name: run_monte_carlo(_scenario(cv_strategy=strategy), SMAP, runs)
        for name, strategy, runs in (
            ("fixed", fixed_cv(), 200),
            ("sccv", sc_cv(), 1000),
            ("noise", noise_cv(), 200),
        )
    }
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def ap_ensembles():
    return {
        mu: run_monte_carlo(_scenario(ap_step=mu), AP, 100) for mu in (0.9, 0.05)
    }


def test_01_update_matches_constrained_solver():
    start = time.perf_counter()
    result = verify_update_against_kkt(1002, num_taps=9, max_reuse=2, seed=SEED)
    wall = time.perf_counter() - start
    ok = (
        result.max_update_gap <= 1e-8
        and result.max_posterior_gap <= 1e-8
        and result.max_identity_residual <= 1e-8
        and wall < 5.0
    )
    _check(
        1,
        ok,
        f"two solution routes agree over {result.instances} instances: "
        f"coefficient gap {result.max_update_gap:.2e}, "
        f"posterior gap {result.max_posterior_gap:.2e}, "
        f"identity residual {result.max_identity_residual:.2e}, {wall:.2f} s",
    )


def test_02_energy_identity_on_every_update(single_runs):
    worst = 0.0
    checked = 0
    for trace, _ in single_runs.values():
        for record in trace.local_records:
            if record.updated:
                checked += 1
                worst = max(
                    worst, record.identity_residual / max(1.0, record.g2)
                )
    _check(
        2,
        checked > 0 and worst <= IDENTITY_RTOL,
        f"scaled energy-identity residual ≤ {IDENTITY_RTOL:.0e} on all "
        f"{checked} updating steps (worst {worst:.2e})",
    )


def test_03_noise_scaled_targets_classify_by_scale():
    def expansions(scale):
        trace = run_single(
            _scenario(cv_strategy=noise_cv(scale)), SMAP, run_rng(SEED, 0)
        )
        updates = int(trace.update_flags.sum())
        expands = sum(
            r.classification == EXPAND for r in trace.local_records if r.updated
        )
        return updates, expands

    benign = {c: expansions(c) for c in (0.0, 0.5, 1.0, 2.0)}
    updates3, expands3 = expansions(3.0)
    ok = all(e == 0 and u > 0 for u, e in benign.values()) and expands3 >= 1
    counts = ", ".join(f"scale {c}: {e}/{u}" for c, (u, e) in benign.items())
    _check(
        3,
        ok,
        f"expansions per update — {counts}, scale 3.0: {expands3}/{updates3}",
    )


def test_04_global_energy_ratio_bounded(single_runs):
    ratio = single_runs["noise"][0].global_report.ratio
    frozen = run_single(_scenario(gamma_bar=1e6), SMAP, run_rng(SEED, 0))
    ok = (
        ratio <= 1.0 + 1e-8
        and frozen.global_report.update_set_size == 0
        and frozen.misalignment[-1] == frozen.misalignment[0]
        and frozen.global_report.ratio == 1.0
    )
    _check(
        4,
        ok,
        f"noise-target run ratio {ratio:.4f} ≤ 1; huge-threshold run never "
        f"updates and keeps misalignment exactly at {frozen.misalignment[0]:.4f}",
    )


def test_05_violation_counts_in_benchmark_bands(single_runs):
    counts = {
        name: trace.global_report.condition_violations
        for name, (trace, _) in single_runs.items()
    }
    walls = {name: wall for name, (_, wall) in single_runs.items()}
    ok = (
        180 <= counts["fixed"] <= 400
        and 3 <= counts["sccv"] <= 60
        and counts["noise"] == 0
        and all(w < 2.0 for w in walls.values())
    )
    _check(
        5,
        ok,
        f"expansion counts fixed {counts['fixed']} ∈ [180,400], "
        f"sign-led {counts['sccv']} ∈ [3,60], noise {counts['noise']} = 0; "
        f"slowest run {max(walls.values()):.2f} s",
    )


def test_06_update_rates_in_benchmark_bands(ensembles):
    summaries, wall = ensembles
    rates = {n: s.mean_update_rate for n, s in summaries.items()}
    ok = (
        0.25 <= rates["fixed"] <= 0.45
        and 0.05 <= rates["sccv"] <= 0.18
        and 0.01 <= rates["noise"] <= 0.10
        and wall < 180.0
    )
    _check(
        6,
        ok,
        f"mean update rates fixed {rates['fixed']:.3f} ∈ [0.25,0.45], "
        f"sign-led {rates['sccv']:.3f} ∈ [0.05,0.18], "
        f"noise {rates['noise']:.3f} ∈ [0.01,0.10]; ensembles took {wall:.0f} s",
    )


def test_07_baseline_tradeoff(ap_ensembles):
    trace = run_single(_scenario(ap_step=0.05), AP, run_rng(SEED, 0))
    increase_fraction = float(np.mean(np.diff(trace.misalignment) > 0))
    early = {
        mu: float(s.mse_curve[20:120].mean()) for mu, s in ap_ensembles.items()
    }
    steady = {mu: s.steady_state_mse_db for mu, s in ap_ensembles.items()}
    ok = (
        0.30 <= increase_fraction <= 0.55
        and early[0.9] < early[0.05]
        and steady[0.9] > steady[0.05]
    )
    _check(
        7,
        ok,
        f"step 0.05 misalignment rises on {increase_fraction:.0%} of steps "
        f"∈ [30%,55%]; step 0.9 converges faster (early MSE {early[0.9]:.3f} "
        f"< {early[0.05]:.3f}) to a higher floor ({steady[0.9]:.1f} dB > "
        f"{steady[0.05]:.1f} dB)",
    )


def test_08_long_horizon_non_divergence():
    draws = np.random.default_rng(99)

    def adversary(prior, noise_window, gamma_bar):
        return draws.uniform(-gamma_bar, gamma_bar, prior.size)

    strategies = {
        "fixed": fixed_cv(),
        "sccv": sc_cv(),
        "zero": zero_cv(),
        "adversarial": custom_cv(adversary),
    }
    start = time.perf_counter()
    worst_excess = -np.inf
    finite = True
    for strategy in strategies.values():
        trace = run_single(
            _scenario(iterations=100_000, cv_strategy=strategy),
            SMAP,
            run_rng(SEED, 0),
        )
        finite &= bool(np.isfinite(trace.misalignment).all())
        gamma_bar = 0.2236
        for div, updated in zip(trace.divergence_records, trace.update_flags):
            if updated:
                worst_excess = max(worst_excess, div.max_abs_posterior - gamma_bar)
    # the noise strategy leaves the in-band premise, so only finiteness applies
    noisy = run_single(
        _scenario(iterations=100_000, cv_strategy=noise_cv()),
        SMAP,
        run_rng(SEED, 0),
    )
    finite &= bool(np.isfinite(noisy.misalignment).all())
    wall = time.perf_counter() - start
    ok = finite and worst_excess <= POSTERIOR_SLACK
    _check(
        8,
        ok,
        f"10^5-step runs stay finite for all five strategies; worst in-band "
        f"posterior excess {worst_excess:.2e} ≤ {POSTERIOR_SLACK:.0e} "
        f"({wall:.0f} s)",
    )


def test_09_steady_state_floor(ensembles):
    summaries, _ = ensembles
    sccv_db = summaries["sccv"].steady_state_mse_db
    noise_db = summaries["noise"].steady_state_mse_db
    gap_to_floor = abs(sccv_db - NOISE_FLOOR_DB)
    gap_between = abs(sccv_db - noise_db)
    ok = gap_to_floor <= 3.0 and gap_between <= 2.0
    _check(
        9,
        ok,
        f"sign-led steady state {sccv_db:.2f} dB within 3 dB of the "
        f"{NOISE_FLOOR_DB:.0f} dB noise floor and within 2 dB of the "
        f"noise-target strategy ({noise_db:.2f} dB)",
    )
