"""Tests for the energy bookkeeping around the gated update."""

import numpy as np
import numpy.testing as npt
import pytest

from smap import robustness
from smap.errors import DegenerateDenominatorError, InvalidInputError
from smap.filters import DataWindow, FilterState, error_vector, indicator, smap_update
from smap.linalg import gram, solve_spd
from smap.robustness import (
    CONTRACT,
    EXPAND,
    NO_UPDATE,
    PRESERVE,
    LocalRobustnessRecord,
    divergence_monitor,
    expands,
    global_accumulate,
    local_check,
    _quiet,
)


def test_skipped_step_keeps_energies_equal(rng):
    w0 = rng.standard_normal(5)
    state = FilterState(rng.standard_normal(5))
    window = DataWindow(rng.standard_normal((5, 2)), rng.standard_normal(2))
    rec = local_check(w0, state, state, window, np.zeros(2), updated=False, k=7)
    assert rec.classification == NO_UPDATE
    assert rec.g1 == rec.g2 == rec.w_tilde_sq_after
    assert rec.lhs == rec.rhs == 0.0
    assert rec.k == 7


@pytest.mark.parametrize("updated", [False, True])
def test_same_state_object_gives_the_same_record(rng, updated):
    # local_check reuses the misalignment before when state_after is state_before
    w0 = rng.standard_normal(5)
    state = FilterState(rng.standard_normal(5))
    X = rng.standard_normal((5, 2))
    window = DataWindow(X, X.T @ w0, rng.standard_normal(2))
    cv = np.zeros(2) if not updated else rng.uniform(-0.1, 0.1, 2)
    same = local_check(w0, state, state, window, cv, updated, 1e-12, k=3)
    equal = local_check(w0, state, FilterState(state.w.copy()), window, cv, updated, 1e-12, k=3)
    assert same == equal


def test_updating_check_requires_noise(rng):
    w0 = rng.standard_normal(4)
    state = FilterState(np.zeros(4))
    window = DataWindow(rng.standard_normal((4, 2)), rng.standard_normal(2))
    with pytest.raises(InvalidInputError):
        local_check(w0, state, state, window, np.zeros(2), updated=True)


def test_zero_target_step_preserves(rng, make_instance):
    inst = make_instance(rng)
    cv = np.zeros_like(inst["cv"])
    new_state, _ = smap_update(inst["state"], inst["window"], cv, inst["gamma_bar"])
    rec = local_check(inst["w0"], inst["state"], new_state, inst["window"], cv, True)
    assert rec.classification == PRESERVE
    assert rec.lhs == rec.rhs == 0.0
    assert rec.identity_residual <= 1e-8 * max(1.0, rec.g2)


@pytest.mark.parametrize(
    "scale,expected",
    [(0.0, PRESERVE), (0.5, CONTRACT), (1.0, CONTRACT), (2.0, PRESERVE), (3.0, EXPAND)],
)
def test_scaled_noise_target_trichotomy(rng, make_instance, scale, expected):
    # the condition sides differ by (scale^2 - 2*scale) times the noise energy
    inst = make_instance(rng)
    cv = scale * inst["window"].n
    new_state, _ = smap_update(
        inst["state"], inst["window"], cv, inst["gamma_bar"], enforce_cv_bound=False
    )
    rec = local_check(inst["w0"], inst["state"], new_state, inst["window"], cv, True)
    assert rec.classification == expected
    # the stacked rule that ensembles use draws the same tie band
    assert expands(np.array([rec.lhs]), np.array([rec.rhs])).tolist() == [expected == EXPAND]


@pytest.mark.parametrize("rhs", [-3.0, 1e-3, 1.0, 7.5, 1e6])
@pytest.mark.parametrize(
    "f,expected", [(1e-10, EXPAND), (-1e-10, CONTRACT), (1e-13, PRESERVE), (-1e-13, PRESERVE)]
)
def test_tie_band_is_a_trillionth_of_max_one_rhs(rhs, f, expected):
    # the band's half-width is PRESERVE_RTOL * max(1, rhs): a gap a hundred times wider
    # is strict, one ten times narrower is a tie, at every scale of rhs
    lhs = rhs + f * max(1.0, rhs)
    assert robustness._classify(lhs, rhs) == expected
    assert expands(np.array([lhs]), np.array([rhs])).tolist() == [expected == EXPAND]


def _nearly_dependent(inst, rng):
    """``inst`` with its window's last column within 1e-3 of the one before."""
    X = inst["window"].X.copy()
    X[:, 2] = X[:, 1] + 1e-3 * rng.standard_normal(X.shape[0])
    n = inst["window"].n
    return {**inst, "window": DataWindow(X, X.T @ inst["w0"] + n, n)}


@pytest.mark.parametrize("delta,dependent", [(1e-3, False), (0.1, False), (1e-12, True)])
def test_checker_solves_with_the_steps_delta(rng, make_instance, delta, dependent):
    # the step moves by X y, y = (G + delta I)^-1 (e - cv); through the same operator the
    # identity leaves exactly g1 = g2 - rhs + lhs - delta |y|^2, which a checker that
    # solved without delta would not
    leaky = 0
    for _ in range(40):
        inst = make_instance(rng)
        if dependent:
            inst = _nearly_dependent(inst, rng)
        state, window, cv = inst["state"], inst["window"], inst["cv"]
        new_state, _ = smap_update(state, window, cv, inst["gamma_bar"], delta)
        rec = local_check(inst["w0"], state, new_state, window, cv, True, delta)
        y = solve_spd(gram(window.X), error_vector(state, window) - cv, delta)
        leakage = delta * float(y @ y)
        scale = max(1.0, rec.g1, rec.g2, abs(rec.lhs), abs(rec.rhs))
        assert abs(rec.identity_residual - leakage) <= 0.05 * leakage + 1e-10 * scale
        leaky += leakage > 1e-8 * scale
    assert leaky > 30  # the leakage is far above rounding on most steps


def test_identity_residual_on_random_steps(rng, make_instance):
    for _ in range(50):
        inst = make_instance(rng)
        new_state, _ = smap_update(
            inst["state"], inst["window"], inst["cv"], inst["gamma_bar"]
        )
        rec = local_check(
            inst["w0"], inst["state"], new_state, inst["window"], inst["cv"], True
        )
        assert rec.identity_residual <= 1e-8 * max(1.0, rec.g2)


def test_scalar_window_pieces_by_hand(rng):
    # reuse factor 0 collapses every quadratic form to division by x'x
    x = rng.standard_normal(4)
    w_prev = rng.standard_normal(4)
    w0 = rng.standard_normal(4)
    noise = 0.07
    d = float(x @ w0) + noise
    e = d - float(x @ w_prev)
    gamma_bar = abs(e) / 2.0
    cv = 0.3 * gamma_bar
    state = FilterState(w_prev)
    window = DataWindow(x[:, None], np.array([d]), np.array([noise]))
    new_state, _ = smap_update(state, window, np.array([cv]), gamma_bar)
    rec = local_check(w0, state, new_state, window, np.array([cv]), True)
    xx = float(x @ x)
    e_tilde = e - noise
    assert rec.e_tilde_quad == pytest.approx(e_tilde**2 / xx, rel=1e-10)
    assert rec.noise_quad == pytest.approx(noise**2 / xx, rel=1e-10)
    assert rec.lhs == pytest.approx(cv**2 / xx, rel=1e-10)
    assert rec.rhs == pytest.approx(2.0 * cv * noise / xx, rel=1e-10)
    g1_hand = float((w0 - new_state.w) @ (w0 - new_state.w)) + e_tilde**2 / xx
    g2_hand = float((w0 - w_prev) @ (w0 - w_prev)) + noise**2 / xx
    assert g1_hand - (g2_hand - rec.rhs + rec.lhs) == pytest.approx(0.0, abs=1e-12)


def test_degenerate_energy_raises(rng):
    w0 = rng.standard_normal(3)
    state = FilterState(w0.copy())  # zero misalignment
    window = DataWindow(rng.standard_normal((3, 1)), np.ones(1), np.zeros(1))
    with pytest.raises(DegenerateDenominatorError):
        local_check(w0, state, state, window, np.zeros(1), updated=True)


def test_global_accumulate_without_updates():
    records = [_quiet(k, 2.0, 2.0) for k in range(5)]
    report = global_accumulate(records, 2.0, 2.0)
    assert report.update_set_size == 0
    assert report.ratio == 1.0
    assert report.condition_violations == 0


def test_global_accumulate_sums_updating_records_only():
    up1 = LocalRobustnessRecord(
        0, True, 3.5, 4.2, 0.1, 0.8, CONTRACT, 0.0, 3.0, 0.5, 0.2
    )
    skip = _quiet(1, 3.0, 3.0)
    up2 = LocalRobustnessRecord(
        2, True, 3.75, 3.1, 0.9, 0.25, EXPAND, 0.0, 3.5, 0.25, 0.1
    )
    report = global_accumulate([up1, skip, up2], 4.0, 3.5)
    assert report.numerator == pytest.approx(3.5 + 0.5 + 0.25)
    assert report.denominator == pytest.approx(4.0 + 0.2 + 0.1)
    assert report.ratio == pytest.approx(report.numerator / report.denominator)
    assert report.update_set_size == 2
    assert report.condition_violations == 1


def test_global_accumulate_zero_denominator():
    with pytest.raises(DegenerateDenominatorError):
        global_accumulate([], 0.0, 0.0)


def test_zero_noise_zero_target_never_expands(rng):
    # without noise, steering every posterior error to zero can only
    # shrink the misalignment, and the run-level ratio stays under 1
    num_taps, reuse, steps = 6, 2, 60
    x = rng.standard_normal(steps)
    w0 = rng.standard_normal(num_taps)
    U = np.zeros((steps, num_taps))
    for i in range(num_taps):
        U[i:, i] = x[: steps - i]
    d = U @ w0
    gamma_bar = 0.1
    state = FilterState(np.zeros(num_taps))
    records = []
    start = misalignment = float(w0 @ w0)
    for k in range(reuse, steps):
        window = DataWindow(
            U[k - reuse : k + 1][::-1].T,
            d[k - reuse : k + 1][::-1],
            np.zeros(reuse + 1),
        )
        prev = state
        e = error_vector(prev, window)
        updated = indicator(e[0], gamma_bar)
        if updated:
            state, _ = smap_update(prev, window, np.zeros(reuse + 1), gamma_bar)
        rec = local_check(w0, prev, state, window, np.zeros(reuse + 1), updated, k=k)
        records.append(rec)
        assert rec.w_tilde_sq_after <= misalignment * (1 + 1e-12) + 1e-15
        misalignment = rec.w_tilde_sq_after
        assert rec.classification in (PRESERVE, NO_UPDATE)
    report = global_accumulate(records, start, records[-1].w_tilde_sq_after)
    assert report.update_set_size > 0
    assert report.ratio <= 1.0 + 1e-10


def test_divergence_record_after_step(rng, make_instance):
    inst = make_instance(rng)
    new_state, _ = smap_update(
        inst["state"], inst["window"], inst["cv"], inst["gamma_bar"]
    )
    div = divergence_monitor(new_state, inst["window"], k=3)
    assert div.k == 3
    assert div.max_abs_posterior <= inst["gamma_bar"] + 1e-8


def test_divergence_monitor_reports_raw_errors_without_step(rng):
    state = FilterState(np.zeros(4))
    X = rng.standard_normal((4, 2))
    d = rng.standard_normal(2)
    div = divergence_monitor(state, DataWindow(X, d))
    assert div.max_abs_posterior == pytest.approx(np.max(np.abs(d)))


@pytest.mark.parametrize("updated", [False, True])
def test_local_check_rejects_a_system_of_other_taps(rng, updated):
    state = FilterState(np.zeros(5))
    window = DataWindow(rng.standard_normal((5, 2)), rng.standard_normal(2), np.zeros(2))
    with pytest.raises(InvalidInputError, match="taps do not fit window"):
        local_check(rng.standard_normal(6), state, state, window, np.zeros(2), updated)


def test_local_check_rejects_a_constraint_of_other_width(rng):
    state = FilterState(np.zeros(4))
    window = DataWindow(rng.standard_normal((4, 2)), rng.standard_normal(2), np.zeros(2))
    with pytest.raises(InvalidInputError, match="constraint shape"):
        local_check(rng.standard_normal(4), state, state, window, np.zeros(3), True)


def test_divergence_monitor_rejects_a_state_of_other_taps(rng):
    window = DataWindow(rng.standard_normal((5, 2)), rng.standard_normal(2))
    with pytest.raises(InvalidInputError, match="window rows 5 do not match tap count 4"):
        divergence_monitor(FilterState(np.zeros(4)), window)
