"""Tests for the gated update and the plain projection baseline."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smap.constrained_ls import ConstrainedLSProblem, solve_constrained
from smap.constraints import make_cv, noise_cv, satisfies_bound
from smap.errors import ConstraintBoundError, InvalidInputError, SingularSystemError
from smap.filters import (
    DataWindow,
    FilterState,
    ap_update,
    error_vector,
    indicator,
    smap_update,
)

GAMMA = 0.2236


def test_state_order_and_validation():
    assert FilterState.zeros(4).w.shape == (4,)
    with pytest.raises(InvalidInputError):
        FilterState(np.array([1.0, np.inf]))
    with pytest.raises(InvalidInputError):
        FilterState(np.zeros((2, 2)))


@pytest.mark.parametrize("num_taps", [2.5, "3", -1, 0, 10**30])
def test_zeros_applies_the_count_rule_generate_system_does(num_taps):
    # all but 0 once raised numpy's bare TypeError or ValueError, and 0 named no field
    with pytest.raises(InvalidInputError) as exc:
        FilterState.zeros(num_taps)
    text = (f"{num_taps} taps exceed the largest array numpy can hold" if num_taps == 10**30
            else f"num_taps must be an integer >= 1, got {num_taps!r}")
    assert (str(exc.value), exc.value.field) == (text, "num_taps")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_coefficients_anywhere(bad):
    for index in range(5):
        w = np.ones(5)
        w[index] = bad
        with pytest.raises(InvalidInputError, match="must be finite"):
            FilterState(w)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_cv_bound_rejects_nan_in_any_position(shape):
    # one vector goes through smap_update's check, a stack through the mask;
    # zero data keep the error in band, so only the bound is tested
    state, window = FilterState.zeros(4), DataWindow(np.eye(4), np.zeros(4))
    for index in np.ndindex(shape):
        cv = np.zeros(shape)
        cv[index] = np.nan
        if cv.ndim == 1:
            with pytest.raises(ConstraintBoundError, match="constraint magnitude nan"):
                smap_update(state, window, cv, GAMMA, enforce_cv_bound=True)
        else:
            assert satisfies_bound(cv, GAMMA).tolist() == [r != index[0] for r in range(shape[0])]
    # the band is |cv_j| <= gamma_bar exactly: one ulp past it is rejected
    edge, past = np.full(shape, GAMMA), np.full(shape, np.nextafter(GAMMA, np.inf))
    text = "constraint magnitude 0.22360000000000002 exceeds threshold 0.2236"
    if edge.ndim == 1:
        assert smap_update(state, window, edge, GAMMA, enforce_cv_bound=True)[0] is state
        with pytest.raises(ConstraintBoundError) as exc:
            smap_update(state, window, past, GAMMA, enforce_cv_bound=True)
        assert str(exc.value) == text
    else:
        assert satisfies_bound(edge, GAMMA).all()
        assert not satisfies_bound(past, GAMMA).any()
    npt.assert_array_equal(make_cv(noise_cv(), np.zeros(shape), edge, GAMMA), edge)
    with pytest.raises(ConstraintBoundError) as exc:  # the noise strategy's check, one text
        make_cv(noise_cv(), np.zeros(shape), past, GAMMA)
    assert str(exc.value) == text
    assert satisfies_bound(np.zeros(0), GAMMA) is True  # an empty vector has nothing out of band
    assert satisfies_bound(np.zeros((3, 0)), GAMMA).all()


def test_window_validation():
    with pytest.raises(InvalidInputError):
        DataWindow(np.ones((3, 2)), np.ones(3))
    with pytest.raises(InvalidInputError):
        DataWindow(np.ones((3, 2)), np.ones(2), np.ones(3))
    window = DataWindow(np.ones((3, 2)), np.ones(2))
    assert window.n is None


@pytest.mark.parametrize("name", ["X", "d", "n"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_window_rejects_non_finite_data(name, bad):
    # a NaN in a lagged reference or noise sample would otherwise reach the
    # update or the energy check and come out as a plausible record; zeros
    # elsewhere once made a product with the bad entry inf * 0, and a warning
    arrays = {"X": np.zeros((3, 2)), "d": np.zeros(2), "n": np.zeros(2)}
    arrays[name][-1, ...] = bad
    with pytest.raises(InvalidInputError, match=f"window {name} must be finite"):
        DataWindow(**arrays)


@pytest.mark.parametrize("shape", [(3,), (3, 0)])
def test_window_inputs_must_be_a_matrix_with_columns(shape):
    with pytest.raises(InvalidInputError, match="inputs must form a 2-D matrix"):
        DataWindow(np.zeros(shape), np.zeros(shape[1:] or 1))


def test_window_check_never_adds_inf_to_minus_inf():
    # X sums to +inf and d . n to -inf; a check of their sum would see nan, with a warning
    X = np.zeros((3, 2))
    X[0, 0] = np.inf
    with pytest.raises(InvalidInputError, match="window X must be finite"):
        DataWindow(X, np.array([np.inf, 0.0]), np.array([-0.5, 0.0]))
    X[1, 1] = -np.inf  # X alone holds +inf and -inf, whose sum would be nan, with a warning
    with pytest.raises(InvalidInputError, match="window X must be finite"):
        DataWindow(X, np.zeros(2))


def test_window_accepts_finite_data_whose_sums_overflow():
    big = np.full(2, 1e200)
    window = DataWindow(np.full((3, 2), 1e308), big, big)
    npt.assert_array_equal(window.n, big)


def test_error_vector_zero_state(rng):
    X = rng.standard_normal((5, 3))
    d = rng.standard_normal(3)
    npt.assert_array_equal(
        error_vector(FilterState(np.zeros(5)), DataWindow(X, d)), d
    )


def test_error_vector_perfect_model(rng):
    X = rng.standard_normal((5, 3))
    w = rng.standard_normal(5)
    e = error_vector(FilterState(w), DataWindow(X, X.T @ w))
    npt.assert_allclose(e, 0.0, atol=1e-12)


def test_error_vector_matches_componentwise_dot(rng):
    X = rng.standard_normal((6, 3))
    d = rng.standard_normal(3)
    w = rng.standard_normal(6)
    e = error_vector(FilterState(w), DataWindow(X, d))
    for j in range(3):
        expected = d[j] - sum(X[t, j] * w[t] for t in range(6))
        assert e[j] == pytest.approx(expected, abs=1e-12)


def test_error_vector_tap_mismatch():
    with pytest.raises(InvalidInputError):
        error_vector(FilterState(np.zeros(4)), DataWindow(np.ones((5, 2)), np.ones(2)))


@pytest.mark.parametrize(
    "e0,expected",
    [(0.5, True), (-0.5, True), (0.1, False), (GAMMA, False), (-GAMMA, False)],
)
def test_indicator(e0, expected):
    assert indicator(e0, GAMMA) is expected


@settings(max_examples=100, deadline=None)
@given(st.floats(-10, 10), st.floats(0.01, 5))
def test_indicator_matches_definition(e0, gamma_bar):
    assert indicator(e0, gamma_bar) == (abs(e0) > gamma_bar)


def test_no_update_inside_band():
    state = FilterState(np.zeros(2))
    window = DataWindow(np.array([[1.0], [0.0]]), np.array([0.1]))
    new_state, outcome = smap_update(state, window, np.zeros(1), GAMMA)
    assert new_state is state
    assert not outcome.updated
    npt.assert_array_equal(outcome.posterior_errors, error_vector(state, window))


def test_scalar_reuse_worked_example():
    state = FilterState(np.zeros(2))
    window = DataWindow(np.array([[1.0], [0.0]]), np.array([1.0]))
    new_state, outcome = smap_update(state, window, np.array([GAMMA]), GAMMA)
    assert outcome.updated
    npt.assert_allclose(new_state.w, [1.0 - GAMMA, 0.0], atol=1e-12)
    npt.assert_allclose(outcome.posterior_errors, [GAMMA], atol=1e-12)


def test_posterior_errors_land_on_cv(rng, make_instance):
    for _ in range(25):
        inst = make_instance(rng)
        _, outcome = smap_update(
            inst["state"], inst["window"], inst["cv"], inst["gamma_bar"]
        )
        assert outcome.updated
        npt.assert_allclose(outcome.posterior_errors, inst["cv"], atol=1e-8)


def test_update_is_minimal_disturbance(rng, make_instance):
    for _ in range(10):
        inst = make_instance(rng)
        new_state, _ = smap_update(
            inst["state"], inst["window"], inst["cv"], inst["gamma_bar"]
        )
        w_kkt = solve_constrained(
            ConstrainedLSProblem(
                inst["window"].X, inst["window"].d, inst["state"].w, inst["cv"]
            )
        )
        npt.assert_allclose(new_state.w, w_kkt, atol=1e-8)


def test_scalar_window_matches_closed_form(rng):
    x = rng.standard_normal(6)
    w = rng.standard_normal(6)
    d = np.array([float(x @ w) + 1.0])
    delta = 1e-12
    new_state, _ = smap_update(
        FilterState(w), DataWindow(x[:, None], d), np.array([0.05]), 0.4, delta
    )
    expected = w + x * (1.0 - 0.05) / (float(x @ x) + delta)
    npt.assert_allclose(new_state.w, expected, rtol=1e-10)


def test_cv_bound_enforcement():
    state = FilterState(np.zeros(2))
    window = DataWindow(np.array([[1.0], [0.0]]), np.array([1.0]))
    with pytest.raises(ConstraintBoundError):
        smap_update(state, window, np.array([0.3]), GAMMA)
    with pytest.raises(ConstraintBoundError):  # a NaN component fails the bound too
        smap_update(state, window, np.array([np.nan]), GAMMA)
    new_state, outcome = smap_update(
        state, window, np.array([0.3]), GAMMA, enforce_cv_bound=False
    )
    assert outcome.updated
    npt.assert_allclose(outcome.posterior_errors, [0.3], atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_current_error_is_rejected(bad):
    # abs(nan) > gamma_bar is false, so without the check this step would
    # be skipped silently
    with pytest.raises(InvalidInputError):
        indicator(bad, GAMMA)
    # finite data whose current error overflows: X.T @ w is inf + inf or inf - inf
    state = FilterState(np.array([1e308, 1e308]))  # finite, though its sum overflows
    sign = -1.0 if np.isnan(bad) else 1.0
    window = DataWindow(np.array([[1e10, 0.0], [sign * 1e10, 1.0]]), np.zeros(2))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        InvalidInputError, match="current error must be finite"
    ):
        smap_update(state, window, np.zeros(2), GAMMA)


def test_cv_shape_mismatch():
    state = FilterState(np.zeros(2))
    window = DataWindow(np.array([[1.0], [0.0]]), np.array([1.0]))
    with pytest.raises(InvalidInputError):
        smap_update(state, window, np.zeros(2), GAMMA)


def test_duplicate_columns_need_regularization():
    state = FilterState(np.zeros(4))
    window = DataWindow(np.ones((4, 2)), np.array([2.0, 2.0]))
    with pytest.raises(SingularSystemError):
        smap_update(state, window, np.zeros(2), 0.1)


def test_ap_full_step_equals_zero_target_projection(rng, make_instance):
    inst = make_instance(rng)
    via_ap = ap_update(inst["state"], inst["window"], 1.0)[0]
    via_smap, _ = smap_update(
        inst["state"], inst["window"], np.zeros_like(inst["cv"]), inst["gamma_bar"]
    )
    npt.assert_allclose(via_ap.w, via_smap.w, atol=1e-10)


def test_ap_matches_direct_formula(rng):
    X = rng.standard_normal((8, 3))
    d = rng.standard_normal(3)
    w = rng.standard_normal(8)
    mu, delta = 0.05, 1e-12
    new_state = ap_update(FilterState(w), DataWindow(X, d), mu, delta)[0]
    G = X.T @ X + delta * np.eye(3)
    expected = w + mu * (X @ np.linalg.inv(G) @ (d - X.T @ w))
    npt.assert_allclose(new_state.w, expected, rtol=1e-9)


@pytest.mark.parametrize("mu", [-0.1, 1.5, 0.0, np.nan])
def test_ap_step_out_of_range(mu):
    # the range ScenarioConfig and `smap run --mu` take: 0 < mu <= 1
    with pytest.raises(InvalidInputError, match=r"step size must lie in \(0, 1\]") as exc:
        ap_update(FilterState(np.zeros(3)), DataWindow(np.ones((3, 1)), np.ones(1)), mu)
    assert exc.value.field == "ap_step"


@pytest.mark.parametrize("gamma_bar", [0.05, 5.0], ids=["firing", "quiet"])
def test_prior_errors_leave_the_step_unchanged(rng, make_instance, gamma_bar):
    # the caller's error_vector, passed in, gives the step taken without it,
    # bit for bit, in the gated step and in AP's
    inst = make_instance(rng)
    state, window = inst["state"], inst["window"]
    cv = np.clip(inst["cv"], -gamma_bar, gamma_bar)
    prior = error_vector(state, window)
    assert (abs(prior[0]) > gamma_bar) == (gamma_bar == 0.05)
    plain = smap_update(state, window, cv, gamma_bar, 1e-12)
    given = smap_update(state, window, cv, gamma_bar, 1e-12, prior=prior)
    if not plain[1].updated:
        assert given[0] is state
    ap_plain = ap_update(state, window, 0.7, 1e-12)
    ap_given = ap_update(state, window, 0.7, 1e-12, prior=prior)
    for plain, given in ((plain, given), (ap_plain, ap_given)):
        assert given[1].updated == plain[1].updated
        assert given[0].w.tobytes() == plain[0].w.tobytes()
        assert given[1].posterior_errors.tobytes() == plain[1].posterior_errors.tobytes()


@pytest.mark.parametrize(
    "taps,shape", [(2, (2,)), (2, (4,)), (2, (3, 1)), (2, ()), (5, (3,))],
    ids=["short", "long", "column", "scalar", "taps"],
)
def test_prior_that_does_not_fit_the_step_is_rejected(taps, shape):
    # the last case fits the window but not the state, so it is no error_vector of the step
    window = DataWindow(np.ones((2, 3)), np.ones(3))
    state, prior = FilterState(np.zeros(taps)), np.ones(shape)
    with pytest.raises(InvalidInputError) as exc:
        smap_update(state, window, np.zeros(3), GAMMA, prior=prior)
    assert exc.value.field == "prior"
    with pytest.raises(InvalidInputError) as exc:
        ap_update(state, window, 0.5, prior=prior)
    assert exc.value.field == "prior"


@pytest.mark.parametrize("gamma_bar", [np.nan, np.inf, -np.inf, 0.0, -0.1])
@pytest.mark.parametrize("enforce", [True, False])
def test_threshold_that_is_not_positive_and_finite_is_rejected(gamma_bar, enforce):
    # a nan once failed the bound check as a magnitude, and a negative
    # threshold without the bound check fired the gate on every step
    state, window = FilterState.zeros(2), DataWindow(np.eye(2), np.zeros(2))
    with pytest.raises(InvalidInputError, match="threshold must be positive and finite") as exc:
        smap_update(state, window, np.zeros(2), gamma_bar, enforce_cv_bound=enforce)
    assert exc.value.field == "gamma_bar"
