"""Tests for the constraint-vector strategies."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from smap.constraints import (
    ConstraintStrategy,
    custom_cv,
    fixed_cv,
    make_cv,
    noise_cv,
    satisfies_bound,
    sc_cv,
    zero_cv,
)
from smap.errors import ConstraintBoundError, InvalidInputError

GAMMA = 0.2236


def test_strategy_validation():
    with pytest.raises(InvalidInputError):
        ConstraintStrategy("bogus")
    for kind in ("noise", "fixed", "sccv", "zero"):
        for scale in (-1.0, math.inf, math.nan):  # inf * 0 in the noise window is nan
            with pytest.raises(InvalidInputError, match="noise scale") as exc:
                ConstraintStrategy(kind, scale=scale)
            assert exc.value.field == "scale"
    with pytest.raises(InvalidInputError):
        ConstraintStrategy("custom")


@pytest.mark.parametrize(
    "field, build",
    [
        ("kind", lambda: ConstraintStrategy("bogus")),
        ("scale", lambda: ConstraintStrategy("noise", scale="2")),
        ("scale", lambda: ConstraintStrategy("fixed", scale=None)),
        ("scale", lambda: noise_cv(math.nan)),
        ("fn", lambda: ConstraintStrategy("custom")),
        ("fn", lambda: custom_cv(5)),
        ("scale", lambda: noise_cv(10**400)),  # +inf as a float, so out of range
    ],
)
def test_strategy_errors_name_their_field(field, build):
    with pytest.raises(InvalidInputError) as exc:
        build()
    assert exc.value.field == field


@pytest.mark.parametrize("gamma_bar", [math.nan, math.inf, -math.inf, 0.0, -0.1])
@pytest.mark.parametrize("strategy", [fixed_cv(), sc_cv(), noise_cv(), zero_cv()], ids=lambda s: s.kind)
def test_threshold_that_is_not_positive_and_finite_is_rejected(strategy, gamma_bar):
    # an infinite threshold once gave an all-inf fixed target
    with pytest.raises(InvalidInputError, match="threshold must be positive and finite") as exc:
        make_cv(strategy, np.ones(3), np.zeros(3), gamma_bar, enforce_bound=False)
    assert exc.value.field == "gamma_bar"


def test_fixed_fills_threshold():
    cv = make_cv(fixed_cv(), np.array([0.5, -0.1, 0.2]), None, GAMMA)
    npt.assert_array_equal(cv, [GAMMA, GAMMA, GAMMA])


def test_sccv_keeps_sign_and_trailing_errors():
    cv = make_cv(sc_cv(), np.array([-0.5, 0.1, -0.05]), None, GAMMA)
    npt.assert_allclose(cv, [-GAMMA, 0.1, -0.05])


def test_sccv_clips_out_of_band_trailing_errors():
    cv = make_cv(sc_cv(), np.array([0.5, 0.4, -0.3]), None, GAMMA)
    npt.assert_allclose(cv, [GAMMA, GAMMA, -GAMMA])


@pytest.mark.parametrize("shape", [(10,), (4, 10)])
def test_sccv_matches_the_clip_form_to_the_bit(rng, shape):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 3.0, -3.0, GAMMA, -GAMMA]
    prior = rng.choice(specials, size=shape) * rng.choice([1.0, 0.5, 1e-3], size=shape)
    # every special value in a trailing position, and in the leading one
    for values in (prior, np.resize([0.1] + specials, shape), np.resize(specials, shape)):
        expected = np.clip(values, -GAMMA, GAMMA)
        expected[..., 0] = GAMMA * np.sign(values[..., 0])
        with np.errstate(invalid="ignore"):
            got = make_cv(sc_cv(), values, None, GAMMA)
        # bytes, so that NaN payloads and the sign of zeros count
        assert got.tobytes() == expected.tobytes()


def test_sccv_sign_tracks_leading_error(rng):
    for _ in range(20):
        e = rng.standard_normal(3)
        cv = make_cv(sc_cv(), e, None, GAMMA)
        assert cv[0] == pytest.approx(GAMMA * np.sign(e[0]))
        assert satisfies_bound(cv, GAMMA)


def test_noise_scales_window():
    n = np.array([0.05, -0.02, 0.01])
    cv = make_cv(noise_cv(2.0), np.zeros(3), n, GAMMA)
    npt.assert_allclose(cv, 2.0 * n)


def test_noise_requires_window():
    with pytest.raises(InvalidInputError):
        make_cv(noise_cv(), np.zeros(3), None, GAMMA)


@pytest.mark.parametrize("prior, noise", [((3,), (2,)), ((3,), (2, 3)), ((2, 3), (3,))])
def test_noise_window_must_match_the_errors(prior, noise):
    with pytest.raises(InvalidInputError, match="noise window shape"):
        make_cv(noise_cv(), np.zeros(prior), np.zeros(noise), GAMMA)


def test_noise_out_of_band_raises_unless_relaxed():
    n = np.array([0.2, 0.0, 0.0])
    with pytest.raises(ConstraintBoundError):
        make_cv(noise_cv(2.0), np.zeros(3), n, GAMMA)
    cv = make_cv(noise_cv(2.0), np.zeros(3), n, GAMMA, enforce_bound=False)
    npt.assert_allclose(cv, [0.4, 0.0, 0.0])


def test_noise_nan_component_fails_the_bound():
    n = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ConstraintBoundError):
        make_cv(noise_cv(1.0), np.zeros(3), n, GAMMA, enforce_bound=True)


def test_zero_strategy():
    npt.assert_array_equal(make_cv(zero_cv(), np.ones(3), None, GAMMA), np.zeros(3))


def test_custom_rule_applied_and_shape_checked():
    strategy = custom_cv(lambda e, n, g: np.clip(e, -g, g))
    cv = make_cv(strategy, np.array([0.5, -0.5, 0.1]), None, GAMMA)
    npt.assert_allclose(cv, [GAMMA, -GAMMA, 0.1])
    bad = custom_cv(lambda e, n, g: np.zeros(2))
    with pytest.raises(InvalidInputError):
        make_cv(bad, np.ones(3), None, GAMMA)


def test_make_cv_validates_inputs():
    with pytest.raises(InvalidInputError):
        make_cv(fixed_cv(), np.ones(3), None, 0.0)
    with pytest.raises(InvalidInputError):
        make_cv(fixed_cv(), np.zeros(0), None, GAMMA)


@pytest.mark.parametrize(
    "cv,ok",
    [([0.0, 0.0], True), ([GAMMA, -GAMMA], True), ([0.3], False)],
)
def test_satisfies_bound(cv, ok):
    assert satisfies_bound(np.array(cv), GAMMA) is ok


@pytest.mark.parametrize("strategy", [fixed_cv(), sc_cv(), noise_cv(0.5), zero_cv()])
def test_stacked_rows_match_single_rows(rng, strategy):
    prior = rng.standard_normal((6, 3))
    noise = 0.3 * rng.standard_normal((6, 3))
    stacked = make_cv(strategy, prior, noise, GAMMA, enforce_bound=False)
    for row, e, n in zip(stacked, prior, noise):
        npt.assert_array_equal(row, make_cv(strategy, e, n, GAMMA, enforce_bound=False))
    assert satisfies_bound(stacked, GAMMA).tolist() == [satisfies_bound(r, GAMMA) for r in stacked]


def test_custom_rule_takes_one_row_per_call():
    strategy = custom_cv(lambda prior, noise, gamma_bar: np.zeros(prior.size))
    with pytest.raises(InvalidInputError):
        make_cv(strategy, np.zeros((2, 3)), None, GAMMA)
