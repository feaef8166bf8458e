"""Each scalar parameter has one type rule and one range, with one text each, at every public
entry point that takes it."""

import math

import numpy as np
import pytest

from smap.constraints import NOISE, ConstraintStrategy, fixed_cv, make_cv, noise_cv, sc_cv
from smap.errors import InvalidInputError
from smap.filters import DataWindow, FilterState, ap_update, indicator, smap_update
from smap.linalg import solve_spd
from smap.robustness import local_check
from smap.sim import ScenarioConfig

# Written out here, not read from errors.RANGES, so that this test guards the texts too.
TEXTS = {
    "gamma_bar": "threshold must be positive and finite",
    "delta": "regularization must be nonnegative and finite",
    "ap_step": "step size must lie in (0, 1]",
    "noise_variance": "noise variance must be positive and finite",
    "ar_coefficient": "autoregression coefficient must satisfy |a| < 1",
    "scale": "noise scale must be nonnegative and finite",
    "snr_db": "SNR must be finite",
}
# beside nan and both infinities: the excluded boundary, or the float just past an included one
REJECTED = {
    "gamma_bar": (0.0,),
    "delta": (-5e-324,),
    "ap_step": (0.0, math.nextafter(1.0, 2.0)),
    "noise_variance": (0.0,),
    "ar_coefficient": (1.0, -1.0),
    "scale": (-5e-324,),
    "snr_db": (),
}
ACCEPTED = {"delta": (0.0,), "ap_step": (1.0,), "scale": (0.0,)}  # the included boundaries


def _window():
    return DataWindow(np.eye(2), np.ones(2))


# every public entry point that takes the parameter, as a function of its value alone;
# a configuration takes the noise scale inside its strategy
ENTRY_POINTS = {
    "gamma_bar": (
        lambda v: ScenarioConfig(gamma_bar=v),
        lambda v: smap_update(FilterState.zeros(2), _window(), np.zeros(2), v),
        lambda v: make_cv(fixed_cv(), np.ones(2), None, v),
        lambda v: indicator(1.0, v),
    ),
    "delta": (
        lambda v: ScenarioConfig(delta=v),
        lambda v: solve_spd(np.eye(2), np.ones(2), v),
        lambda v: local_check(
            np.ones(2), FilterState.zeros(2), FilterState.zeros(2),
            DataWindow(np.eye(2), np.ones(2), np.zeros(2)), np.zeros(2), True, v,
        ),
    ),
    "ap_step": (
        lambda v: ScenarioConfig(ap_step=v),
        lambda v: ap_update(FilterState.zeros(2), _window(), v),
    ),
    "noise_variance": (lambda v: ScenarioConfig(noise_variance=v),),
    "ar_coefficient": (lambda v: ScenarioConfig(ar_coefficient=v),),
    "scale": (
        lambda v: ScenarioConfig(cv_strategy=noise_cv(v)),
        lambda v: ConstraintStrategy(NOISE, scale=v),
    ),
    "snr_db": (lambda v: ScenarioConfig(snr_db=v),),
}


@pytest.mark.parametrize("field", TEXTS)
def test_every_entry_point_applies_one_range_with_one_text(field):
    # solve_spd once wrote its own text for delta, naming no field
    for value in (math.nan, math.inf, -math.inf, *REJECTED[field]):
        for enter in ENTRY_POINTS[field]:
            with pytest.raises(InvalidInputError) as exc:
                enter(value)
            assert (str(exc.value), exc.value.field) == (f"{TEXTS[field]}, got {value}", field)
    for value in ACCEPTED.get(field, ()):
        for enter in ENTRY_POINTS[field]:
            enter(value)


@pytest.mark.parametrize("field", TEXTS)
def test_every_entry_point_applies_one_type_rule_with_one_text(field):
    # smap_update, make_cv, ap_update, solve_spd and local_check once checked the range alone,
    # so these raised numpy's or Python's bare TypeError, ValueError or OverflowError
    for value in ("0.3", np.array([0.1, 0.2]), None):
        for enter in ENTRY_POINTS[field]:
            if value is None and field == "ap_step" and enter is ENTRY_POINTS[field][0]:
                enter(value)  # a configuration without a step size runs SM-AP
                continue
            with pytest.raises(InvalidInputError) as exc:
                enter(value)
            assert (str(exc.value), exc.value.field) == (
                f"{field} must be a real number, got {value!r}", field
            )
    for enter in ENTRY_POINTS[field]:  # an int too large for a float reads as inf
        with pytest.raises(InvalidInputError) as exc:
            enter(10**400)
        assert (str(exc.value), exc.value.field) == (f"{TEXTS[field]}, got inf", field)


@pytest.mark.parametrize("strategy", [fixed_cv(), sc_cv()])
def test_make_cv_computes_with_the_float_it_checked(strategy):
    cv = make_cv(strategy, np.array([0.5, -0.1]), None, np.float32(0.2236))
    assert cv.dtype == np.float64
