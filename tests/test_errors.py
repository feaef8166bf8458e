"""Each scalar parameter has one range, with one text, at every public entry point that takes it."""

import math

import numpy as np
import pytest

from smap.constraints import NOISE, ConstraintStrategy, fixed_cv, make_cv, noise_cv
from smap.errors import InvalidInputError
from smap.filters import DataWindow, FilterState, ap_update, smap_update
from smap.linalg import solve_spd
from smap.sim import ScenarioConfig

# Written out here, not read from errors.RANGES, so that this test guards the texts too.
TEXTS = {
    "gamma_bar": "threshold must be positive and finite",
    "delta": "regularization must be nonnegative and finite",
    "ap_step": "step size must lie in (0, 1]",
    "noise_variance": "noise variance must be positive and finite",
    "ar_coefficient": "autoregression coefficient must satisfy |a| < 1",
    "scale": "noise scale must be nonnegative and finite",
}
# beside nan and both infinities: the excluded boundary, or the float just past an included one
REJECTED = {
    "gamma_bar": (0.0,),
    "delta": (-5e-324,),
    "ap_step": (0.0, math.nextafter(1.0, 2.0)),
    "noise_variance": (0.0,),
    "ar_coefficient": (1.0, -1.0),
    "scale": (-5e-324,),
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
    ),
    "delta": (
        lambda v: ScenarioConfig(delta=v),
        lambda v: solve_spd(np.eye(2), np.ones(2), v),
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
