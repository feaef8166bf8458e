"""Exception types shared across the package, and the argument checks that name their field."""

import math
import numbers
import operator
import sys

__all__ = [
    "SmapError",
    "InvalidInputError",
    "SingularSystemError",
    "ConstraintBoundError",
    "DegenerateDenominatorError",
    "SimulationError",
]


class SmapError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(SmapError, ValueError):
    """Bad shapes, non-finite entries, or out-of-range scalars.

    ``field`` names the configuration field at fault when one value is.
    """

    def __init__(self, *args, field=None):
        super().__init__(*args)
        self.field = field


class SingularSystemError(SmapError, ArithmeticError):
    """A linear system could not be factorized or is rank deficient."""


class ConstraintBoundError(SmapError, ValueError):
    """A constraint-vector component exceeds the error-magnitude threshold."""


class DegenerateDenominatorError(SmapError, ZeroDivisionError):
    """An energy-ratio denominator is exactly zero."""


class SimulationError(SmapError, RuntimeError):
    """A run failed mid-stream; the message names the iteration, and in an
    ensemble also the run index and the master seed that replay it."""


def require(ok: bool, field: str, message: str) -> None:
    """Raise ``InvalidInputError`` naming ``field`` unless ``ok``."""
    if not ok:
        raise InvalidInputError(message, field=field)


def integer(value, field: str, low: int = 0) -> int:
    """Return ``value`` as an ``int`` if it is an integer (numpy ones too) of at least ``low``."""
    try:
        value = operator.index(value)  # floats, strings and None raise
        ok = value >= low
    except TypeError:
        ok = False
    require(ok, field, f"{field} must be an integer >= {low}, got {value!r}")
    return value


def fits_array(count: int, field: str, what: str) -> int:
    """Return ``count`` if one numpy array, at most ``sys.maxsize`` bytes, holds that many
    float64 values; else raise naming ``field``.  ``what`` names the values, with their count."""
    require(8 * count <= sys.maxsize, field, f"{what} exceed the largest array numpy can hold")
    return count


# Each scalar parameter's range: a test that nan fails, and what the value must be.
RANGES = {
    "gamma_bar": (lambda v: 0.0 < v < math.inf, "threshold must be positive and finite"),
    "delta": (lambda v: 0.0 <= v < math.inf, "regularization must be nonnegative and finite"),
    "ap_step": (lambda v: 0.0 < v <= 1.0, "step size must lie in (0, 1]"),
    "noise_variance": (lambda v: 0.0 < v < math.inf, "noise variance must be positive and finite"),
    "ar_coefficient": (lambda v: abs(v) < 1.0, "autoregression coefficient must satisfy |a| < 1"),
    "scale": (lambda v: 0.0 <= v < math.inf, "noise scale must be nonnegative and finite"),
    "snr_db": (math.isfinite, "SNR must be finite"),
}


def in_range(value, field: str) -> float:
    """Return ``value`` as a ``float`` if it is a real number (an int, a float or a numpy one)
    that passes ``field``'s test in ``RANGES``."""
    if not (isinstance(value, float) or isinstance(value, numbers.Real)):  # the ABC test is slow
        raise InvalidInputError(f"{field} must be a real number, got {value!r}", field=field)
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float; the range rejects +-inf
        value = math.inf if value > 0 else -math.inf
    test, what = RANGES[field]
    if not test(value):  # the text is built only here: indicator checks every step
        raise InvalidInputError(f"{what}, got {value}", field=field)
    return value
