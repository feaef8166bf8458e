"""Exception types shared across the package."""


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
