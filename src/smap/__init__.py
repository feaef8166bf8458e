"""Set-membership affine projection filtering with energy-conservation checks.

The package pairs the gated data-reuse update with the bookkeeping
needed to verify, numerically and statistically, that each step keeps a
combined misalignment/error energy from growing, that the accumulated
noise-to-error energy ratio stays bounded, and that the posterior errors
never diverge.
"""

from . import constrained_ls, constraints, errors, filters, linalg, robustness, sim
from .constrained_ls import *
from .constraints import *
from .errors import *
from .filters import *
from .linalg import *
from .robustness import *
from .sim import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    "__version__",
    *errors.__all__,
    *linalg.__all__,
    *filters.__all__,
    *constraints.__all__,
    *robustness.__all__,
    *constrained_ls.__all__,
    *sim.__all__,
]
