"""Set-membership affine projection filtering with energy-conservation checks.

The package pairs the gated data-reuse update with the bookkeeping
needed to verify, numerically and statistically, that each step keeps a
combined misalignment/error energy from growing, that the accumulated
noise-to-error energy ratio stays bounded, and that the posterior errors
never diverge.
"""

from .constrained_ls import ConstrainedLSProblem, solve_constrained
from .constraints import (
    ConstraintStrategy,
    custom_cv,
    fixed_cv,
    make_cv,
    noise_cv,
    satisfies_bound,
    sc_cv,
    zero_cv,
)
from .errors import (
    ConstraintBoundError,
    DegenerateDenominatorError,
    InvalidInputError,
    SimulationError,
    SingularSystemError,
    SmapError,
)
from .filters import (
    CONTRACT,
    EXPAND,
    NO_UPDATE,
    PRESERVE,
    DataWindow,
    FilterState,
    UpdateOutcome,
    ap_update,
    error_vector,
    indicator,
    smap_update,
)
from .linalg import gram, solve_spd
from .robustness import (
    DivergenceMonitorRecord,
    GlobalRobustnessReport,
    LocalRobustnessRecord,
    divergence_monitor,
    global_accumulate,
    local_check,
)
from .sim import (
    AP,
    SMAP,
    MonteCarloSummary,
    RunTrace,
    ScenarioConfig,
    generate_signals,
    generate_system,
    run_monte_carlo,
    run_rng,
    run_single,
    steady_state_db,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SmapError",
    "InvalidInputError",
    "SingularSystemError",
    "ConstraintBoundError",
    "DegenerateDenominatorError",
    "SimulationError",
    "gram",
    "solve_spd",
    "CONTRACT",
    "PRESERVE",
    "EXPAND",
    "NO_UPDATE",
    "FilterState",
    "DataWindow",
    "UpdateOutcome",
    "error_vector",
    "indicator",
    "smap_update",
    "ap_update",
    "ConstraintStrategy",
    "fixed_cv",
    "sc_cv",
    "noise_cv",
    "zero_cv",
    "custom_cv",
    "make_cv",
    "satisfies_bound",
    "LocalRobustnessRecord",
    "GlobalRobustnessReport",
    "DivergenceMonitorRecord",
    "local_check",
    "global_accumulate",
    "divergence_monitor",
    "ConstrainedLSProblem",
    "solve_constrained",
    "SMAP",
    "AP",
    "ScenarioConfig",
    "RunTrace",
    "MonteCarloSummary",
    "generate_system",
    "generate_signals",
    "run_rng",
    "run_single",
    "run_monte_carlo",
    "steady_state_db",
]
