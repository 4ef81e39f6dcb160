"""CHSH expectation bounds and maximization for two-qudit states."""

from .bounds import (
    TSIRELSON,
    BoundsReport,
    chsh_bounds,
    ghz_chsh_maximum,
    ghz_correlation_matrix,
    horodecki_two_qubit,
    top_two_gram_eigenvalues,
)
from .correlation import (
    ChshSettings,
    CorrelationMatrix,
    chsh_expectation_direct,
    chsh_expectation_from_correlations,
    chsh_operator,
    correlation_matrix,
)
from .optimizer import (
    SeesawConfig,
    SeesawResult,
    ghz_optimal_settings,
    seesaw_maximize,
)
from .representation import (
    GellMannBasis,
    TracelessObservable,
    build_gellmann_basis,
    expand_observable,
    max_admissible_norm,
)
from .states import (
    TwoQuditState,
    ghz_state,
    load_state_file,
    random_two_qudit_state,
    validate_state,
)

__all__ = [
    "TSIRELSON",
    "BoundsReport",
    "ChshSettings",
    "CorrelationMatrix",
    "GellMannBasis",
    "SeesawConfig",
    "SeesawResult",
    "TracelessObservable",
    "TwoQuditState",
    "build_gellmann_basis",
    "chsh_bounds",
    "chsh_expectation_direct",
    "chsh_expectation_from_correlations",
    "chsh_operator",
    "correlation_matrix",
    "expand_observable",
    "ghz_chsh_maximum",
    "ghz_correlation_matrix",
    "ghz_optimal_settings",
    "ghz_state",
    "horodecki_two_qubit",
    "load_state_file",
    "max_admissible_norm",
    "random_two_qudit_state",
    "seesaw_maximize",
    "top_two_gram_eigenvalues",
    "validate_state",
]

__version__ = "0.1.0"
