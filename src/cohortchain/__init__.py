"""Six-year graduation rate estimation from longitudinal student records.

An absorbing chain over year-of-study states pools complete and partial
cohorts into one graduation-rate estimate, with bootstrap percentile
confidence intervals and a synthetic-data generator for validation.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    EstimateSummary,
    bootstrap,
    bootstrap_each,
    kde,
    percentile_ci,
)
from .estimate import (
    MarkovFullEstimator,
    MarkovReducedEstimator,
    TraditionalEstimator,
    persistence_rates,
)
from .markov import (
    TransitionCounts,
    TransitionMatrix,
    build_matrix,
    matrix_power,
    sygr_markov,
    validate_structure,
)
from .records import (
    LaGroup,
    Outcome,
    StudentRecord,
    SubgroupSpec,
    Transition,
    derive_transitions,
    filter_subgroup,
    la_truncate,
    parse_records,
)
from .states import AcademicState
from .synth import (
    GeneratorSpec,
    brute_force_sygr,
    generate_panel,
    generate_panel_with_log,
    random_transition_matrix,
)

__all__ = [
    "AcademicState",
    "BootstrapConfig",
    "EstimateSummary",
    "GeneratorSpec",
    "LaGroup",
    "MarkovFullEstimator",
    "MarkovReducedEstimator",
    "Outcome",
    "StudentRecord",
    "SubgroupSpec",
    "TraditionalEstimator",
    "Transition",
    "TransitionCounts",
    "TransitionMatrix",
    "bootstrap",
    "bootstrap_each",
    "brute_force_sygr",
    "build_matrix",
    "derive_transitions",
    "filter_subgroup",
    "generate_panel",
    "generate_panel_with_log",
    "kde",
    "la_truncate",
    "matrix_power",
    "parse_records",
    "percentile_ci",
    "persistence_rates",
    "random_transition_matrix",
    "sygr_markov",
    "validate_structure",
]
