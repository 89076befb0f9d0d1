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
    Transition,
    derive_transitions,
    la_truncate,
    persistence_rates,
)
from .markov import (
    AcademicState,
    TransitionMatrix,
    validate_structure,
)
from .records import (
    LaGroup,
    Outcome,
    Panel,
    StudentRecord,
    SubgroupSpec,
    filter_subgroup,
    parse_records,
)
from .synth import (
    GeneratorSpec,
    brute_force_sygr,
    generate_panel,
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
    "Panel",
    "StudentRecord",
    "SubgroupSpec",
    "TraditionalEstimator",
    "Transition",
    "TransitionMatrix",
    "bootstrap",
    "bootstrap_each",
    "brute_force_sygr",
    "derive_transitions",
    "filter_subgroup",
    "generate_panel",
    "kde",
    "la_truncate",
    "parse_records",
    "percentile_ci",
    "persistence_rates",
    "random_transition_matrix",
    "validate_structure",
]
