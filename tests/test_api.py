import cohortchain

# Changing the public names is a deliberate act: update this list with it.
EXPECTED = [
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


def test_public_names_are_pinned():
    assert cohortchain.__all__ == EXPECTED


def test_every_public_name_resolves():
    for name in cohortchain.__all__:
        assert getattr(cohortchain, name, None) is not None, name
