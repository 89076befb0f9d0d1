import ast
from pathlib import Path

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


def test_public_names_are_pinned():
    assert cohortchain.__all__ == EXPECTED


def test_every_public_name_resolves():
    for name in cohortchain.__all__:
        assert getattr(cohortchain, name, None) is not None, name


def _package_imports(module):
    """The package modules that a module of cohortchain imports relatively,
    read from its source."""
    source = Path(cohortchain.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
    return names


def test_records_imports_only_errors():
    # the panel format knows nothing of the chain or the estimators
    assert _package_imports("records") <= {"errors"}


def test_markov_imports_no_package_module():
    assert _package_imports("markov") == set()
