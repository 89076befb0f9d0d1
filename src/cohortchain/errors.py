"""Exception hierarchy shared across the package."""


class CohortChainError(Exception):
    """Base class for all errors raised by this package."""


class EstimationError(CohortChainError):
    """Base class for errors that can occur while computing an estimate.

    Only the fit on the original data raises this family, and
    `bootstrap_each` lets it reach its caller as it is. Replicates never
    raise: one whose estimate is undefined is dropped and counted.
    """


class InsufficientData(EstimationError):
    """A transient state has no observed outgoing transitions."""

    def __init__(self, state):
        self.state = state
        super().__init__(f"no observed transitions out of state {state.name}")


class EmptyCohort(EstimationError):
    def __init__(self, cohort_year):
        self.cohort_year = cohort_year
        super().__init__(f"cohort {cohort_year} contains no students")


class HorizonTooEarly(EstimationError):
    """The cohort is not yet six years old, so a traditional-style estimate
    is impossible. Deliberately loud: this is the gap the pooled Markov
    estimator exists to fill, never something to extrapolate over."""

    def __init__(self, cohort_year, horizon_year):
        self.cohort_year = cohort_year
        self.horizon_year = horizon_year
        super().__init__(
            f"cohort {cohort_year} has only {horizon_year - cohort_year} "
            f"observable years at horizon {horizon_year}; six are required"
        )


class NoRecords(EstimationError):
    def __init__(self):
        super().__init__("no student records supplied")


class MissingExposure(EstimationError):
    def __init__(self, student_id):
        self.student_id = student_id
        super().__init__(f"student {student_id!r} has no recorded LA exposure year")


class ParseError(CohortChainError):
    def __init__(self, row, column, reason):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


class DuplicateId(CohortChainError):
    def __init__(self, student_id, row):
        self.student_id = student_id
        self.row = row
        super().__init__(f"duplicate student_id {student_id!r} at row {row}")


class InvariantViolation(CohortChainError):
    def __init__(self, row, rule):
        self.row = row
        self.rule = rule
        super().__init__(f"row {row}: {rule}")


class TooManyFailedReplicates(CohortChainError):
    def __init__(self, failed, total, ceiling):
        self.failed = failed
        self.total = total
        super().__init__(
            f"{failed} of {total} bootstrap replicates failed (> {ceiling:.0%} ceiling); "
            "the subgroup is too small for a stable estimate"
        )


class EnsembleTooSmall(CohortChainError):
    def __init__(self, size):
        self.size = size
        super().__init__(f"ensemble of size {size} is too small (need >= 2)")


class DegenerateEnsemble(CohortChainError):
    def __init__(self):
        super().__init__(
            "all ensemble values are identical; report a point mass, not a density"
        )


class SpecFileError(CohortChainError):
    """A bad generator spec; `line` is None for an error of the whole file."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(reason if line is None else f"line {line}: {reason}")
