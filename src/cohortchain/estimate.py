"""Six-year graduation rate estimators over parsed student records.

Three estimators: the traditional cohort ratio, the reduced-form chain
restricted to one complete cohort (the positive control), and the full
pooled chain that also absorbs partial-cohort evidence.

All three read their estimate off pooled integer tallies. A record's tally
depends only on its trajectory type, (cohort_year, outcome, outcome_year,
la_year), so `trajectory_types` keys the records once, and each estimator
derives one tally row per type (`table`, by the reference rules
`derive_transitions` and `la_truncate`). Any resample's pooled tally is
then its type counts times the table, exactly the sum of its records'
tallies, so the bootstrap counts each resample's types once for every
estimator and re-derives nothing. `rates` is the one readout: it reads a
whole stack of tallies at once (`sygr_markov_stack`), and the point
estimate is the original tally read as a stack of one. Only where that
estimate is undefined does `fit` ask `build_matrix` which state has no
observations, to name it in the error. The tests hold `rates` to a per-row
reference.
"""

import numpy as np

from .errors import EmptyCohort, HorizonTooEarly, NoRecords
from .markov import TransitionCounts, build_matrix, sygr_markov_stack
from .records import Outcome, derive_transitions, la_truncate
from .states import ALLOWED_CELLS, N_STATES, AcademicState

_CELL_INDEX = {cell: i for i, cell in enumerate(ALLOWED_CELLS)}
_N_CELLS = len(ALLOWED_CELLS)
_CELL_ROWS, _CELL_COLS = np.array(ALLOWED_CELLS).T


def trajectory_types(records):
    """(type_id, types): each record's trajectory-type id, and one record of
    each type, (cohort_year, outcome, outcome_year, la_year), in order of
    first appearance."""
    index = {}
    types = []
    ids = []
    for r in records:
        key = (r.cohort_year, r.outcome, r.outcome_year, r.la_year)
        t = index.get(key)
        if t is None:
            t = index[key] = len(types)
            types.append(r)
        ids.append(t)
    return np.array(ids, dtype=np.intp), types


def _chain_cells(r, horizon_year, from_la_year=False):
    """One record's observable steps, counted per ALLOWED_CELLS entry."""
    steps = derive_transitions(r, horizon_year)
    if from_la_year:
        steps = la_truncate(r, steps)
    row = [0] * _N_CELLS
    for t in steps:
        row[_CELL_INDEX[t.frm, t.to]] += 1
    return row


def _chain_grids(cells):
    """(..., 8, 8) count grids from (..., ALLOWED_CELLS) tallies."""
    cells = np.asarray(cells)
    grids = np.zeros(cells.shape[:-1] + (N_STATES, N_STATES), dtype=np.int64)
    grids[..., _CELL_ROWS, _CELL_COLS] = cells
    return grids


def persistence_rates(records, horizon_year, *, from_la_year=False):
    """Year-to-year persistence probabilities from the pooled matrix, keyed
    by starting year of study (1..5). Full precision; rounding is a
    reporting concern. A year with no observed steps maps to None: the
    matrix imputes drop-out for it, which is no estimate of persistence."""
    estimator = MarkovFullEstimator(horizon_year, from_la_year=from_la_year)
    type_id, types = trajectory_types(records)
    estimator._check(types)
    tally = np.bincount(type_id, minlength=len(types)) @ estimator.table(types)
    counts = TransitionCounts(_chain_grids(tally))
    p = build_matrix(counts)
    return {
        k: p[AcademicState.year(k), AcademicState.year(k + 1)]
        if counts.row_total(AcademicState.year(k))
        else None
        for k in range(1, 6)
    }


class _Estimator:
    """A check, a tally table over trajectory types, and the readout of
    pooled tallies.

    Subclasses supply `_row`, one record's integer tally of `_width`
    entries, and may override `_check` and `rates`, which by default is the
    chain readout of ALLOWED_CELLS counts.
    """

    _width = _N_CELLS

    def _check(self, types):
        """Raise if the estimate is undefined on (original) records of these
        trajectory types for any reason but a chain state without
        observations."""

    def rates(self, tallies):
        """(values, ok) for a (b, _width) stack of pooled tallies: ok[k] is
        False exactly where the estimate is undefined on tallies[k], and
        values[k] is the estimate elsewhere."""
        return sygr_markov_stack(_chain_grids(tallies))

    def table(self, types):
        """One integer tally row per trajectory type, (len(types), _width)."""
        rows = [self._row(r) for r in types]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self._width)

    def fit(self, types, type_counts):
        """(point estimate, table) on the original records, given as their
        trajectory types and each type's record count; raises where the
        estimate is undefined on them."""
        self._check(types)
        table = self.table(types)
        tally = type_counts @ table
        values, ok = self.rates(tally[None])
        if not ok[0]:
            # past _check, only a chain state without observations is left
            build_matrix(TransitionCounts(_chain_grids(tally)))  # raises, naming it
        return float(values[0]), table

    def point(self, records):
        type_id, types = trajectory_types(records)
        return self.fit(types, np.bincount(type_id, minlength=len(types)))[0]


class _CohortEstimator(_Estimator):
    """An estimator of one cohort, which must be six years old at the horizon."""

    def __init__(self, cohort_year, horizon_year):
        if horizon_year < cohort_year + 6:
            raise HorizonTooEarly(cohort_year, horizon_year)
        self.cohort_year = cohort_year
        self.horizon_year = horizon_year

    def _check(self, types):
        if not any(r.cohort_year == self.cohort_year for r in types):
            raise EmptyCohort(self.cohort_year)


class TraditionalEstimator(_CohortEstimator):
    """Graduated-within-six-years fraction of one fully observed cohort.
    Tally: (starters, graduates)."""

    _width = 2

    def _row(self, r):
        start = r.cohort_year == self.cohort_year
        deg = start and r.outcome is Outcome.GRADUATED and r.outcome_year <= 6
        return [int(start), int(deg)]

    def rates(self, tallies):
        n_start, n_deg = np.asarray(tallies).T
        ok = n_start > 0
        return np.divide(n_deg, n_start, out=np.zeros(len(ok)), where=ok), ok


class MarkovReducedEstimator(_CohortEstimator):
    """Chain estimate restricted to exactly the data the traditional
    estimate uses; agrees with it to floating-point precision on complete
    cohorts (the path probabilities telescope)."""

    def _row(self, r):
        if r.cohort_year != self.cohort_year:
            return [0] * _N_CELLS
        return _chain_cells(r, self.horizon_year)


class MarkovFullEstimator(_Estimator):
    """Pooled chain estimate over all records observable at the horizon.

    Partial cohorts contribute only their completed transitions. With
    from_la_year, each record contributes only the steps from its first
    LA-supported year onward.
    """

    def __init__(self, horizon_year, *, from_la_year=False):
        self.horizon_year = horizon_year
        self.from_la_year = from_la_year

    def _check(self, types):
        if not types:
            raise NoRecords()

    def _row(self, r):
        return _chain_cells(r, self.horizon_year, self.from_la_year)
