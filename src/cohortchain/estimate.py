"""Six-year graduation rate estimators over parsed student records.

Three estimators: the traditional cohort ratio, the reduced-form chain
restricted to one complete cohort (the positive control), and the full
pooled chain that also absorbs partial-cohort evidence.

All three read their estimate off pooled integer tallies. A record's tally
depends only on its fields other than the id, so the rows of one `Panel`
kind share one tally, and each estimator derives one tally row per kind
(`table`, by the reference rules `derive_transitions` and `la_truncate`).
Any resample's pooled tally is then its kind counts times the table,
exactly the sum of its records' tallies, so the bootstrap counts each
resample's kinds once for every estimator and re-derives nothing. `rates`
is the one readout: it reads a whole stack of tallies at once
(`sygr_markov_stack`), and the point estimate is the original tally read as
a stack of one. Where that estimate is undefined, `fit` names the state
without observations from the normaliser's gaps. `fit` also returns that
tally, and `persistence_rates` reads a fitted tally. The tests hold `rates`
to a per-row reference.
"""

import numpy as np

from .errors import EmptyCohort, HorizonTooEarly, InsufficientData, NoRecords
from .markov import normalise, sygr_markov_stack
from .records import Outcome, Panel, derive_transitions, la_truncate
from .states import ALLOWED_CELLS, N_STATES, AcademicState

_CELL_INDEX = {cell: i for i, cell in enumerate(ALLOWED_CELLS)}
_N_CELLS = len(ALLOWED_CELLS)
_CELL_ROWS, _CELL_COLS = np.array(ALLOWED_CELLS).T


def _chain_cells(r, horizon_year, from_la_year=False):
    """One record's observable steps, counted per ALLOWED_CELLS entry."""
    steps = derive_transitions(r, horizon_year)
    if from_la_year:
        steps = la_truncate(r, steps)
    row = [0] * _N_CELLS
    for t in steps:
        row[_CELL_INDEX[t]] += 1
    return row


def _chain_grids(cells):
    """(..., 8, 8) count grids from (..., ALLOWED_CELLS) tallies."""
    cells = np.asarray(cells)
    grids = np.zeros(cells.shape[:-1] + (N_STATES, N_STATES), dtype=np.int64)
    grids[..., _CELL_ROWS, _CELL_COLS] = cells
    return grids


def persistence_rates(tally):
    """Year-to-year persistence probabilities of a pooled chain tally (one
    count per ALLOWED_CELLS entry, as a chain estimator's `fit` returns it),
    keyed by starting year of study (1..5). Full precision; rounding is a
    reporting concern. A year with no observed steps maps to None: the
    chain imputes drop-out for it, which is no estimate of persistence."""
    counts = _chain_grids(tally)
    p, _gaps = normalise(counts)
    return {k: float(p[k - 1, k]) if counts[k - 1].any() else None for k in range(1, 6)}


class _Estimator:
    """A check, a tally table over a panel's kinds, and the readout of
    pooled tallies.

    Subclasses supply `_row`, one record's integer tally (a count per
    ALLOWED_CELLS entry unless `rates` reads another), and may override
    `_check` and `rates`, which by default is the chain readout of
    ALLOWED_CELLS counts.
    """

    def _check(self, kinds):
        """Raise if the estimate is undefined on (original) records of these
        kinds for any reason but a chain state without observations."""

    def rates(self, tallies):
        """(values, ok) for a (b, tally width) stack of pooled tallies:
        ok[k] is False exactly where the estimate is undefined on tallies[k],
        and values[k] is the estimate elsewhere."""
        return sygr_markov_stack(_chain_grids(tallies))

    def table(self, kinds):
        """One integer tally row per kind. Runs after `_check`, which raises
        on no kinds."""
        return np.array([self._row(r) for r in kinds], dtype=np.int64)

    def fit(self, kinds, kind_counts):
        """(point estimate, pooled tally, table) on the original records,
        given as their panel's kinds and each kind's row count; raises an
        EstimationError where the estimate is undefined on them."""
        self._check(kinds)
        table = self.table(kinds)
        tally = kind_counts @ table
        values, ok = self.rates(tally[None])
        if not ok[0]:
            # past _check, only a chain state without observations is left
            _p, gaps = normalise(_chain_grids(tally))
            raise InsufficientData(AcademicState(int(np.argmax(gaps))))
        return float(values[0]), tally, table

    def point(self, records):
        panel = Panel.from_records(records)
        return self.fit(panel.kinds, np.bincount(panel.kind, minlength=len(panel.kinds)))[0]


class _CohortEstimator(_Estimator):
    """An estimator of one cohort, which must be six years old at the horizon."""

    def __init__(self, cohort_year, horizon_year):
        if horizon_year < cohort_year + 6:
            raise HorizonTooEarly(cohort_year, horizon_year)
        self.cohort_year = cohort_year
        self.horizon_year = horizon_year

    def _check(self, kinds):
        if not any(r.cohort_year == self.cohort_year for r in kinds):
            raise EmptyCohort(self.cohort_year)


class TraditionalEstimator(_CohortEstimator):
    """Graduated-within-six-years fraction of one fully observed cohort.
    Tally: (starters, graduates)."""

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

    def _check(self, kinds):
        if not kinds:
            raise NoRecords()

    def _row(self, r):
        return _chain_cells(r, self.horizon_year, self.from_la_year)
