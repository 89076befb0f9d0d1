"""Six-year graduation rate estimators over parsed student records.

Three estimators: the traditional cohort ratio, the reduced-form chain
restricted to one complete cohort (the positive control), and the full
pooled chain that also absorbs partial-cohort evidence.

All three read their estimate off pooled tallies of whole numbers, held in
float64 (exact below 2**53). A chain estimator's tally is its 8x8 count
grid, flattened: each step (frm, to) counts into cell frm * 8 + to. A
record's tally depends only on its fields other than the id, so the rows of
one `Panel` kind share one tally, and each estimator derives one tally row
per kind (`table`, by the reference rules `derive_transitions` and
`la_truncate`). Any resample's pooled tally is then its kind counts times
the table, one BLAS product that is exactly the sum of its records'
tallies, so the bootstrap counts each resample's kinds once for every
estimator and re-derives nothing. `rates` is the one readout: it reads a
whole stack of tallies at once (`sygr_markov_stack`), and the point
estimate is the original tally read as a stack of one. Where that estimate
is undefined, `fit` names the state without observations from the
normaliser's gaps. `fit` also returns that tally, and `persistence_rates`
reads a fitted tally. The tests hold `rates` to a per-row reference.
"""

import numpy as np

from .errors import EmptyCohort, HorizonTooEarly, InsufficientData, NoRecords
from .markov import normalise, sygr_markov_stack
from .records import Outcome, Panel, derive_transitions, la_truncate
from .states import N_STATES, AcademicState


def persistence_rates(tally):
    """Year-to-year persistence probabilities of a pooled chain tally, its
    8x8 count grid, flat as a chain estimator's `fit` returns it or square,
    keyed by starting year of study (1..5). Full precision; rounding is a
    reporting concern. A year with no observed steps maps to None: the
    chain imputes drop-out for it, which is no estimate of persistence."""
    counts = np.reshape(tally, (N_STATES, N_STATES))
    p, _gaps = normalise(counts)
    return {k: float(p[k - 1, k]) if counts[k - 1].any() else None for k in range(1, 6)}


class _Estimator:
    """A check, a tally table over a panel's kinds, and the readout of
    pooled tallies.

    Subclasses supply `_steps`, one record's observable chain steps, and
    may override `_check`; an estimator of another tally overrides `table`
    and `rates`, which by default build and read flattened 8x8 chain count
    grids.
    """

    def _check(self, kinds):
        """Raise if the estimate is undefined on (original) records of these
        kinds for any reason but a chain state without observations."""

    def rates(self, tallies):
        """(values, ok) for a (b, tally width) stack of pooled tallies:
        ok[k] is False exactly where the estimate is undefined on tallies[k],
        and values[k] is the estimate elsewhere."""
        return sygr_markov_stack(np.reshape(tallies, (-1, N_STATES, N_STATES)))

    def table(self, kinds):
        """One float64 tally row per kind. Runs after `_check`, which raises
        on no kinds."""
        width = N_STATES * N_STATES
        cells = [k * width + frm * N_STATES + to
                 for k, r in enumerate(kinds) for frm, to in self._steps(r)]
        counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(kinds) * width)
        return counts.reshape(len(kinds), width).astype(float)

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
            _p, gaps = normalise(tally.reshape(N_STATES, N_STATES))
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

    def table(self, kinds):
        rows = []
        for r in kinds:
            start = r.cohort_year == self.cohort_year
            rows.append((start, start and r.outcome is Outcome.GRADUATED and r.outcome_year <= 6))
        return np.array(rows, dtype=float)

    def rates(self, tallies):
        n_start, n_deg = np.asarray(tallies).T
        ok = n_start > 0
        return np.divide(n_deg, n_start, out=np.zeros(len(ok)), where=ok), ok


class MarkovReducedEstimator(_CohortEstimator):
    """Chain estimate restricted to exactly the data the traditional
    estimate uses; agrees with it to floating-point precision on complete
    cohorts (the path probabilities telescope)."""

    def _steps(self, r):
        return derive_transitions(r, self.horizon_year) if r.cohort_year == self.cohort_year else []


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

    def _steps(self, r):
        steps = derive_transitions(r, self.horizon_year)
        return la_truncate(r, steps) if self.from_la_year else steps
