
import numpy as np
import pytest
from conftest import (
    make_record,
    matrix_power_sygr,
    path_enumeration_sygr,
    per_record_grid,
    per_row_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortchain import (
    AcademicState,
    GeneratorSpec,
    MarkovFullEstimator,
    MarkovReducedEstimator,
    Outcome,
    Panel,
    TraditionalEstimator,
    generate_panel,
    persistence_rates,
    random_transition_matrix,
)
from cohortchain.errors import (
    EmptyCohort,
    EstimationError,
    HorizonTooEarly,
    InsufficientData,
    NoRecords,
)
from cohortchain.states import ALLOWED_CELLS, N_STATES

N_CELLS = len(ALLOWED_CELLS)

S = AcademicState


def cohort_of(n_grad, n_drop, cohort_year=2013, grad_year=4, drop_year=1):
    records = [
        make_record(sid=f"g{i}", cohort_year=cohort_year,
                    outcome=Outcome.GRADUATED, outcome_year=grad_year)
        for i in range(n_grad)
    ]
    records += [
        make_record(sid=f"d{i}", cohort_year=cohort_year,
                    outcome=Outcome.DROPPED_OUT, outcome_year=drop_year)
        for i in range(n_drop)
    ]
    return records


class TestTraditional:
    def test_hand_count(self):
        assert TraditionalEstimator(2013, 2021).point(cohort_of(7, 3)) == 0.7

    def test_everyone_graduates(self):
        assert TraditionalEstimator(2013, 2021).point(cohort_of(5, 0)) == 1.0

    def test_horizon_too_early(self):
        with pytest.raises(HorizonTooEarly):
            TraditionalEstimator(2016, 2021).point(cohort_of(5, 0, cohort_year=2016))

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            TraditionalEstimator(1999, 2021).point(cohort_of(5, 0))

    def test_late_graduation_not_counted(self):
        records = cohort_of(1, 0, grad_year=7) + cohort_of(0, 1)
        assert TraditionalEstimator(2013, 2021).point(records) == 0.0


class TestMarkovReduced:
    def test_everyone_drops_first_year(self):
        assert MarkovReducedEstimator(2013, 2021).point(cohort_of(0, 10)) == 0.0

    def test_hand_counted_cohort(self):
        assert MarkovReducedEstimator(2013, 2021).point(cohort_of(7, 3)) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_positive_control_identity_on_random_cohorts(self, rng):
        # the telescoping identity: restricted to one complete cohort, the
        # chain readout is exactly the graduated fraction
        for trial in range(25):
            spec = GeneratorSpec(
                true_matrix=random_transition_matrix(rng, alpha=(3.0, 1.0, 1.5)),
                cohort_sizes={2013: int(rng.integers(20, 400))},
                horizon_year=2019,
                seed=int(rng.integers(2**32)),
            )
            records = generate_panel(spec)
            trad = TraditionalEstimator(2013, 2019).point(records)
            red = MarkovReducedEstimator(2013, 2019).point(records)
            assert abs(trad - red) <= 1e-12

    def test_horizon_too_early(self):
        with pytest.raises(HorizonTooEarly):
            MarkovReducedEstimator(2013, 2018).point(cohort_of(7, 3))


class TestMarkovFull:
    def test_single_complete_cohort_equals_reduced(self):
        records = cohort_of(7, 3)
        assert MarkovFullEstimator(2021).point(records) == pytest.approx(
            MarkovReducedEstimator(2013, 2021).point(records), abs=1e-12
        )

    def test_partial_cohort_evidence_shifts_estimate(self):
        # complete cohort: 8 of 10 persist year 1, then 4 of 8 graduate
        complete = [
            make_record(sid=f"c{i}", outcome=Outcome.GRADUATED, outcome_year=2)
            for i in range(4)
        ]
        complete += [
            make_record(sid=f"cd{i}", outcome=Outcome.DROPPED_OUT, outcome_year=2)
            for i in range(4)
        ]
        complete += [
            make_record(sid=f"cd1{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(2)
        ]
        alone = MarkovFullEstimator(2021).point(complete)
        # partial cohort adds pure persistence evidence for year 1
        partial = [
            make_record(sid=f"p{i}", cohort_year=2019, outcome=Outcome.ENROLLED,
                        outcome_year=2)
            for i in range(10)
        ]
        combined = MarkovFullEstimator(2021).point(complete + partial)
        assert combined > alone

    def test_reachable_gap_names_its_state(self):
        # a student who reached year 2 by the horizon, with no one observed
        # leaving it: the point estimate names Y2
        record = make_record(cohort_year=2019, outcome=Outcome.ENROLLED, outcome_year=2)
        with pytest.raises(InsufficientData, match="^no observed transitions out of state Y2$"):
            MarkovFullEstimator(2021).point([record])

    def test_no_records(self):
        with pytest.raises(NoRecords):
            MarkovFullEstimator(2021).point([])

    def test_permutation_invariance(self, rng):
        records = cohort_of(7, 3) + cohort_of(4, 6, cohort_year=2014)
        shuffled = list(records)
        rng.shuffle(shuffled)
        full = MarkovFullEstimator(2021)
        assert full.point(shuffled) == full.point(records)

    def test_duplication_invariance(self):
        records = cohort_of(7, 3)
        assert MarkovFullEstimator(2021).point(records * 2) == pytest.approx(
            MarkovFullEstimator(2021).point(records), abs=1e-12
        )

    def test_consistency_against_generator_truth(self, rng):
        true = random_transition_matrix(rng, alpha=(6.0, 1.0, 2.0))
        spec = GeneratorSpec(
            true_matrix=true,
            cohort_sizes={y: 4000 for y in range(2014, 2020)},
            horizon_year=2021,
            seed=99,
        )
        records = generate_panel(spec)
        truth = path_enumeration_sygr(true)
        assert MarkovFullEstimator(2021).point(records) == pytest.approx(truth, abs=0.03)


def test_raising_first_year_persistence_never_lowers_sygr(rng):
    # monotonicity probe via the path-enumeration oracle: move first-year
    # mass from dropping out to persisting, graduation mass untouched
    for _ in range(50):
        p = random_transition_matrix(rng)
        a = p.p.copy()
        boost = a[0, 6] * rng.random()
        a[0, 1] += boost
        a[0, 6] -= boost
        a[0] /= a[0].sum()
        assert path_enumeration_sygr(a) >= path_enumeration_sygr(p.p) - 1e-12


def chain_tally(records, from_la_year=False):
    """Reference pooled tally of the full chain: the per-record count grid,
    flattened as a chain estimator's tally is."""
    return per_record_grid(records, 2021, from_la_year).ravel()


class TestPersistence:
    def test_everyone_persists(self):
        records = [
            make_record(sid=f"s{i}", outcome=Outcome.GRADUATED, outcome_year=6)
            for i in range(10)
        ]
        rates = persistence_rates(chain_tally(records))
        assert rates == {k: 1.0 for k in range(1, 6)}

    def test_hand_counted_first_year_rate(self):
        records = [
            make_record(sid=f"p{i}", outcome=Outcome.GRADUATED, outcome_year=6)
            for i in range(87)
        ]
        records += [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(13)
        ]
        rates = persistence_rates(chain_tally(records))
        assert rates[1] == 0.87

    def test_la_truncation_changes_rates(self):
        # exposed from year 2: year-1 steps must not contribute
        records = [
            make_record(sid=f"e{i}", la_year=2, outcome=Outcome.GRADUATED, outcome_year=3)
            for i in range(5)
        ]
        records += [
            make_record(sid="ed", la_year=2, outcome=Outcome.DROPPED_OUT, outcome_year=2)
        ]
        # some year-1 exposure so the start state has data of its own
        records += [
            make_record(sid=f"y1_{i}", la_year=1, outcome=Outcome.GRADUATED, outcome_year=1)
            for i in range(3)
        ]
        rates = persistence_rates(chain_tally(records, from_la_year=True))
        assert rates[2] == pytest.approx(5 / 6, abs=1e-12)

    def test_unobserved_year_is_none(self):
        # everyone drops out in year 1: years 2-5 are never reached
        records = cohort_of(0, 4)
        assert persistence_rates(chain_tally(records)) == {
            1: 0.0, 2: None, 3: None, 4: None, 5: None}


@st.composite
def panels(draw):
    """Valid records from few enough kinds that records share kinds, and
    kinds share a trajectory (cohort_year, outcome, outcome_year, la_year)
    when they differ only in aalana, first_gen or college, plus a
    from_la_year flag (all records exposed when set) and a resample's
    indices."""
    from_la_year = draw(st.booleans())
    n = draw(st.integers(1, 30))
    records = []
    for i in range(n):
        outcome = draw(st.sampled_from(Outcome))
        outcome_year = draw(st.integers(1, 7))
        slack = 1 if outcome is Outcome.ENROLLED else 0
        la_year = st.integers(1, min(6, outcome_year + slack))
        records.append(make_record(
            sid=f"s{i}",
            cohort_year=draw(st.integers(2013, 2016)),
            aalana=draw(st.booleans()),
            first_gen=draw(st.booleans()),
            college=draw(st.sampled_from(["SCI", "ENG"])),
            la_year=draw(la_year if from_la_year else st.none() | la_year),
            outcome=outcome,
            outcome_year=outcome_year,
        ))
    idx = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return records, from_la_year, np.array(idx, dtype=np.int64)


def kind_tally(estimator, records, idx):
    panel = Panel.from_records(records)
    return np.bincount(panel.kind[idx], minlength=len(panel.kinds)) @ estimator.table(panel.kinds)


def as_grid(tally):
    return np.reshape(tally, (N_STATES, N_STATES))


def allowed_tally(cells):
    """The flat chain tally holding one count per ALLOWED_CELLS entry."""
    grid = np.zeros((N_STATES, N_STATES), dtype=np.int64)
    grid[tuple(np.array(ALLOWED_CELLS).T)] = cells
    return grid.ravel()


@given(
    panel=panels(),
    horizon=st.integers(2013, 2024),
    cohort=st.integers(2013, 2016),
    lag=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_type_tally_equals_per_record_sum(panel, horizon, cohort, lag):
    """The kind tally of a resample, and of all records, equals the
    per-record reference summed over the same records."""
    records, from_la_year, idx = panel
    cohort_horizon = cohort + 6 + lag
    full = MarkovFullEstimator(horizon, from_la_year=from_la_year)
    reduced = MarkovReducedEstimator(cohort, cohort_horizon)
    trad = TraditionalEstimator(cohort, cohort_horizon)
    for rows in (idx, np.arange(len(records))):
        chosen = [records[i] for i in rows]
        assert (
            as_grid(kind_tally(full, records, rows))
            == per_record_grid(chosen, horizon, from_la_year)
        ).all()
        assert (
            as_grid(kind_tally(reduced, records, rows))
            == per_record_grid(chosen, cohort_horizon, cohort_year=cohort)
        ).all()
        starters = [r for r in chosen if r.cohort_year == cohort]
        graduates = [
            r for r in starters if r.outcome is Outcome.GRADUATED and r.outcome_year <= 6
        ]
        assert list(kind_tally(trad, records, rows)) == [len(starters), len(graduates)]


def reference_rates(estimator, tallies):
    """Each row read alone by a reference: the per-row normaliser and one
    grid's matrix power for the chain estimators, graduates / starters for the
    traditional one. (values, ok), with ok False where the chain reference
    raises or there are no starters."""
    values, ok = [], []
    for tally in tallies:
        if isinstance(estimator, TraditionalEstimator):
            n_start, n_deg = tally
            values.append(n_deg / n_start if n_start else None)
            ok.append(n_start > 0)
            continue
        try:
            values.append(matrix_power_sygr(per_row_matrix(as_grid(tally))))
            ok.append(True)
        except EstimationError:
            values.append(None)
            ok.append(False)
    return values, np.array(ok, dtype=bool)


@given(
    panel=panels(),
    resamples=st.lists(st.lists(st.integers(0, 29), max_size=40), min_size=1, max_size=8),
    raw=st.lists(st.lists(st.integers(0, 2), min_size=N_CELLS, max_size=N_CELLS), max_size=4),
    horizon=st.integers(2013, 2024),
    cohort=st.integers(2013, 2016),
)
@settings(max_examples=300, deadline=None)
def test_stacked_rates_equal_single_matrix_readout(panel, resamples, raw, horizon, cohort):
    """The stacked readout of resample tallies (and of raw tallies, many of
    them with a reachable empty row) equals the reference readout row by
    row: the same floats where that succeeds, ok False exactly where it
    raises."""
    records, from_la_year, _idx = panel
    n = len(records)
    cohort_horizon = max(horizon, cohort + 6)
    estimators = (
        MarkovFullEstimator(horizon, from_la_year=from_la_year),
        MarkovReducedEstimator(cohort, cohort_horizon),
        TraditionalEstimator(cohort, cohort_horizon),
    )
    for estimator in estimators:
        tallies = [kind_tally(estimator, records, np.array(r, dtype=np.int64) % n)
                   for r in resamples]
        if isinstance(estimator, TraditionalEstimator):
            tallies += [[sum(r), r[0]] for r in raw]
        else:
            tallies += [allowed_tally(r) for r in raw]
        tallies = np.array(tallies, dtype=float)
        values, ok = estimator.rates(tallies)
        ref_values, ref_ok = reference_rates(estimator, tallies)
        assert (ok == ref_ok).all()
        assert [v for v, k in zip(values, ok) if k] == [v for v in ref_values if v is not None]
