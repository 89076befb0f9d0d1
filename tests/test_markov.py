import numpy as np
import pytest
from conftest import (
    _to_state,
    grad_in_year,
    make_record,
    matrix_power_sygr,
    path_enumeration_sygr,
    per_row_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortchain import (
    AcademicState,
    MarkovFullEstimator,
    Outcome,
    TransitionMatrix,
    random_transition_matrix,
    validate_structure,
)
from cohortchain.errors import InsufficientData
from cohortchain.markov import (
    ROW_SUM_TOL,
    normalise,
    sygr_markov_stack,
)
from cohortchain.states import ABSORBING, ALLOWED_CELLS

S = AcademicState


def counts_from(rows):
    grid = np.zeros((8, 8), dtype=np.int64)
    for k, entries in rows.items():
        for dst, n in entries.items():
            grid[int(S.year(k)), int(_to_state(dst))] = n
    return grid


def filled_counts(y1_row):
    """Counts with a given Y1 row and one drop-out in every later year."""
    rows = {k: {"D": 1} for k in range(2, 7)}
    rows[1] = y1_row
    return counts_from(rows)


def readout(grid):
    """(value, ok) of one count grid, read as a stack of one."""
    values, ok = sygr_markov_stack(grid[None])
    return values[0], ok[0]


class TestBuildMatrix:
    """Counts into a chain: the normaliser, and where it finds a gap."""

    def test_hand_counted_row(self):
        # 7 of 10 persist, 3 drop: probabilities are 0.7 and 0.3 exactly
        p, gaps = normalise(filled_counts({2: 7, "D": 3}))
        assert p[S.Y1, S.Y2] == 0.7
        assert p[S.Y1, S.DROP_OUT] == 0.3
        assert p[S.Y1, S.GRADUATED] == 0.0
        assert not gaps.any()

    def test_degenerate_deterministic_chain(self):
        counts = counts_from(
            {1: {2: 5}, 2: {3: 5}, 3: {4: 5}, 4: {5: 5}, 5: {6: 5}, 6: {"G": 5}}
        )
        p, _gaps = normalise(counts)
        for i in range(8):
            row = p[i]
            assert (row == 1.0).sum() == 1
            assert row.sum() == 1.0

    def test_empty_transient_row_raises(self):
        # Y2 -> Y3 is observed, so Y3 is reachable, but nobody leaves it
        rows = {1: {2: 1, "D": 1}, 2: {3: 1}, 4: {"D": 1}, 5: {"D": 1}, 6: {"D": 1}}
        _p, gaps = normalise(counts_from(rows))
        assert gaps.tolist() == [False, False, True, False, False, False]
        assert not readout(counts_from(rows))[1]
        # a student censored in Y3 reached it, and is the only one there:
        # the point estimate names Y3
        record = make_record(cohort_year=2018, outcome=Outcome.ENROLLED, outcome_year=3)
        with pytest.raises(InsufficientData) as exc:
            MarkovFullEstimator(2021).point([record])
        assert exc.value.state is S.Y3

    def test_absorbing_rows_are_identity(self):
        p, _gaps = normalise(filled_counts({2: 1}))
        assert p[S.DROP_OUT, S.DROP_OUT] == 1.0
        assert p[S.GRADUATED, S.GRADUATED] == 1.0

    def test_scale_invariance(self, rng):
        base = {1: {2: 3, "D": 2, "G": 1}, 2: {"G": 4}, 3: {"D": 2}, 4: {"D": 1},
                5: {"D": 9}, 6: {"G": 7}}
        # each row scaled by one factor, so probabilities are unchanged
        scaled = {}
        for k, row in base.items():
            factor = int(rng.integers(2, 9))
            scaled[k] = {dst: n * factor for dst, n in row.items()}
        p1, _gaps = normalise(counts_from(base))
        p2, _gaps = normalise(counts_from(scaled))
        np.testing.assert_array_equal(p1, p2)

    def test_unreachable_empty_rows_filled_with_drop_out(self):
        # nobody ever reaches Y3+: those rows cannot matter for the readout
        counts = counts_from({1: {2: 4, "D": 1}, 2: {"G": 3, "D": 1}})
        p, gaps = normalise(counts)
        assert p[S.Y3, S.DROP_OUT] == 1.0
        assert not gaps.any()
        value, ok = readout(counts)
        assert ok
        assert value == pytest.approx(0.8 * 0.75, abs=1e-15)

    def test_reachable_gap_raises_beside_unreachable_rows(self):
        counts = counts_from({1: {2: 4, "D": 1}})
        p, gaps = normalise(counts)
        assert gaps.tolist() == [False, True, False, False, False, False]
        assert p[S.Y3, S.DROP_OUT] == 1.0
        assert not readout(counts)[1]


class TestMatrixPower:
    """The sixth power of each normalised grid, read off the stack."""

    def test_all_dropout_gives_zero_graduation(self):
        counts = counts_from({k: {"D": 1} for k in range(1, 7)})
        assert readout(counts) == (0.0, True)

    def test_three_persist_steps(self):
        # path-enumeration oracle: only one path reaches graduation,
        # persisting three times at 0.9 then graduating surely
        expected = 0.9 * 0.9 * 0.9
        assert expected == pytest.approx(0.729, abs=1e-15)
        rows = {k: {k + 1: 9, "D": 1} for k in range(1, 4)}
        rows[4] = {"G": 1}
        value, ok = readout(counts_from(rows))
        assert ok
        assert value == pytest.approx(expected, abs=1e-12)

    def test_rows_stay_stochastic(self, rng):
        # every grid the readout reads is row-stochastic
        counts = np.zeros((50, 8, 8), dtype=np.int64)
        rows, cols = np.array(ALLOWED_CELLS).T
        counts[:, rows, cols] = rng.integers(0, 20, size=(50, len(ALLOWED_CELLS)))
        p, gaps = normalise(counts)
        _values, ok = sygr_markov_stack(counts)
        assert (ok == ~gaps.any(axis=1)).all()
        for grid in p[ok]:
            np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=ROW_SUM_TOL)
            assert validate_structure(grid) == []


class TestSygrMarkov:
    def test_everyone_graduates_in_year_six(self):
        rows = {k: {k + 1: 5} for k in range(1, 6)}
        rows[6] = {"G": 5}
        value, ok = readout(counts_from(rows))
        assert ok
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_immediate_graduation(self):
        value, ok = readout(counts_from({1: {"G": 5}}))
        assert ok
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_two_path_sum(self):
        counts = counts_from({1: {2: 2, "G": 1, "D": 1}, 2: {"G": 4}})
        # hand sum: graduate immediately (0.25) or persist then graduate (0.5)
        value, ok = readout(counts)
        assert ok
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_matches_path_enumeration_on_random_matrices(self, rng):
        counts = np.zeros((200, 8, 8), dtype=np.int64)
        rows, cols = np.array(ALLOWED_CELLS).T
        counts[:, rows, cols] = rng.integers(1, 1000, size=(200, len(ALLOWED_CELLS)))
        values, ok = sygr_markov_stack(counts)
        assert ok.all()
        p, _gaps = normalise(counts)
        for value, grid in zip(values, p):
            assert abs(value - path_enumeration_sygr(grid)) <= 1e-12


class TestValidateStructure:
    def test_valid_matrix_has_no_violations(self, rng):
        assert validate_structure(random_transition_matrix(rng).p) == []

    def test_forbidden_transition_reported(self):
        a = grad_in_year(4).p.copy()
        a[int(S.Y1), int(S.Y3)] = 0.1
        a[int(S.Y1), int(S.Y2)] = 0.9
        violations = validate_structure(a)
        assert "forbidden transition Y1 -> Y3" in violations

    def test_row_sum_violation_reported(self):
        a = grad_in_year(4).p.copy()
        a[int(S.Y2), int(S.Y3)] = 0.98
        violations = validate_structure(a)
        assert any(v.startswith("row Y2 sums to ") for v in violations)

    def test_constructor_rejects_invalid_grid(self):
        a = grad_in_year(4).p.copy()
        a[int(S.Y1), int(S.Y3)] = 0.5
        with pytest.raises(ValueError, match="forbidden"):
            TransitionMatrix(a)

    def test_constructor_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"expected an 8x8 grid, got shape \(7, 8\)"):
            TransitionMatrix(np.zeros((7, 8)))


@pytest.mark.parametrize("k", [0, 7])
def test_year_of_study_outside_1_to_6(k):
    with pytest.raises(ValueError, match=f"year of study must be 1..6, got {k}"):
        S.year(k)


def per_cell_violations(a):
    """Reference for validate_structure's messages: every cell and row
    checked one by one, in row order."""
    violations = []
    for i in range(8):
        for j in range(8):
            v = a[i, j]
            frm, to = S(i), S(j)
            if not 0.0 <= v <= 1.0:
                violations.append(f"entry ({frm.name}, {to.name}) = {float(v)!r} outside [0, 1]")
            allowed = (i, j) in ALLOWED_CELLS or (frm in ABSORBING and i == j)
            if v != 0.0 and not allowed:
                violations.append(f"forbidden transition {frm.name} -> {to.name}")
        total = float(a[i].sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            violations.append(f"row {S(i).name} sums to {total!r}, expected 1")
    return violations


@given(
    cells=st.lists(
        st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, -0.5, 1.5, float("nan"), float("inf")]),
        min_size=64,
        max_size=64,
    )
)
def test_violations_match_per_cell_reference(cells):
    a = np.array(cells).reshape(8, 8)
    assert validate_structure(a) == per_cell_violations(a)


def grid_from_cells(cells):
    grid = np.zeros((8, 8), dtype=np.int64)
    grid[tuple(np.array(ALLOWED_CELLS).T)] = cells
    return grid


# half the cells empty, so many grids have empty rows, reachable or not
count_grids = st.lists(
    st.sampled_from([0, 0, 0, 1, 3, 7]), min_size=len(ALLOWED_CELLS), max_size=len(ALLOWED_CELLS)
).map(grid_from_cells)


@given(grids=st.lists(count_grids, min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_normalise_equals_per_row_reference(grids):
    """The normaliser turns a stack of counts into the chains the per-row
    reference builds, bit for bit, and finds a gap exactly where it raises,
    first at the state it names; the stacked readout equals each chain's
    own matrix power bit for bit, and fails exactly there."""
    p, gaps = normalise(np.array(grids))
    values, ok = sygr_markov_stack(np.array(grids))
    for grid, p_k, gaps_k, value, k in zip(grids, p, gaps, values, ok):
        try:
            ref = per_row_matrix(grid)
        except InsufficientData as exc:
            assert S(int(np.argmax(gaps_k))) is exc.state
            assert not k
            continue
        assert not gaps_k.any()
        assert p_k.tobytes() == ref.tobytes()
        assert k
        assert value == matrix_power_sygr(ref)


def test_stacked_readout_rejects_invalid_matrix():
    counts = np.zeros((2, 8, 8), dtype=np.int64)
    counts[:, int(S.Y1), int(S.GRADUATED)] = 2
    counts[1, int(S.Y1), int(S.DROP_OUT)] = -1
    with pytest.raises(ValueError, match=r"entry \(Y1, DROP_OUT\) = -1.0 outside \[0, 1\]"):
        sygr_markov_stack(counts)


class TestTransitionCounts:
    """Count grids the readout rejects."""

    def test_rejects_pattern_violations(self):
        # a count outside the allowed cells becomes a forbidden probability
        grid = filled_counts({2: 1})
        grid[0, 2] = 3
        with pytest.raises(ValueError, match="forbidden transition Y1 -> Y3"):
            sygr_markov_stack(grid[None])
