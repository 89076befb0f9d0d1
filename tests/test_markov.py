import numpy as np
import pytest
from conftest import (
    _to_state,
    chain_09,
    grad_in_year,
    matrix_from_rows,
    path_enumeration_sygr,
    per_row_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortchain import (
    AcademicState,
    TransitionCounts,
    TransitionMatrix,
    build_matrix,
    matrix_power,
    random_transition_matrix,
    sygr_markov,
    validate_structure,
)
from cohortchain.errors import InsufficientData
from cohortchain.markov import (
    ROW_SUM_TOL,
    EntryOutOfRange,
    ForbiddenTransition,
    RowSumViolation,
    sygr_markov_stack,
)
from cohortchain.states import ABSORBING, ALLOWED_CELLS, ALLOWED_SET

S = AcademicState


def counts_from(rows):
    grid = np.zeros((8, 8), dtype=np.int64)
    for k, entries in rows.items():
        for dst, n in entries.items():
            grid[int(S.year(k)), int(_to_state(dst))] = n
    return TransitionCounts(grid)


def filled_counts(y1_row):
    """Counts with a given Y1 row and one drop-out in every later year."""
    rows = {k: {"D": 1} for k in range(2, 7)}
    rows[1] = y1_row
    return counts_from(rows)


class TestBuildMatrix:
    def test_hand_counted_row(self):
        # 7 of 10 persist, 3 drop: probabilities are 0.7 and 0.3 exactly
        m = build_matrix(filled_counts({2: 7, "D": 3}))
        assert m[S.Y1, S.Y2] == 0.7
        assert m[S.Y1, S.DROP_OUT] == 0.3
        assert m[S.Y1, S.GRADUATED] == 0.0

    def test_degenerate_deterministic_chain(self):
        counts = counts_from(
            {1: {2: 5}, 2: {3: 5}, 3: {4: 5}, 4: {5: 5}, 5: {6: 5}, 6: {"G": 5}}
        )
        m = build_matrix(counts)
        for i in range(8):
            row = m.p[i]
            assert (row == 1.0).sum() == 1
            assert row.sum() == 1.0

    def test_empty_transient_row_raises(self):
        # Y2 -> Y3 is observed, so Y3 is reachable, but nobody leaves it
        rows = {1: {2: 1, "D": 1}, 2: {3: 1}, 4: {"D": 1}, 5: {"D": 1}, 6: {"D": 1}}
        counts = counts_from(rows)
        with pytest.raises(InsufficientData) as exc:
            build_matrix(counts)
        assert exc.value.state is S.Y3

    def test_absorbing_rows_are_identity(self):
        m = build_matrix(filled_counts({2: 1}))
        assert m[S.DROP_OUT, S.DROP_OUT] == 1.0
        assert m[S.GRADUATED, S.GRADUATED] == 1.0

    def test_scale_invariance(self, rng):
        base = {1: {2: 3, "D": 2, "G": 1}, 2: {"G": 4}, 3: {"D": 2}, 4: {"D": 1},
                5: {"D": 9}, 6: {"G": 7}}
        scaled = {
            k: {dst: n * int(rng.integers(2, 9)) for dst, n in row.items()}
            for k, row in base.items()
        }
        # each row scaled by one factor, so probabilities are unchanged
        for k in scaled:
            factor = next(iter(scaled[k].values())) // next(iter(base[k].values()))
            scaled[k] = {dst: n * factor for dst, n in base[k].items()}
        m1 = build_matrix(counts_from(base))
        m2 = build_matrix(counts_from(scaled))
        np.testing.assert_array_equal(m1.p, m2.p)

    def test_unreachable_empty_rows_filled_with_drop_out(self):
        # nobody ever reaches Y3+: those rows cannot matter for the readout
        counts = counts_from({1: {2: 4, "D": 1}, 2: {"G": 3, "D": 1}})
        m = build_matrix(counts)
        assert m[S.Y3, S.DROP_OUT] == 1.0
        assert sygr_markov(m) == pytest.approx(0.8 * 0.75, abs=1e-15)

    def test_reachable_gap_raises_beside_unreachable_rows(self):
        counts = counts_from({1: {2: 4, "D": 1}})
        with pytest.raises(InsufficientData) as exc:
            build_matrix(counts)
        assert exc.value.state is S.Y2


class TestMatrixPower:
    def test_zeroth_power_is_identity(self, rng):
        p = random_transition_matrix(rng)
        np.testing.assert_array_equal(matrix_power(p, 0), np.eye(8))

    def test_all_dropout_gives_zero_graduation(self):
        rows = {k: {"D": 1.0} for k in range(1, 7)}
        p = matrix_from_rows(rows)
        assert matrix_power(p, 6)[int(S.Y1), int(S.GRADUATED)] == 0.0

    def test_three_persist_steps(self):
        # path-enumeration oracle: only one path reaches graduation,
        # persisting three times at 0.9 then graduating surely
        expected = 0.9 * 0.9 * 0.9
        assert expected == pytest.approx(0.729, abs=1e-15)
        p = chain_09()
        assert matrix_power(p, 6)[int(S.Y1), int(S.GRADUATED)] == pytest.approx(
            expected, abs=1e-12
        )

    def test_rows_stay_stochastic(self, rng):
        p = random_transition_matrix(rng)
        for n in range(7):
            sums = matrix_power(p, n).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_reachability_takes_exactly_j_steps(self, rng):
        p = random_transition_matrix(rng, alpha=(5.0, 1.0, 1.0))
        for j in range(1, 6):
            target = int(S.year(j + 1))
            for n in range(j):
                assert matrix_power(p, n)[int(S.Y1), target] == 0.0
            expected = np.prod([p[S.year(i), S.year(i + 1)] for i in range(1, j + 1)])
            assert matrix_power(p, j)[int(S.Y1), target] == pytest.approx(expected, abs=1e-12)


class TestSygrMarkov:
    def test_everyone_graduates_in_year_six(self):
        assert sygr_markov(grad_in_year(6)) == pytest.approx(1.0, abs=1e-12)

    def test_immediate_graduation(self):
        assert sygr_markov(grad_in_year(1)) == pytest.approx(1.0, abs=1e-12)

    def test_two_path_sum(self):
        p = matrix_from_rows(
            {1: {2: 0.5, "G": 0.25, "D": 0.25}, 2: {"G": 1.0},
             3: {"D": 1.0}, 4: {"D": 1.0}, 5: {"D": 1.0}, 6: {"D": 1.0}}
        )
        # hand sum: graduate immediately (0.25) or persist then graduate (0.5)
        assert sygr_markov(p) == pytest.approx(0.75, abs=1e-12)

    def test_matches_path_enumeration_on_random_matrices(self, rng):
        for _ in range(200):
            p = random_transition_matrix(rng)
            assert abs(sygr_markov(p) - path_enumeration_sygr(p)) <= 1e-12


class TestValidateStructure:
    def test_valid_matrix_has_no_violations(self, rng):
        assert validate_structure(random_transition_matrix(rng)) == []

    def test_forbidden_transition_reported(self):
        a = grad_in_year(4).p.copy()
        a[int(S.Y1), int(S.Y3)] = 0.1
        a[int(S.Y1), int(S.Y2)] = 0.9
        violations = validate_structure(a)
        assert ForbiddenTransition(S.Y1, S.Y3) in violations

    def test_row_sum_violation_reported(self):
        a = grad_in_year(4).p.copy()
        a[int(S.Y2), int(S.Y3)] = 0.98
        violations = validate_structure(a)
        assert any(
            isinstance(v, RowSumViolation) and v.row is S.Y2 for v in violations
        )

    def test_constructor_rejects_invalid_grid(self):
        a = grad_in_year(4).p.copy()
        a[int(S.Y1), int(S.Y3)] = 0.5
        with pytest.raises(ValueError, match="forbidden"):
            from cohortchain import TransitionMatrix

            TransitionMatrix(a)


def per_cell_violations(a):
    """Reference for validate_structure: every cell and row checked one by
    one, in row order."""
    violations = []
    for i in range(8):
        for j in range(8):
            v = a[i, j]
            frm, to = S(i), S(j)
            if not 0.0 <= v <= 1.0:
                violations.append(EntryOutOfRange(frm, to, float(v)))
            allowed = (i, j) in ALLOWED_SET or (frm in ABSORBING and i == j)
            if v != 0.0 and not allowed:
                violations.append(ForbiddenTransition(frm, to))
        total = float(a[i].sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            violations.append(RowSumViolation(S(i), total))
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
    # str, not ==: a NaN entry never equals itself
    assert [str(v) for v in validate_structure(a)] == [str(v) for v in per_cell_violations(a)]


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
    """build_matrix and the stacked readout turn counts into the chain the
    per-row reference builds, bit for bit, and fail exactly where it fails;
    build_matrix names the same state."""
    values, ok = sygr_markov_stack(np.array(grids))
    for grid, value, k in zip(grids, values, ok):
        try:
            ref = per_row_matrix(grid)
        except InsufficientData as exc:
            with pytest.raises(InsufficientData) as got:
                build_matrix(TransitionCounts(grid))
            assert got.value.state is exc.state
            assert not k
            continue
        m = build_matrix(TransitionCounts(grid))
        assert m.p.tobytes() == ref.tobytes()
        assert k
        assert value == sygr_markov(TransitionMatrix(ref))


def test_stacked_readout_rejects_invalid_matrix():
    counts = np.zeros((2, 8, 8), dtype=np.int64)
    counts[:, int(S.Y1), int(S.GRADUATED)] = 2
    counts[1, int(S.Y1), int(S.DROP_OUT)] = -1
    with pytest.raises(ValueError, match=r"entry \(Y1, DROP_OUT\) = -1.0 outside \[0, 1\]"):
        sygr_markov_stack(counts)


class TestTransitionCounts:
    def test_rejects_negative(self):
        grid = np.zeros((8, 8), dtype=int)
        grid[0, 1] = -1
        with pytest.raises(ValueError):
            TransitionCounts(grid)

    def test_rejects_pattern_violations(self):
        grid = np.zeros((8, 8), dtype=int)
        grid[0, 2] = 3
        with pytest.raises(ValueError, match="pattern"):
            TransitionCounts(grid)

    def test_row_total(self):
        c = filled_counts({2: 7, "D": 3})
        assert c.row_total(S.Y1) == 10
