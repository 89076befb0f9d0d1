import csv
import io

import numpy as np
import pytest

from cohortchain import (
    AcademicState,
    Outcome,
    StudentRecord,
    TransitionMatrix,
    derive_transitions,
    la_truncate,
)
from cohortchain.errors import DuplicateId, InsufficientData, InvariantViolation, ParseError
from cohortchain.records import CSV_HEADER, _parse_bool, _parse_int
from cohortchain.states import ABSORBING, N_STATES, TRANSIENT

S = AcademicState


def matrix_from_rows(rows):
    return TransitionMatrix.from_rows(
        {
            S.year(k): {_to_state(dst): v for dst, v in entries.items()}
            for k, entries in rows.items()
        }
    )


def _to_state(dst):
    if dst == "D":
        return S.DROP_OUT
    if dst == "G":
        return S.GRADUATED
    return S.year(dst)


def grad_in_year(year):
    """Deterministic chain: everyone graduates at the end of `year`."""
    rows = {k: {k + 1: 1.0} for k in range(1, year)}
    rows[year] = {"G": 1.0}
    for k in range(year + 1, 7):
        rows[k] = {"D": 1.0}
    return matrix_from_rows(rows)


def chain_09():
    """Persist 0.9 through years 1-3, drop 0.1, then graduate from year 4."""
    rows = {k: {k + 1: 0.9, "D": 0.1} for k in range(1, 4)}
    rows[4] = {"G": 1.0}
    rows[5] = {"D": 1.0}
    rows[6] = {"D": 1.0}
    return matrix_from_rows(rows)


def path_enumeration_sygr(p):
    """Independent oracle: explicit sum over the six graduation paths,
    written against the raw grid (no shared helpers)."""
    grid = p.p if isinstance(p, TransitionMatrix) else np.asarray(p)
    total = 0.0
    for k in range(1, 7):
        prob = 1.0
        for i in range(1, k):
            prob *= grid[i - 1, i]
        total += prob * grid[k - 1, int(S.GRADUATED)]
    return total


def per_record_grid(records, horizon_year, from_la_year=False, cohort_year=None):
    """Reference tally: every record's derived steps, summed one by one."""
    grid = np.zeros((N_STATES, N_STATES), dtype=np.int64)
    for r in records:
        if cohort_year is not None and r.cohort_year != cohort_year:
            continue
        steps = derive_transitions(r, horizon_year)
        if from_la_year:
            steps = la_truncate(r, steps)
        for t in steps:
            grid[int(t.frm), int(t.to)] += 1
    return grid


def per_row_matrix(grid):
    """Reference for the counts-to-chain rule, one row at a time: the
    probability grid of an 8x8 count grid. Raises InsufficientData for the
    first empty transient row the chain can reach (Y1, or a row with
    incoming counts) and fills an empty unreachable row with drop-out."""
    a = np.zeros((N_STATES, N_STATES))
    for s in TRANSIENT:
        i = int(s)
        total = grid[i].sum()
        if total == 0:
            if s is S.Y1 or grid[:, i].sum() > 0:
                raise InsufficientData(s)
            a[i, int(S.DROP_OUT)] = 1.0
            continue
        a[i] = grid[i] / total
    for s in ABSORBING:
        a[int(s), int(s)] = 1.0
    return a


def parse_records_by_row(data):
    """Reference parser: UTF-8 CSV bytes to a list of records, every row
    parsed and validated on its own."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "student_id", "missing header row") from None
    if header != CSV_HEADER:
        raise ParseError(1, "header", f"expected {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")

    records = []
    seen = {}
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(row_no, "row", f"expected {len(CSV_HEADER)} fields, got {len(row)}")
        sid, cohort, aalana, first_gen, college, la_year, outcome, outcome_year = row
        if not sid:
            raise ParseError(row_no, "student_id", "must be non-empty")
        if sid in seen:
            raise DuplicateId(sid, row_no)
        seen[sid] = row_no
        try:
            outcome_val = Outcome(outcome)
        except ValueError:
            raise ParseError(row_no, "outcome", f"expected one of G, D, E, got {outcome!r}") from None
        fields = dict(
            student_id=sid,
            cohort_year=_parse_int(cohort, row_no, "cohort_year"),
            aalana=_parse_bool(aalana, row_no, "aalana"),
            first_gen=_parse_bool(first_gen, row_no, "first_gen"),
            college=college,
            la_year=None if la_year == "" else _parse_int(la_year, row_no, "la_year"),
            outcome=outcome_val,
            outcome_year=_parse_int(outcome_year, row_no, "outcome_year"),
        )
        try:
            records.append(StudentRecord(**fields))
        except ValueError as exc:
            raise InvariantViolation(row_no, str(exc)) from None
    return records


def encode_by_student(spec, cohort_year, sid, walk, i):
    """Reference encoder: one generator walk's student as a record, built and
    validated on its own."""
    obs = spec.horizon_year - cohort_year
    a = int(walk["absorb_year"][i])
    survivor = a == 0
    if survivor:
        enrolled_years = 7
    else:
        enrolled_years = a

    if not survivor and a <= obs:
        outcome = Outcome.GRADUATED if walk["graduated"][i] else Outcome.DROPPED_OUT
        outcome_year = a
    else:
        outcome = Outcome.ENROLLED
        outcome_year = min(enrolled_years, obs)

    la_year = None
    if walk["exposed"][i]:
        ly = int(walk["la_years"][i])
        slack = 1 if outcome is Outcome.ENROLLED else 0
        if ly <= enrolled_years and ly <= outcome_year + slack:
            la_year = ly

    return StudentRecord(
        student_id=sid,
        cohort_year=cohort_year,
        aalana=bool(walk["aalana"][i]),
        first_gen=bool(walk["first_gen"][i]),
        college=sorted(spec.colleges)[walk["college"][i]],
        la_year=la_year,
        outcome=outcome,
        outcome_year=outcome_year,
    )


def format_records_by_record(records):
    """Reference writer: every record's row through csv.writer on its own."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [
                r.student_id,
                r.cohort_year,
                "true" if r.aalana else "false",
                "true" if r.first_gen else "false",
                r.college,
                "" if r.la_year is None else r.la_year,
                r.outcome.value,
                r.outcome_year,
            ]
        )
    return out.getvalue()


def make_record(
    sid="s1",
    cohort_year=2013,
    aalana=False,
    first_gen=False,
    college="SCI",
    la_year=None,
    outcome=Outcome.GRADUATED,
    outcome_year=4,
):
    return StudentRecord(
        student_id=sid,
        cohort_year=cohort_year,
        aalana=aalana,
        first_gen=first_gen,
        college=college,
        la_year=la_year,
        outcome=outcome,
        outcome_year=outcome_year,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20130901)
