"""Student records: parsing, transition derivation, and subgroup selection.

The input schema is one row per student:

    student_id,cohort_year,aalana,first_gen,college,la_year,outcome,outcome_year

with `aalana`/`first_gen` in {true,false}, `la_year` empty or 1-6, and
`outcome` one of G (graduated), D (dropped out), E (still enrolled).
`outcome_year` is years since matriculation at absorption, or the last
fully completed year of study for enrolled students.

Ingest validates each distinct row once. Every estimate and subgroup reads
only a row's fields other than its student_id, and a panel holds few
distinct such contents (a "kind"; 63 on a 100k synthetic panel). So
`parse_records` checks per row only its field count and its id, and parses
and validates the first row of each kind into the one StudentRecord of that
kind. It returns a columnar `Panel`: the ids, a kind index per row, and the
kinds. A row's validity depends only on its kind and its id, so every error
still names the first offending row in file order.
"""

import csv
import io
import re
from dataclasses import dataclass
from enum import Enum
from itertools import compress

import numpy as np

from .errors import DuplicateId, InvariantViolation, MissingExposure, ParseError
from .states import AcademicState

CSV_HEADER = [
    "student_id",
    "cohort_year",
    "aalana",
    "first_gen",
    "college",
    "la_year",
    "outcome",
    "outcome_year",
]


class Outcome(Enum):
    GRADUATED = "G"
    DROPPED_OUT = "D"
    ENROLLED = "E"


class LaGroup(Enum):
    ALL = "all"
    EXPOSED = "exposed"
    UNEXPOSED = "unexposed"


@dataclass(frozen=True)
class StudentRecord:
    student_id: str
    cohort_year: int
    aalana: bool
    first_gen: bool
    college: str
    la_year: int | None
    outcome: Outcome
    outcome_year: int

    def __post_init__(self):
        rule = _invariant_failure(self)
        if rule is not None:
            raise ValueError(rule)


def _invariant_failure(r):
    """The first violated record invariant, or None."""
    if r.outcome_year < 1:
        return f"outcome_year must be >= 1, got {r.outcome_year}"
    if r.la_year is not None:
        if not 1 <= r.la_year <= 6:
            return f"la_year must be in 1..6, got {r.la_year}"
        slack = 1 if r.outcome is Outcome.ENROLLED else 0
        if r.la_year > r.outcome_year + slack:
            return (
                f"la_year {r.la_year} postdates the observed trajectory "
                f"(outcome_year {r.outcome_year}, outcome {r.outcome.value})"
            )
    return None


@dataclass(frozen=True)
class SubgroupSpec:
    """Conjunctive record filter; the default instance selects everything."""

    aalana_only: bool = False
    first_gen_only: bool = False
    college: str | None = None
    la_group: LaGroup = LaGroup.ALL

    def matches(self, r):
        if self.aalana_only and not r.aalana:
            return False
        if self.first_gen_only and not r.first_gen:
            return False
        if self.college is not None and r.college != self.college:
            return False
        if self.la_group is LaGroup.EXPOSED and r.la_year is None:
            return False
        if self.la_group is LaGroup.UNEXPOSED and r.la_year is not None:
            return False
        return True


class Panel:
    """Student rows stored by kind: the rows of one kind share every field
    but the student_id. `parse_records` makes one kind of each distinct row
    text after the id, and `synth.simulate` one of each distinct content.

    `ids` holds the student ids in row order, `kind` an np.intp kind index
    per row, and `kinds` one StudentRecord per kind, the kind's first row,
    in order of first appearance. Every kind has at least one row. len() is
    the row count; iteration yields each row's full StudentRecord.
    """

    __slots__ = ("ids", "kind", "kinds")

    def __init__(self, ids, kind, kinds):
        self.ids = ids
        self.kind = kind
        self.kinds = kinds

    @classmethod
    def from_records(cls, records):
        """The panel of an iterable of records; a Panel is returned as it is."""
        if isinstance(records, Panel):
            return records
        records = list(records)
        each_its_own_kind = cls([r.student_id for r in records],
                                np.arange(len(records), dtype=np.intp), records)
        return cls.concat([each_its_own_kind])

    @classmethod
    def concat(cls, panels):
        """One panel of the rows of one or more panels in turn; kinds of
        equal content merge into the first of them."""
        index, kinds, ids, columns = {}, [], [], []
        for panel in panels:
            renumber = []
            for r in panel.kinds:
                # all that estimates and subgroups read of a record
                key = (r.cohort_year, r.aalana, r.first_gen, r.college, r.la_year, r.outcome,
                       r.outcome_year)
                if key not in index:
                    index[key] = len(kinds)
                    kinds.append(r)
                renumber.append(index[key])
            ids += panel.ids
            columns.append(np.array(renumber, dtype=np.intp)[panel.kind])
        return cls(ids, np.concatenate(columns), kinds)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        # A kind is already validated and an id carries no invariant, so each
        # row copies its kind's fields rather than running __init__ again.
        fields = [vars(r) for r in self.kinds]
        new = object.__new__
        for sid, k in zip(self.ids, self.kind.tolist()):
            r = new(StudentRecord)
            vars(r).update(fields[k], student_id=sid)
            yield r


@dataclass(frozen=True)
class Transition:
    """One completed year-to-year step for one student."""

    student_id: str
    frm: AcademicState
    to: AcademicState
    year_index: int

    def __post_init__(self):
        if self.frm is not AcademicState.year(self.year_index):
            raise ValueError(
                f"year_index {self.year_index} inconsistent with from-state {self.frm.name}"
            )


def _parse_bool(raw, row, column):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ParseError(row, column, f"expected 'true' or 'false', got {raw!r}")


def _parse_int(raw, row, column):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(row, column, f"expected an integer, got {raw!r}") from None


def _parse_kind(row, row_no):
    """The StudentRecord of a row of a new kind, checked column by column
    (outcome first), then against the record invariants."""
    sid, cohort, aalana, first_gen, college, la_year, outcome, outcome_year = row
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
        return StudentRecord(**fields)
    except ValueError as exc:
        raise InvariantViolation(row_no, str(exc)) from None


def parse_records(source, seen=None):
    """Parse a CSV byte stream (or bytes, str, or text stream) into a Panel.

    The header must match the schema exactly; unknown extra columns are
    rejected. Row numbers in errors are 1-based counting the header. Each
    row's field count and id are checked; only the first row of each kind
    (its text after the id) is parsed and validated. `seen` holds ids read
    before this source, as from earlier files: a row repeating one is a
    DuplicateId, and this source's ids are added to it.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    else:
        raise TypeError(f"cannot read records from {type(source).__name__}")

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "student_id", "missing header row") from None
    if header != CSV_HEADER:
        raise ParseError(1, "header", f"expected {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")

    seen = set() if seen is None else seen
    ids, kind, index, kinds = [], [], {}, []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(row_no, "row", f"expected {len(CSV_HEADER)} fields, got {len(row)}")
        sid = row[0]
        if not sid:
            raise ParseError(row_no, "student_id", "must be non-empty")
        if sid in seen:
            raise DuplicateId(sid, row_no)
        seen.add(sid)
        ids.append(sid)
        key = tuple(row[1:])
        k = index.get(key)
        if k is None:
            k = index[key] = len(kinds)
            kinds.append(_parse_kind(row, row_no))
        kind.append(k)
    return Panel(ids, np.array(kind, dtype=np.intp), kinds)


def load_records(path, seen=None):
    with open(path, "rb") as fh:
        return parse_records(fh, seen)


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# csv.writer quotes a field holding one of these characters (which of them
# depends on the Python version), and writes any other field as it is.
_MAY_NEED_QUOTES = re.compile('[,"\r\n]').search


def format_records(records):
    """Serialize records back to the CSV schema (LF endings, UTF-8 safe).

    Writes by kind: the text after the id is written once per kind, and each
    row is its id, a comma and its kind's text. Only an id that csv.writer
    might quote goes through the writer.
    """
    panel = Panel.from_records(records)
    texts = [
        _csv_text([[
            r.cohort_year,
            "true" if r.aalana else "false",
            "true" if r.first_gen else "false",
            r.college,
            "" if r.la_year is None else r.la_year,
            r.outcome.value,
            r.outcome_year,
        ]])
        for r in panel.kinds
    ]
    rows = (
        (_csv_text([[sid]])[:-1] if _MAY_NEED_QUOTES(sid) else sid) + "," + texts[k]
        for sid, k in zip(panel.ids, panel.kind.tolist())
    )
    return _csv_text([CSV_HEADER]) + "".join(rows)


def derive_transitions(r, horizon_year):
    """Completed transitions for one student, as observable at the horizon.

    Let obs = horizon_year - cohort_year be the number of elapsed academic
    years and c = min(outcome_year, 6, obs) the observable completed years.
    The student contributes the persistence steps up to year c, then:

      * absorption within both the horizon and the six-year window is
        emitted as the final step into DROP_OUT or GRADUATED;
      * a student known to have completed year 6 without graduating within
        six years is assigned Y6 -> DROP_OUT (six-calendar-year censoring);
      * otherwise the outgoing step from year c is emitted only if the
        start of year c+1 was itself observed, else it is censored.
    """
    obs = horizon_year - r.cohort_year
    if obs < 1:
        return []
    c = min(r.outcome_year, 6, obs)
    steps = [
        Transition(r.student_id, AcademicState.year(k), AcademicState.year(k + 1), k)
        for k in range(1, c)
    ]
    absorbed_in_window = (
        r.outcome is not Outcome.ENROLLED and r.outcome_year <= min(6, obs)
    )
    if absorbed_in_window:
        to = (
            AcademicState.GRADUATED
            if r.outcome is Outcome.GRADUATED
            else AcademicState.DROP_OUT
        )
        steps.append(Transition(r.student_id, AcademicState.year(c), to, c))
    elif c == 6:
        # Completed year 6 still enrolled (or absorbed after year 6):
        # indistinguishable from a non-completer for the six-year statistic.
        steps.append(
            Transition(r.student_id, AcademicState.Y6, AcademicState.DROP_OUT, 6)
        )
    elif c < obs:
        steps.append(
            Transition(r.student_id, AcademicState.year(c), AcademicState.year(c + 1), c)
        )
    return steps


def la_truncate(r, transitions):
    """Keep only the steps from the first LA-supported year onward.

    Applied when the student contributes to an LA-group estimate; the full
    trajectory is still used in any all-students analysis.
    """
    if r.la_year is None:
        raise MissingExposure(r.student_id)
    return [t for t in transitions if t.year_index >= r.la_year]


def filter_subgroup(records, spec):
    """The rows that match spec, as a Panel of only the kinds they hold."""
    panel = Panel.from_records(records)
    keep = np.array([spec.matches(r) for r in panel.kinds], dtype=bool)
    rows = keep[panel.kind]
    renumber = np.cumsum(keep, dtype=np.intp) - 1
    return Panel(list(compress(panel.ids, rows.tolist())), renumber[panel.kind[rows]],
                 list(compress(panel.kinds, keep)))
