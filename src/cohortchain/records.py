"""Student records: the panel format. This module reads, writes and selects
panels; what a record tallies is decided in estimate.py.

The input schema is one row per student:

    student_id,cohort_year,aalana,first_gen,college,la_year,outcome,outcome_year

with `aalana`/`first_gen` in {true,false}, `la_year` empty or 1-6, and
`outcome` one of G (graduated), D (dropped out), E (still enrolled).
`outcome_year` is years since matriculation at absorption, or the last
fully completed year of study for enrolled students.

Ingest validates each distinct row once. Every estimate and subgroup reads
only a row's fields other than its student_id, and a panel holds few
distinct such contents (a "kind"; 63 on a 100k synthetic panel). So
`parse_records` checks per row only its id, and parses and validates the
first row of each kind into the one StudentRecord of that kind. It returns
a columnar `Panel`: the ids packed into one text, a kind index per row, and
the kinds.

Plain text, holding no '"' or NUL and no carriage return but in a CRLF
line ending or at the text's end, is read by its lines: each line is
split at its first comma into the id and the kind's text, and the field
count is checked once per kind. Any other text (quoted fields, a NUL, a
carriage return in a line), and any plain text with a row the line path
would not accept, is read by `csv.reader`, row by row, which raises
every ingest error. A row's validity depends only on its kind and its
id, so every error still names the first offending row in file order.
Both paths read the source, bytes or a binary file, as one decoded text
stream, and neither holds a file's text or its list of lines;
`parse_records` gives the order of the two passes and where a non-UTF-8
byte raises. The input may start with a byte-order mark, as spreadsheet
programs write it.
"""

import csv
import gc
import io
import operator
import re
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain, compress

import numpy as np

from .errors import DuplicateId, InvariantViolation, ParseError

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


# Strings an _Ids column builds at a time when it is iterated.
_ITER_CHUNK = 2**12


class _Ids(Sequence):
    """A read-only sequence of str held as one column: `text`, the strings
    joined, and `bounds`, an np.intp array of each string's start in it and,
    last, the end of the text. An index or iteration builds each
    str when it is read. A slice, or an np.ndarray of indices or a boolean
    mask, reads a list."""

    __slots__ = ("text", "bounds")

    def __init__(self, text, bounds):
        self.text = text
        self.bounds = bounds

    @classmethod
    def pack(cls, strings):
        """The column of an iterable of str; a column is returned as it is."""
        if isinstance(strings, cls):
            return strings
        strings = strings if isinstance(strings, list) else list(strings)
        bounds = np.zeros(len(strings) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, strings), np.intp, len(strings)), out=bounds[1:])
        return cls("".join(strings), bounds)

    @classmethod
    def concat(cls, columns):
        """One column of the strings of each column in turn."""
        offsets = np.cumsum([0] + [len(c.text) for c in columns[:-1]])
        return cls("".join(c.text for c in columns), np.concatenate(
            [np.zeros(1, dtype=np.intp), *(c.bounds[1:] + o for c, o in zip(columns, offsets))]))

    def __len__(self):
        return len(self.bounds) - 1

    def __getitem__(self, i):
        if isinstance(i, (slice, np.ndarray)):
            text = self.text
            return [text[start:end] for start, end in zip(self.bounds[:-1][i].tolist(),
                                                          self.bounds[1:][i].tolist())]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("index out of range")
        return self.text[self.bounds[i]:self.bounds[i + 1]]

    def __iter__(self):
        # a list of _ITER_CHUNK strings at a time, never one of them all
        for start in range(0, len(self), _ITER_CHUNK):
            yield from self[start:start + _ITER_CHUNK]


class Panel:
    """Student rows stored by kind: the rows of one kind share every field
    but the student_id. Each reader keys its kinds once: `parse_records` by
    the row text after the id, `synth.generate_panel` and `from_records` by
    the content. Two kinds may share content, as cohorts "2013" and "02013"
    do; every estimate reads tallies summed over kinds, which are exact.

    `ids` holds the student ids in row order, as one packed read-only
    sequence of str (any other iterable of ids given is packed), `kind` an
    np.intp kind index per row, and `kinds` one StudentRecord per kind, the
    kind's first row, in order of first appearance. Every kind has at least
    one row. len() is the row count. Iteration yields each row's full
    StudentRecord, built on the first iteration and kept, so a later one
    yields the same objects.
    """

    __slots__ = ("ids", "kind", "kinds", "_rows")

    def __init__(self, ids, kind, kinds):
        self.ids = _Ids.pack(ids)
        self.kind = kind
        self.kinds = kinds
        self._rows = None

    @classmethod
    def from_records(cls, records):
        """The panel of an iterable of records, one kind per content; a Panel
        is returned as it is."""
        if isinstance(records, Panel):
            return records
        index, ids, kind, kinds = {}, [], [], []
        for r in records:
            # all that estimates and subgroups read of a record
            key = (r.cohort_year, r.aalana, r.first_gen, r.college, r.la_year, r.outcome,
                   r.outcome_year)
            k = index.get(key)
            if k is None:
                k = index[key] = len(kinds)
                kinds.append(r)
            ids.append(r.student_id)
            kind.append(k)
        return cls(ids, np.array(kind, dtype=np.intp), kinds)

    @classmethod
    def concat(cls, panels):
        """One panel of the rows of one or more panels in turn, each keeping
        its kinds: a later panel's kind indices are shifted past the kinds
        before it. A lone panel is returned as it is. The panels are drawn
        one at a time, so an iterator of them need not hold them all."""
        kinds, ids, columns = [], [], []
        for panel in panels:
            columns.append(panel.kind + len(kinds) if kinds else panel.kind)
            ids.append(panel.ids)
            kinds.extend(panel.kinds)
        if len(columns) == 1:
            return panel
        return cls(_Ids.concat(ids), np.concatenate(columns), kinds)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        # A kind is already validated and an id carries no invariant, so each
        # row copies its kind's fields rather than running __init__ again.
        if self._rows is None:
            fields = [vars(r) for r in self.kinds]
            new = object.__new__
            # every row is kept, so the cyclic collector, which would rescan
            # the growing population of them, has nothing to free here
            enabled = gc.isenabled()
            gc.disable()
            try:
                rows = [new(StudentRecord) for _ in range(len(self))]
                for r, sid, k in zip(rows, self.ids, self.kind.tolist()):
                    vars(r).update(fields[k], student_id=sid)
            finally:
                if enabled:
                    gc.enable()
            self._rows = rows
        return iter(self._rows)


def _parse_bool(raw, row, column):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ParseError(row, column, f"expected 'true' or 'false', got {raw!r}")


# ASCII digits with an optional leading "-": int() would also read "1_0",
# " 4", "+4" and digits of other scripts.
_INTEGER = re.compile("-?[0-9]+").fullmatch


def _parse_int(raw, row, column):
    if not _INTEGER(raw):
        raise ParseError(row, column, f"expected an integer, got {raw!r}")
    return int(raw)


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


_HEADER_LINE = ",".join(CSV_HEADER)
# Characters of text read per piece: the line path holds one piece, its
# lines and the partial line carried to the next piece, never the whole text.
# 2**14 is about 450 rows of a synthetic panel. Peak RSS of `estimate` on a
# 100k-row panel (3.7 MB of CSV), medians of 7 processes on a 2-core VM
# (Python 3.11, numpy 2.4), by piece size:
#   2**12 39.87, 2**13 39.77, 2**14 39.82, 2**15 40.02, 2**16 40.79,
#   2**17 41.31, 2**18 43.49 MB.
# A second sweep of 15 each read 40.40, 40.12 and 40.09 MB at 2**12 to
# 2**14. Loading that panel took 48-53 ms at 2**13, 2**14 and 2**18 alike.
_PIECE_CHARS = 2**14


def _parse_lines(pieces, seen):
    """The Panel of plain CSV text, given in successive str pieces and read
    line by line, or None to leave the text to csv.reader: a screen that
    decides no fault. It accepts only text that csv.reader reads to the same
    Panel and declines any other, raising nothing, so that csv.reader names
    every ingest error. It draws every piece even then, so that a non-UTF-8
    byte anywhere raises here.

    Each piece is split into its lines, less their LF or CRLF endings; a
    line cut by the piece's end is carried over to the next, and a last
    piece of one LF ends the last line as csv.reader ends it, after a lone
    CR too. With no '"' or NUL in the text, and every other CR followed by
    LF, csv.reader yields exactly each line split on commas, and an empty
    row for a blank line, which both paths skip after the header. A line is
    at most the line carried into its piece plus the piece, so a carried
    line longer than csv.field_size_limit() - _PIECE_CHARS declines, and
    no line read is longer than that limit.

    A piece's ids are packed as it is read: joined into one text, with an
    array of their lengths and one of their hashes, so no id's str outlives
    its piece. An id in seen declines, and so do an id of length 0 and a tie
    among the sorted hashes: a repeated id, or distinct ids at odds of about
    n**2 / 2**65 for n rows. At the end the hashes are sorted, checked and
    freed; only then are the pieces' texts joined into the ids' one text and
    the lengths summed into its bounds. So the end holds one copy of the id
    text beside the pieces' texts, and never the hashes with it.
    """
    bound = csv.field_size_limit() - _PIECE_CHARS
    # lengths starts with the 0 that becomes the first id's start
    texts, lengths, hashes, kind = [], array("q", [0]), array("q"), array("q")
    index, first = {}, []  # first: the id and row index of each kind's first row
    header = False
    tail = ""  # the text after the last LF so far
    for piece in chain(pieces, ["\n"]):
        text = tail + piece
        # a CR ending the text may meet its LF in the next piece
        if '"' in piece or "\0" in piece or (
            "\r" in text and text.count("\r") - text.endswith("\r") != text.count("\r\n")
        ):
            break
        lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
        tail = lines.pop()
        if len(tail) > bound:
            break
        if not header and lines:
            if lines[0] != _HEADER_LINE:
                break
            header = True
            del lines[0]
        ids = []
        for line in lines:
            if not line:
                continue
            sid, _, rest = line.partition(",")
            k = index.get(rest)
            if k is None:
                k = index[rest] = len(first)
                first.append((sid, len(kind)))
            ids.append(sid)
            kind.append(k)
        if seen and not seen.isdisjoint(ids):
            break
        texts.append("".join(ids))
        # numpy converts the ints, and the arrays take its bytes
        lengths.frombytes(np.fromiter(map(len, ids), np.int64, len(ids)).view(np.uint8))
        hashes.frombytes(np.fromiter(map(hash, ids), np.int64, len(ids)).view(np.uint8))
    else:  # every line read
        kinds = []
        for rest, (sid, i) in zip(index, first):
            if rest.count(",") != len(CSV_HEADER) - 2:
                return None
            try:
                kinds.append(_parse_kind([sid, *rest.split(",")], i + 2))
            except (ParseError, InvariantViolation):
                return None
        # the hashes are freed before the texts are joined, and the texts
        # once joined, to lower the peak
        hashes = np.frombuffer(hashes, dtype=np.int64)
        hashes.sort()
        bounds = np.frombuffer(lengths, dtype=np.int64)
        if (hashes[1:] == hashes[:-1]).any() or not bounds[1:].all():
            return None
        del hashes
        # the lengths become the bounds in place
        np.cumsum(bounds, out=bounds)
        ids = _Ids("".join(texts), bounds.astype(np.intp, copy=False))
        del texts
        return Panel(ids, np.frombuffer(kind, dtype=np.int64).astype(np.intp, copy=False), kinds)
    for _ in pieces:  # declined before the end: decode the rest all the same
        pass
    return None


def _parse_rows(lines, seen):
    """The Panel of CSV text read row by row by csv.reader; raises every
    ingest error, naming the first offending row. A row csv.reader cannot
    read is a ParseError of that row."""
    rows = enumerate(csv.reader(lines), start=1)
    ids, kind, index, kinds, own = [], [], {}, [], set()
    row_no = 0  # the last row read
    try:
        row_no, header = next(rows, (1, None))
        if header is None:
            raise ParseError(1, "student_id", "missing header row")
        if header != CSV_HEADER:
            raise ParseError(1, "header", f"expected {_HEADER_LINE!r}, got {','.join(header)!r}")
        for row_no, row in rows:
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(row_no, "row",
                                 f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            sid = row[0]
            if not sid:
                raise ParseError(row_no, "student_id", "must be non-empty")
            if sid in own or sid in seen:
                raise DuplicateId(sid, row_no)
            own.add(sid)
            ids.append(sid)
            key = tuple(row[1:])
            k = index.get(key)
            if k is None:
                k = index[key] = len(kinds)
                kinds.append(_parse_kind(row, row_no))
            kind.append(k)
    except csv.Error as exc:
        raise ParseError(row_no + 1, "row", str(exc)) from None
    return Panel(ids, np.array(kind, dtype=np.intp), kinds)


def parse_records(source, seen=None):
    """Parse UTF-8 CSV into a Panel: bytes, or a binary file read from its
    start.

    The header must match the schema exactly; unknown extra columns are
    rejected. The text may start with a byte-order mark, which is not part
    of the header. Row numbers in errors are 1-based counting the header.
    Each row's field count and id are checked; only the first row of each
    kind (its text after the id) is parsed and validated. `seen` holds ids
    read before this source, as from earlier files: a row repeating one is
    a DuplicateId. `seen` is only read: this source's ids are not added to
    it. A row csv.reader cannot read, as one with a field longer than
    csv.field_size_limit(), is a ParseError of that row.

    The text is read in two passes at most. The line pass decodes it all,
    _PIECE_CHARS characters at a time, so a non-UTF-8 byte raises
    UnicodeDecodeError there, at its offset from the start of the bytes,
    before any row error. Only text that pass declines is read again, from
    its start, by csv.reader, which then only parses.
    """
    raw = io.BytesIO(source) if isinstance(source, bytes) else source
    seen = frozenset() if seen is None else seen
    # newline="\n" splits lines at LF alone and translates nothing, so
    # csv.reader sees the lines it sees in io.StringIO(text); the decoder
    # drops the mark again when csv.reader rereads the text from its start
    with io.TextIOWrapper(raw, encoding="utf-8-sig", newline="\n") as text:
        try:
            panel = _parse_lines(iter(partial(text.read, _PIECE_CHARS), ""), seen)
        except UnicodeDecodeError:
            # the text layer counts a bad byte from the start of its last
            # read; decoding the bytes whole counts it from their start
            raw.seek(0)
            raw.read().decode("utf-8")
            raise
        if panel is None:
            text.seek(0)
            panel = _parse_rows(text, seen)
        return panel


def load_records(path, seen=None):
    """The Panel of a CSV file, read in pieces (see parse_records)."""
    with open(path, "rb") as fh:
        return parse_records(fh, seen)


def _utf8_text(path):
    """The text of a small UTF-8 file, less a leading byte-order mark; a bad
    byte raises UnicodeDecodeError at its offset from the file's start."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8").removeprefix("\ufeff")


def _key_value_lines(text):
    """(line number, key, value) of each line of `key = value` text, less
    blank and `#` lines: split at the first `=`, both sides stripped. A
    line without `=` comes as (line number, None, the stripped line)."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            key, eq, value = stripped.partition("=")
            yield (line_no, key.strip(), value.strip()) if eq else (line_no, None, stripped)


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# csv.writer quotes a field holding one of these characters (which of them
# depends on the Python version), and writes any other field as it is.
_MAY_NEED_QUOTES = re.compile('[,"\r\n]').search


def _csv_ids(ids, may_need_quotes):
    """A list of ids as CSV fields: only an id that csv.writer might quote
    goes through the writer, and none when may_need_quotes is false."""
    if not (may_need_quotes and any(map(_MAY_NEED_QUOTES, ids))):
        return ids
    return [_csv_text([[sid]])[:-1] if _MAY_NEED_QUOTES(sid) else sid for sid in ids]


# Rows per piece of a panel's CSV text: about 150 KB of text on a
# synthetic panel. A piece builds a str for each of its ids, which the
# packed column does not hold.
_PIECE_ROWS = 2**12


def _format_pieces(panels):
    """The CSV text of the rows of panels, an iterable of Panels, in pieces
    and in order: the header once, then each panel's rows in blocks of
    _PIECE_ROWS.

    Writes by kind: the text after the id is written once per kind, and a
    block is one join of its ids interleaved with their kinds' texts, so no
    row has a string of its own. A piece is built only when it is drawn,
    and leaves nothing behind but its text. A panel is drawn once the pieces
    of the one before are all drawn, and is dropped with its last piece. So
    a writer that writes each piece as it comes holds one block's text and
    one panel at a time, and the panels may come from an iterator that
    builds each when it is drawn.
    """
    yield _csv_text([CSV_HEADER])
    yield from chain.from_iterable(map(_panel_pieces, panels))


def _panel_pieces(panel):
    """The CSV rows of one panel, in blocks of _PIECE_ROWS."""
    texts = [
        "," + _csv_text([[
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
    # one search of the joined ids spares a search of each id when none matches
    may_need_quotes = _MAY_NEED_QUOTES(panel.ids.text) is not None
    # one expression, so that a suspended piece keeps nothing but its text
    for start in range(0, len(panel.ids), _PIECE_ROWS):
        yield "".join(chain.from_iterable(zip(
            _csv_ids(panel.ids[start:start + _PIECE_ROWS], may_need_quotes),
            map(texts.__getitem__, panel.kind[start:start + _PIECE_ROWS].tolist()),
        )))


def format_records(records):
    """Serialize records back to the CSV schema (LF endings, UTF-8 safe):
    the pieces of _format_pieces joined into one str. The CLI writes synth's
    panel from the pieces themselves, cohort by cohort."""
    return "".join(_format_pieces([Panel.from_records(records)]))


def filter_subgroup(records, spec):
    """The rows that match spec, as a Panel of only the kinds they hold: the
    panel itself when every kind matches."""
    panel = Panel.from_records(records)
    keep = np.array([spec.matches(r) for r in panel.kinds], dtype=bool)
    if keep.all():
        return panel
    rows = keep[panel.kind]
    renumber = np.cumsum(keep, dtype=np.intp) - 1
    return Panel(panel.ids[rows], renumber[panel.kind[rows]],
                 list(compress(panel.kinds, keep)))
