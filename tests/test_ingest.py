import csv
import gc
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from itertools import compress, product
from unittest.mock import patch

import numpy as np
import pytest
from conftest import format_records_by_record, make_record, parse_records_by_row, traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortchain import (
    AcademicState,
    BootstrapConfig,
    LaGroup,
    MarkovFullEstimator,
    Outcome,
    SubgroupSpec,
    TraditionalEstimator,
    Transition,
    bootstrap_each,
    derive_transitions,
    filter_subgroup,
    la_truncate,
    parse_records,
)
from cohortchain import records as records_module
from cohortchain.cli import _load_inputs, _select
from cohortchain.errors import (
    CohortChainError,
    DuplicateId,
    EmptyCohort,
    InvariantViolation,
    MissingExposure,
    ParseError,
)
from cohortchain.markov import ALLOWED_CELLS
from cohortchain.records import Panel, _Ids, format_records, load_records

S = AcademicState

HEADER = "student_id,cohort_year,aalana,first_gen,college,la_year,outcome,outcome_year"


# The UTF-8 byte-order mark, which spreadsheet programs write ahead of CSV.
BOM = b"\xef\xbb\xbf"


def csv_bytes(*rows):
    return ("\n".join([HEADER, *rows]) + "\n").encode("utf-8")


class TestParseRecords:
    def test_direct_field_mapping(self):
        (r,) = parse_records(csv_bytes("s1,2013,true,false,SCI,2,G,4"))
        assert r.student_id == "s1"
        assert r.cohort_year == 2013
        assert r.aalana and not r.first_gen
        assert r.college == "SCI"
        assert r.la_year == 2
        assert r.outcome is Outcome.GRADUATED
        assert r.outcome_year == 4

    def test_absent_la_year(self):
        (r,) = parse_records(csv_bytes("s2,2020,false,false,SCI,,E,1"))
        assert r.la_year is None
        assert r.outcome is Outcome.ENROLLED

    def test_la_year_after_absorption_rejected(self):
        with pytest.raises(InvariantViolation) as exc:
            parse_records(csv_bytes("s3,2015,false,true,SCI,5,G,3"))
        assert exc.value.row == 2

    def test_la_year_during_current_year_allowed_when_enrolled(self):
        (r,) = parse_records(csv_bytes("s4,2019,false,false,SCI,3,E,2"))
        assert r.la_year == 3

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId) as exc:
            parse_records(csv_bytes("s1,2013,true,false,SCI,,G,4", "s1,2014,false,false,SCI,,D,1"))
        assert exc.value.student_id == "s1"
        assert exc.value.row == 3

    def test_unknown_extra_column_rejected(self):
        data = (HEADER + ",extra\ns1,2013,true,false,SCI,,G,4,x\n").encode()
        with pytest.raises(ParseError):
            parse_records(data)

    def test_bad_boolean(self):
        with pytest.raises(ParseError) as exc:
            parse_records(csv_bytes("s1,2013,yes,false,SCI,,G,4"))
        assert exc.value.column == "aalana"

    @pytest.mark.parametrize("column, value", [
        ("cohort_year", "20_13"), ("cohort_year", " 2013"), ("cohort_year", "2013 "),
        ("cohort_year", "+2013"), ("cohort_year", "\u0662\u0660\u0661\u0663"),
        ("la_year", "+1"), ("outcome_year", "1_0"), ("outcome_year", "\u0663"),
        ("outcome_year", "-"),
    ])
    @pytest.mark.parametrize("college", ["SCI", '"SCI"'])
    def test_integer_is_ascii_digits(self, column, value, college):
        # an unquoted panel takes the line path, a quoted one csv.reader
        fields = dict(cohort_year="2013", la_year="1", outcome_year="4")
        fields[column] = value
        row = f"s1,{fields['cohort_year']},true,false,{college},{fields['la_year']},G,"
        with pytest.raises(ParseError) as exc:
            parse_records(csv_bytes(row + fields["outcome_year"]))
        assert (exc.value.row, exc.value.column) == (2, column)
        assert exc.value.reason == f"expected an integer, got {value!r}"

    @pytest.mark.parametrize("la_year", [0, 7])
    @pytest.mark.parametrize("college", ["SCI", '"SCI"'])
    def test_la_year_outside_one_to_six(self, la_year, college):
        # an enrolled student in year 6 may take LA up to year 7 by the
        # trajectory rule, so only the range rule rejects 7
        with pytest.raises(InvariantViolation) as exc:
            parse_records(csv_bytes(f"s1,2013,false,false,{college},{la_year},E,6"))
        assert (exc.value.row, exc.value.rule) == (2, f"la_year must be in 1..6, got {la_year}")

    def test_negative_integer_reaches_the_invariants(self):
        with pytest.raises(InvariantViolation, match="outcome_year must be >= 1, got -4"):
            parse_records(csv_bytes("s1,2013,true,false,SCI,,G,-4"))

    def test_bad_outcome(self):
        with pytest.raises(ParseError) as exc:
            parse_records(csv_bytes("s1,2013,true,false,SCI,,X,4"))
        assert exc.value.column == "outcome"

    def test_round_trip_through_formatter(self):
        records = parse_records(
            csv_bytes("s1,2013,true,false,SCI,2,G,4", "s2,2020,false,true,ENG,,E,1")
        )
        assert list(parse_records(format_records(records).encode())) == list(records)

    def test_each_kind_validated_once(self, monkeypatch):
        # 60 rows of 6 kinds: (cohort_year, first_gen) cycle with period 6
        calls = []
        check = records_module._invariant_failure
        monkeypatch.setattr(records_module, "_invariant_failure",
                            lambda r: calls.append(r) or check(r))
        rows = [f"s{i},{2013 + i % 3},false,{str(i % 2 == 0).lower()},SCI,,G,4"
                for i in range(60)]
        panel = parse_records(csv_bytes(*rows))
        assert len(panel) == 60
        assert len(panel.kinds) == 6
        assert len(calls) == 6


# Per column, values a valid row may hold and values that break it (college
# takes any text). The few ids make repeats common; "02013" is valid text of
# the same content as "2013", a second kind of equal content; la_year 2 or 5
# after an early outcome_year breaks the la_year invariant.
GOOD = [list("abcdefghij"), ["2013", "02013", "2019"], ["true", "false"],
        ["true", "false"], ["SCI", "ENG"], ["", "", "1", "2"], ["G", "D", "E"],
        ["1", "2", "4", "7"]]
BAD = [[""], ["x", "2013.0", " 2013", "20_13"], ["yes", "True"], ["no", ""], [""],
       ["0", "5", "7", "one", "+1"], ["X", "g", ""], ["0", "", "4.5", "1_0", "\u0663"]]


# Characters a line may hold that csv.reader reads as any other character
# (on Python 3.10 it rejects NUL), though str.splitlines splits on all but NUL.
ODD = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\0"]
# Text a quoted field may hold: csv.reader keeps it, the line path cannot.
QUOTED = ["", ",", '"', "\n", "\r\n", "\r"]
MUTATIONS = ["field"] * 3 + ["blank", "short", "long", "odd", "quoted", "cr"]


def _quote(field):
    return '"' + field.replace('"', '""') + '"'


@st.composite
def mutated_csv(draw):
    """CSV text of up to 8 rows, each valid or broken in one way: a bad or
    odd value, a quoted field, a stray carriage return, a blank line, one
    field too few or too many. Half the files have distinct ids and break at
    most one row, so that more of them parse. Lines end in LF or CRLF, the
    last one maybe in nothing, a CR or two, and a quarter of the files start
    with a byte-order mark."""
    header = draw(st.sampled_from([HEADER] * 4 + [_quote("student_id") + HEADER[10:]]))
    lines = [header]
    n = draw(st.integers(0, 8))
    calm = draw(st.booleans())
    broken = draw(st.integers(0, 2 * n))  # past the last row: none broken
    for i in range(n):
        fields = [draw(st.sampled_from(values)) for values in GOOD]
        if calm:
            fields[0] += str(i)
            mutation = draw(st.sampled_from(MUTATIONS)) if i == broken else "none"
        else:
            mutation = draw(st.sampled_from(["none"] * 12 + MUTATIONS))
        column = draw(st.integers(0, len(BAD) - 1))
        if mutation == "field":
            fields[column] = draw(st.sampled_from(BAD[column]))
        elif mutation == "odd":
            fields[draw(st.sampled_from([0, 4]))] += draw(st.sampled_from(ODD))
        elif mutation == "quoted":
            fields[column] = _quote(fields[column] + draw(st.sampled_from(QUOTED)))
        elif mutation == "cr":
            fields[column] += "\r"
        elif mutation == "short":
            fields.pop()
        elif mutation == "long":
            fields.append("x")
        lines.append("" if mutation == "blank" else ",".join(fields))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = (newline.join(lines) + draw(st.sampled_from([newline, "", "\r", "\r\r"]))).encode("utf-8")
    return draw(st.sampled_from([b"", b"", b"", BOM])) + text


def _outcome(parse, data):
    """The rows parse gives, or its error's type and message."""
    try:
        return list(parse(data))
    except CohortChainError as exc:
        return type(exc), str(exc)


LIMIT = csv.field_size_limit()


@given(data=mutated_csv())
@example(data=b"")
@example(data=b"\n")
@example(data=HEADER.encode())
@example(data=HEADER.encode() + b"\r\n")
@example(data=csv_bytes("s1,2013,true,false,SCI,2,G,4")[:-1])
@example(data=csv_bytes("x" * (LIMIT + 1) + ",2013,true,false,SCI,2,G,4"))
@example(data=csv_bytes("s1,2013,true,false," + "S" * LIMIT + ",2,G,4"))
@example(data=csv_bytes("s1,2013,true,false,SCI,2,G,4", "s2,2013,true\x00,false,SCI,2,G,4"))
@example(data=BOM + csv_bytes("s1,2013,true,false,SCI,2,G,4", "s2,2013,maybe,false,SCI,2,G,4"))
@example(data=csv_bytes("s1,2013,True,false,SCI,2,G,4"))
@example(data=csv_bytes("s1,20_13,true,false,SCI,2,G,4"))
@settings(max_examples=600)
def test_parse_matches_row_by_row_reference(data):
    assert _outcome(parse_records, data) == _outcome(parse_records_by_row, data)


def plain_rows(n):
    """CSV bytes of n plain rows of 6 kinds."""
    return csv_bytes(*(
        f"s{2013 + i % 6}_{i},{2013 + i % 6},false,{'true' if i % 3 else 'false'},SCI,,"
        f"{'GDE'[i % 3]},{1 + i % 6}" for i in range(n)))


class _CsvReaderCalled(Exception):
    pass


def _no_csv_reader(*args, **kwargs):
    raise _CsvReaderCalled


def _count_csv_reader(monkeypatch):
    """A list that gains an entry at each csv.reader call from now on."""
    calls = []
    reader = records_module.csv.reader
    monkeypatch.setattr(records_module.csv, "reader",
                        lambda *args: calls.append(args) or reader(*args))
    return calls


PLAIN = ["a,2013,true,false,SCI,2,G,4", "b,2014,false,false,ENG,,D,2",
         "c,2013,true,false,SCI,2,G,4", "d\u2028\x85,2019,false,true,E\x0bN\x1cG,1,E,1"]


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    return tmp_path_factory.mktemp("stream") / "panel.csv"


@given(data=mutated_csv(), piece=st.integers(1, 9))
@example(data=csv_bytes(*PLAIN[:3]).replace(b"\n", b"\r\n"), piece=1)
@example(data=csv_bytes(PLAIN[0], "b,2013,true,false,SCI\r,2,G,4"), piece=4)
@example(data=csv_bytes(PLAIN[0], "b,2013,True,false,SCI,2,G,4"), piece=5)
@example(data=csv_bytes(PLAIN[0], "b,+2013,true,false,SCI,2,G,4"), piece=5)
@settings(max_examples=300)
def test_streamed_parse_matches_row_by_row_reference(stream_path, data, piece):
    # pieces of a few characters, so that a piece ends at every place in
    # the text, between a CR and its LF too. Each case writes a new file:
    # truncating one that holds data costs tens of milliseconds on ext4.
    stream_path.unlink(missing_ok=True)
    stream_path.write_bytes(data)
    expected = _outcome(parse_records_by_row, data)
    with patch.object(records_module, "_PIECE_CHARS", piece):
        assert _outcome(load_records, stream_path) == expected
        assert _outcome(parse_records, data) == expected


class TestLinePath:
    """Plain text is read by its lines: csv.reader reads only other text,
    and text the line path declines, which it leaves as it found it."""

    def test_plain_text_skips_csv_reader(self, monkeypatch, tmp_path):
        # LF or CRLF line endings, with or without a blank line between rows
        # or at the end, the last row ended by a lone CR too, as bytes or as
        # a file, in pieces of any size: pieces of 79 characters end between
        # the header's CR and LF
        path = tmp_path / "panel.csv"
        texts = [csv_bytes(*PLAIN), csv_bytes(PLAIN[0], "", *PLAIN[1:]), csv_bytes(*PLAIN, ""),
                 csv_bytes(*PLAIN)[:-1] + b"\r"]
        for data, piece in product(texts + [text.replace(b"\n", b"\r\n") for text in texts],
                                   [records_module._PIECE_CHARS, 1, 79]):
            expected = parse_records_by_row(data)
            path.unlink(missing_ok=True)
            path.write_bytes(data)
            with monkeypatch.context() as m:
                m.setattr(records_module, "_PIECE_CHARS", piece)
                m.setattr(records_module.csv, "reader", _no_csv_reader)
                for panel in (parse_records(data), load_records(path)):
                    assert list(panel) == expected
                    assert panel.kind.tolist() == [0, 1, 0, 2]

    @pytest.mark.parametrize("data", [
        csv_bytes('"a",2013,true,false,SCI,2,G,4'),
        csv_bytes(*PLAIN)[:-1] + b"\r\r",
    ])
    def test_other_text_reaches_csv_reader(self, monkeypatch, data):
        expected = parse_records_by_row(data)
        calls = _count_csv_reader(monkeypatch)
        assert list(parse_records(data)) == expected
        assert len(calls) == 1

    def test_blank_rows_of_csv_reader_text_are_skipped(self):
        # csv.reader reads a blank line as an empty row: one after the header
        # and one between rows read as their plain copy, and a later row's
        # number counts them
        quoted = ['"a",2013,true,false,SCI,2,G,4', *PLAIN[1:]]
        panel = parse_records(csv_bytes("", quoted[0], "", *quoted[1:]))
        plain = parse_records(csv_bytes(*PLAIN))
        assert list(panel) == list(plain)
        assert panel.kind.tolist() == plain.kind.tolist()
        with pytest.raises(ParseError) as exc:
            parse_records(csv_bytes("", quoted[0], "", *quoted[1:], "e,2013,maybe,false,SCI,2,G,4"))
        assert (exc.value.row, exc.value.column) == (8, "aalana")

    @pytest.mark.parametrize("rows", [
        ["a,2013,true,false,SCI,2,G,4", "b,2013,true,false,SCI,2,G,4", "a,2014,true,false,SCI,,G,4"],
        ["a,2013,true,false,SCI,2,G,4", "z,2013,true,false,SCI,2,G,4"],
        ["a,2013,true,false,SCI,2,G,4", ",2013,true,false,SCI,2,G,4"],
        ["a,2013,true,false,SCI,2,G,4", " ", "b,2013,true,false,SCI,2,G,4"],
        ["a,2013,true,false,SCI,2,G,4", "b,2013,maybe,false,SCI,2,G,4"],
        ["a,2013,true,false,SCI,5,G,3"],
        ["a,2013,true,false,SCI,2,G"],
        ["a,2013,true,false,SCI,2,G,4,x"],
        ["a,2013,true,false,SCI,2,G,4", "b"],
        ["a,2013,true,false,SCI,2,G,4", "b,2013,true\r,false,SCI,2,G,4"],
        ["a,2013,true,false,SCI,2,G,4\r\r"],
    ])
    def test_declined_text_leaves_seen_as_it_was(self, monkeypatch, rows):
        monkeypatch.setattr(records_module.csv, "reader", _no_csv_reader)
        seen = {"z"}
        with pytest.raises(_CsvReaderCalled):
            parse_records(csv_bytes(*rows), seen)
        assert seen == {"z"}

    @pytest.mark.parametrize("first", [PLAIN[0], '"a",2013,true,false,SCI,2,G,4'])
    def test_seen_is_only_read(self, first):
        seen = {"z"}
        panel = parse_records(csv_bytes(first, *PLAIN[1:]), seen)
        assert len(panel) == 4
        assert seen == {"z"}

    @pytest.fixture
    def one_hash(self, monkeypatch):
        # every id hashes alike: the hashes of any two rows tie, and the
        # line path declines the panel
        monkeypatch.setattr(records_module, "hash", lambda _: 7, raising=False)

    def test_tied_hashes_of_distinct_ids_reach_csv_reader(self, monkeypatch, one_hash):
        expected = parse_records_by_row(csv_bytes(*PLAIN))
        calls = _count_csv_reader(monkeypatch)
        assert list(parse_records(csv_bytes(*PLAIN))) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize("rows", [
        ["s1,2013,true,false,SCI,,G,4", "s1,2014,false,false,SCI,,D,1"],
        [PLAIN[0], ",2013,true,false,SCI,2,G,4"],
    ])
    def test_tied_hashes_still_find_repeated_and_empty_ids(self, request, rows):
        with pytest.raises(CohortChainError) as expected:
            parse_records(csv_bytes(*rows))
        request.getfixturevalue("one_hash")
        with pytest.raises(type(expected.value)) as exc:
            parse_records(csv_bytes(*rows))
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize("length, calls, raises", [(92, 0, False), (100, 1, False),
                                                        (125, 1, True)])
    def test_carried_line_bound(self, monkeypatch, length, calls, raises):
        # In pieces of 8 characters and with fields of at most 100, a line
        # is carried into the next piece whole only up to 100 - 8 = 92
        # characters: one of 92 stays on the line path, and a longer one,
        # wherever the pieces cut it, reaches csv.reader, which reads a line
        # of 100 as the reference does, and raises its error on a college
        # of 101 in a line of 125.
        data = csv_bytes(*PLAIN, f"e,2013,true,false,{'S' * (length - 24)},2,G,4")
        limit = csv.field_size_limit(100)
        try:
            expected = _outcome(parse_records_by_row, data)
            monkeypatch.setattr(records_module, "_PIECE_CHARS", 8)
            read = _count_csv_reader(monkeypatch)
            assert _outcome(parse_records, data) == expected
        finally:
            csv.field_size_limit(limit)
        assert len(read) == calls
        assert isinstance(expected, tuple) == raises

    def test_leading_blank_line_fails_the_header_check(self):
        with pytest.raises(ParseError) as exc:
            parse_records(b"\n" + csv_bytes(*PLAIN))
        assert str(exc.value) == "row 1, column 'header': expected '" + HEADER + "', got ''"

    def test_id_of_an_earlier_file_names_the_later_row(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_bytes(csv_bytes(*PLAIN[:2]))
        second.write_bytes(csv_bytes("x,2013,true,false,SCI,2,G,4", *PLAIN[1:3]))
        with pytest.raises(CohortChainError) as exc:
            _load_inputs([first, second])
        assert str(exc.value) == f"{second}: duplicate student_id 'b' at row 3"

    @pytest.mark.parametrize("quoted", [False, True])
    def test_id_of_the_first_of_three_files_names_the_third_files_row(self, tmp_path, quoted):
        # the third file goes to the line path, or with a quoted row to csv.reader
        paths = [tmp_path / f"{name}.csv" for name in ("first", "second", "third")]
        paths[0].write_bytes(csv_bytes(*PLAIN[:2]))
        paths[1].write_bytes(csv_bytes("x,2013,true,false,SCI,2,G,4"))
        paths[2].write_bytes(csv_bytes('"y",2013,true,false,SCI,2,G,4' if quoted else
                                       "y,2013,true,false,SCI,2,G,4", PLAIN[0]))
        with pytest.raises(CohortChainError) as exc:
            _load_inputs(paths)
        assert str(exc.value) == f"{paths[2]}: duplicate student_id 'a' at row 3"

    def test_peak_memory_bounded_by_text_size(self):
        # Traced peak over text size on these 20k rows with the line path:
        # 3.9 in pieces of 2**18 characters, 1.31 in pieces of 2**14, and
        # 1.19 in pieces of 2**14 with the hashes freed before the ids are
        # joined. csv.reader reads 5.7 (the same rows with one quoted
        # field). Both decode the bytes a piece at a time.
        data = plain_rows(20_000)
        panel, peak = traced_peak(lambda: parse_records(data))
        assert len(panel) == 20_000
        assert peak < 2 * len(data)

    def test_load_peak_memory_bounded_by_file_size(self, tmp_path):
        # Traced peak over file size on these 100k rows: 1.59 in pieces of
        # 2**18 characters, 1.24 in pieces of 2**14, and 1.03 in pieces of
        # 2**14 with the hashes freed before the ids are joined; 6.5
        # holding the file's bytes, its text and its lines at once.
        path = tmp_path / "panel.csv"
        path.write_bytes(plain_rows(100_000))
        panel, peak = traced_peak(lambda: load_records(path))
        assert len(panel) == 100_000
        assert peak < 1.2 * path.stat().st_size

    def test_selected_panel_holds_less_than_its_text(self, tmp_path):
        # Memory held by the panel over the file's size on these 20k rows:
        # 2.07 with a str per id and a set of them; 0.74 with the ids packed
        # and the lone, unfiltered panel read once.
        path = tmp_path / "panel.csv"
        path.write_bytes(plain_rows(20_000))
        _select(_load_inputs([path]), SubgroupSpec())  # one-time set-up is not held
        tracemalloc.start()
        try:
            panel = _select(_load_inputs([path]), SubgroupSpec())
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(panel) == 20_000
        assert held < 1.0 * path.stat().st_size

    @pytest.mark.parametrize("first", [PLAIN[0], '"a",2013,true,false,SCI,2,G,4'])
    def test_bad_byte_reports_its_file_offset(self, monkeypatch, tmp_path, first):
        # The byte lies past the first piece and past the 8 KiB that the
        # text layer decodes at a time. A quoted first row sends the file to
        # csv.reader, which meets a bad row before the byte; as in bytes
        # decoded whole, the byte is the error.
        monkeypatch.setattr(records_module, "_PIECE_CHARS", 1000)
        data = bytearray(csv_bytes(first, "b,2013,maybe,false,SCI,2,G,4", *[
            f"s{i},2013,true,false,SCI,2,G,4" for i in range(2000)]))
        at = len(data) - 10
        data[at] = 0xFF
        path = tmp_path / "panel.csv"
        path.write_bytes(data)
        for load in (load_records, parse_records):
            with pytest.raises(UnicodeDecodeError) as exc:
                load(path if load is load_records else bytes(data))
            assert exc.value.start == at
        with pytest.raises(CohortChainError) as exc:
            _load_inputs([path])
        assert str(exc.value) == f"{path}: not UTF-8 text (byte {at})"

    def test_declined_text_is_decoded_before_csv_reader(self, monkeypatch, tmp_path):
        # The line pass declines at the quoted first row, in the first
        # piece, and still decodes the pieces after it: the bad byte raises
        # there, and csv.reader never reads the text.
        monkeypatch.setattr(records_module, "_PIECE_CHARS", 1000)
        monkeypatch.setattr(records_module.csv, "reader", _no_csv_reader)
        data = bytearray(csv_bytes('"a",2013,true,false,SCI,2,G,4', *[
            f"s{i},2013,true,false,SCI,2,G,4" for i in range(2000)]))
        at = len(data) - 10
        data[at] = 0xFF
        path = tmp_path / "panel.csv"
        path.write_bytes(data)
        for load in (load_records, parse_records):
            with pytest.raises(UnicodeDecodeError) as exc:
                load(path if load is load_records else bytes(data))
            assert exc.value.start == at


class TestByteOrderMark:
    """UTF-8 text may start with a byte-order mark, as spreadsheet programs
    write it: a panel with one reads as its twin without."""

    @pytest.mark.parametrize("crlf", [False, True])
    @pytest.mark.parametrize("piece", [records_module._PIECE_CHARS, 1, 2])
    def test_plain_panel_reads_by_lines(self, monkeypatch, tmp_path, crlf, piece):
        plain = csv_bytes(*PLAIN)
        if crlf:
            plain = plain.replace(b"\n", b"\r\n")
        path = tmp_path / "panel.csv"
        path.write_bytes(BOM + plain)
        expected = parse_records(plain)
        monkeypatch.setattr(records_module, "_PIECE_CHARS", piece)
        monkeypatch.setattr(records_module.csv, "reader", _no_csv_reader)
        for panel in (parse_records(BOM + plain), load_records(path)):
            assert list(panel) == list(expected)
            assert panel.kind.tolist() == expected.kind.tolist()

    def test_quoted_panel_reads_by_csv_reader(self, tmp_path):
        # csv.reader rereads the text from its start, and the mark is
        # dropped again there
        plain = csv_bytes('"a",2013,true,false,SCI,2,G,4', *PLAIN[1:])
        path = tmp_path / "panel.csv"
        path.write_bytes(BOM + plain)
        expected = parse_records_by_row(plain)
        calls = []
        reader = records_module.csv.reader
        with patch.object(records_module.csv, "reader",
                          lambda *args: calls.append(args) or reader(*args)):
            for panel in (parse_records(BOM + plain), load_records(path)):
                assert list(panel) == expected
        assert len(calls) == 2

    def test_bad_byte_offset_counts_the_mark(self, monkeypatch, tmp_path):
        monkeypatch.setattr(records_module, "_PIECE_CHARS", 1000)
        data = bytearray(BOM + csv_bytes(*PLAIN[:2], *[
            f"s{i},2013,true,false,SCI,2,G,4" for i in range(500)]))
        for at in (len(BOM) + 1, len(data) - 10):
            bad = bytearray(data)
            bad[at] = 0xFF
            path = tmp_path / "panel.csv"
            path.unlink(missing_ok=True)
            path.write_bytes(bad)
            for load in (load_records, parse_records):
                with pytest.raises(UnicodeDecodeError) as exc:
                    load(path if load is load_records else bytes(bad))
                assert exc.value.start == at


# Text that csv.writer quotes, passes through as it is, or writes as nothing.
AWKWARD_TEXT = st.text(alphabet=st.sampled_from(list('ab,"\r\n é✓中')), max_size=5)


@st.composite
def awkward_record(draw):
    outcome = draw(st.sampled_from(list(Outcome)))
    outcome_year = draw(st.integers(1, 7))
    last_la_year = min(6, outcome_year + (outcome is Outcome.ENROLLED))
    return make_record(
        sid=draw(AWKWARD_TEXT),
        cohort_year=draw(st.sampled_from([2013, 2019])),
        aalana=draw(st.booleans()),
        first_gen=draw(st.booleans()),
        college=draw(AWKWARD_TEXT),
        la_year=draw(st.none() | st.integers(1, last_la_year)),
        outcome=outcome,
        outcome_year=outcome_year,
    )


@given(records=st.lists(awkward_record(), max_size=12))
@settings(max_examples=300)
def test_format_matches_per_record_writer(records):
    assert format_records(records) == format_records_by_record(records)


@given(records=st.lists(awkward_record(), max_size=12), cut=st.integers(0, 12))
@settings(max_examples=300)
def test_format_matches_per_record_writer_in_pieces_of_3_rows(records, cut):
    # piece boundaries fall inside a panel, next to quoted and plain ids; the
    # rows split into two panels, as synth writes its cohorts, give one text
    halves = [Panel.from_records(records[:cut]), Panel.from_records(records[cut:])]
    with patch.object(records_module, "_PIECE_ROWS", 3):
        assert format_records(records) == format_records_by_record(records)
        pieces = list(records_module._format_pieces(halves))
    assert "".join(pieces) == format_records_by_record(records)
    assert len(pieces) == 1 + sum(-(-len(half) // 3) for half in halves)


# Ids as csv.reader reads them: non-ASCII, and holding ',', '"' and line ends.
ID_TEXT = st.text(alphabet=st.sampled_from(list('ab,"\r\n é✓中\U0001f600')), max_size=6)


@given(ids=st.lists(ID_TEXT, max_size=20), cut=st.integers(0, 20), data=st.data())
@settings(max_examples=300)
def test_packed_ids_read_as_their_list(ids, cut, data):
    # iterated 3 at a time, so that iteration crosses its chunks' ends;
    # packed whole and as two columns joined
    joined = _Ids.concat([_Ids.pack(ids[:cut]), _Ids.pack(iter(ids[cut:]))])
    with patch.object(records_module, "_ITER_CHUNK", 3):
        for column in (_Ids.pack(ids), joined):
            assert len(column) == len(ids)
            assert list(column) == ids
            assert [column[i] for i in range(-len(ids), len(ids))] == ids + ids
            for i in (len(ids), -len(ids) - 1):
                with pytest.raises(IndexError):
                    column[i]
            for part in data.draw(st.lists(st.slices(len(ids)), max_size=4)):
                assert column[part] == ids[part]
            mask = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
            assert column[np.array(mask, dtype=bool)] == list(compress(ids, mask))


class TestPanel:
    def test_lone_panel_and_all_rows_filter_return_the_panel(self):
        panel = parse_records(csv_bytes(*PLAIN))
        assert Panel.concat(iter([panel])) is panel
        assert filter_subgroup(panel, SubgroupSpec()) is panel
        # "02013" and "2013" are two kinds of one content: a lone panel keeps
        # them, and only records keyed by content merge them
        twins = parse_records(csv_bytes(*PLAIN[:3], "e,02013,true,false,SCI,2,G,4"))
        assert twins.kind.tolist() == [0, 1, 0, 2]
        assert Panel.concat([twins]) is twins
        merged = Panel.from_records(list(twins))
        assert merged.kind.tolist() == [0, 1, 0, 0]
        assert list(merged.ids) == ["a", "b", "c", "e"]
        assert list(merged) == list(twins)

    def test_kinds_of_one_content_give_the_same_estimates(self):
        # cohorts written "2013" and "02013" in turn: twice the kinds of the
        # merged panel, and the same tallies, points and ensembles
        rows = [f"s{i},{'0' * (i % 2)}{2013 + i % 3},false,false,SCI,,{'GDE'[i % 7 % 3]},"
                f"{1 + i % 11 % 6}" for i in range(500)]
        twins = parse_records(csv_bytes(*rows))
        merged = Panel.from_records(list(twins))
        assert len(twins.kinds) == 2 * len(merged.kinds)
        estimators = [MarkovFullEstimator(2021), TraditionalEstimator(2013, 2021)]
        cfg = BootstrapConfig(seed=3, replicates=300)
        for a, b in zip(bootstrap_each(twins, estimators, cfg),
                        bootstrap_each(merged, estimators, cfg), strict=True):
            assert a.point == b.point
            np.testing.assert_array_equal(a.tally, b.tally)
            np.testing.assert_array_equal(a.ensemble, b.ensemble)
            np.testing.assert_array_equal(a.replicate_ids, b.replicate_ids)

    @pytest.mark.parametrize("cuts", [[2], [1, 3], [0, 0, 4], [2, 2, 4]])
    def test_concat_of_consecutive_parts_reads_as_the_whole(self, cuts):
        # each part read on its own, as one --input file of several; an
        # empty part holds no kinds
        rows = [*PLAIN, "e,2014,false,false,ENG,,D,2", "f,2013,true,false,SCI,2,G,4"]
        whole = parse_records(csv_bytes(*rows))
        bounds = [0, *cuts, len(rows)]
        parts = [parse_records(csv_bytes(*rows[a:b])) for a, b in zip(bounds, bounds[1:])]
        joined = Panel.concat(iter(parts))
        assert list(joined) == list(whole)
        assert list(joined.ids) == list(whole.ids)
        assert joined.kinds == [k for part in parts for k in part.kinds]

    def test_iteration_copies_each_kind(self):
        panel = parse_records(csv_bytes(
            "a,2013,true,false,SCI,2,G,4", "b,2013,false,false,SCI,,D,2",
            "c,2013,true,false,SCI,2,G,4", "d,2019,false,true,ENG,1,E,1",
            "e,2013,false,false,SCI,,D,2",
        ))
        rows = list(panel)
        assert rows == [replace(panel.kinds[k], student_id=sid)
                        for sid, k in zip(panel.ids, panel.kind.tolist())]
        assert [hash(r) for r in rows] == [hash(replace(r)) for r in rows]
        assert len(set(rows)) == 5
        with pytest.raises(FrozenInstanceError):
            rows[2].college = "ENG"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_first_iteration_pauses_the_collector(self, enabled):
        # building 5,000 rows takes the collector's youngest generation past
        # its threshold several times over; paused, it runs at most once,
        # once enabled again
        panel = parse_records(plain_rows(5_000))
        expected = [replace(panel.kinds[k], student_id=sid)
                    for sid, k in zip(panel.ids, panel.kind.tolist())]
        was = gc.isenabled()
        collections = []

        def count(phase, info):
            collections.append(phase)

        (gc.enable if enabled else gc.disable)()
        gc.callbacks.append(count)
        try:
            rows = list(panel)
            assert gc.isenabled() is enabled
        finally:
            gc.callbacks.remove(count)
            (gc.enable if was else gc.disable)()
        assert collections.count("start") <= enabled
        assert rows == expected


def states_of(transitions):
    return [(t.frm, t.to) for t in transitions]


class TestDeriveTransitions:
    def test_graduate_in_four_years(self):
        r = make_record(outcome=Outcome.GRADUATED, outcome_year=4)
        out = derive_transitions(r, 2030)
        assert states_of(out) == [
            (S.Y1, S.Y2),
            (S.Y2, S.Y3),
            (S.Y3, S.Y4),
            (S.Y4, S.GRADUATED),
        ]

    def test_first_year_still_unresolved(self):
        r = make_record(cohort_year=2020, outcome=Outcome.ENROLLED, outcome_year=1)
        assert derive_transitions(r, 2021) == []

    def test_enrolled_past_six_years_censors_to_dropout(self):
        r = make_record(outcome=Outcome.ENROLLED, outcome_year=7)
        out = derive_transitions(r, 2030)
        assert states_of(out) == [
            (S.Y1, S.Y2),
            (S.Y2, S.Y3),
            (S.Y3, S.Y4),
            (S.Y4, S.Y5),
            (S.Y5, S.Y6),
            (S.Y6, S.DROP_OUT),
        ]

    def test_graduation_after_six_years_counts_as_noncompletion(self):
        r = make_record(outcome=Outcome.GRADUATED, outcome_year=8)
        out = derive_transitions(r, 2030)
        assert out[-1].to is S.DROP_OUT
        assert out[-1].frm is S.Y6

    def test_absorption_beyond_horizon_is_censored(self):
        r = make_record(cohort_year=2018, outcome=Outcome.GRADUATED, outcome_year=5)
        out = derive_transitions(r, 2021)
        # three elapsed years: two persistence steps, year 3's exit unknown
        assert states_of(out) == [(S.Y1, S.Y2), (S.Y2, S.Y3)]

    def test_enrolled_contributes_observed_starts_only(self):
        r = make_record(cohort_year=2018, outcome=Outcome.ENROLLED, outcome_year=2)
        out = derive_transitions(r, 2021)
        # completed years 1 and 2; year 3's start was observed
        assert states_of(out) == [(S.Y1, S.Y2), (S.Y2, S.Y3)]

    def test_horizon_before_first_year_end(self):
        r = make_record(cohort_year=2021, outcome=Outcome.ENROLLED, outcome_year=1)
        assert derive_transitions(r, 2021) == []


record_strategy = st.builds(
    make_record,
    cohort_year=st.integers(2010, 2022),
    outcome=st.sampled_from(list(Outcome)),
    outcome_year=st.integers(1, 9),
    la_year=st.none(),
)


@given(r=record_strategy, horizon=st.integers(2010, 2035))
@settings(max_examples=300)
def test_transitions_form_contiguous_allowed_path(r, horizon):
    out = derive_transitions(r, horizon)
    assert Transition._fields == ("frm", "to")
    for t in out:
        assert type(t) is Transition
        assert t in ALLOWED_CELLS
    for a, b in zip(out, out[1:]):
        assert a.to is b.frm
    if out:
        assert out[0].frm is S.Y1


@given(r=record_strategy, horizon=st.integers(2010, 2035))
@settings(max_examples=300)
def test_later_horizon_only_adds_transitions(r, horizon):
    earlier = derive_transitions(r, horizon)
    later = derive_transitions(r, horizon + 1)
    assert earlier == later[: len(earlier)]


@given(
    outcome=st.sampled_from([Outcome.GRADUATED, Outcome.DROPPED_OUT]),
    outcome_year=st.integers(1, 6),
)
def test_absorbed_record_contributes_outcome_year_transitions(outcome, outcome_year):
    r = make_record(outcome=outcome, outcome_year=outcome_year)
    assert len(derive_transitions(r, 2030)) == outcome_year


class TestLaTruncate:
    def test_drops_years_before_exposure(self):
        r = make_record(la_year=2, outcome=Outcome.GRADUATED, outcome_year=4)
        out = la_truncate(r, derive_transitions(r, 2030))
        assert states_of(out) == [(S.Y2, S.Y3), (S.Y3, S.Y4), (S.Y4, S.GRADUATED)]

    def test_exposure_in_first_year_keeps_everything(self):
        r = make_record(la_year=1, outcome=Outcome.GRADUATED, outcome_year=4)
        full = derive_transitions(r, 2030)
        assert la_truncate(r, full) == full

    def test_missing_exposure(self):
        r = make_record(la_year=None)
        with pytest.raises(MissingExposure):
            la_truncate(r, derive_transitions(r, 2030))

    def test_keeps_the_steps_from_the_exposure_year_on(self):
        # Every valid record of cohorts 2010-2022 at every horizon 2010-2035.
        # A derived path starts in Y1 and is contiguous, so its step i starts
        # in year i + 1.
        checked = 0
        for cohort_year, outcome, outcome_year, la_year in product(
            range(2010, 2023), Outcome, range(1, 10), range(1, 7)
        ):
            try:
                r = make_record(cohort_year=cohort_year, outcome=outcome,
                                outcome_year=outcome_year, la_year=la_year)
            except ValueError:
                continue  # exposure after the observed trajectory
            for horizon in range(2010, 2036):
                s = derive_transitions(r, horizon)
                assert la_truncate(r, s) == s[la_year - 1:]
                checked += 1
        assert checked == 41236


class TestSubgroups:
    def setup_method(self):
        self.records = [
            make_record(sid="a", aalana=True, la_year=2),
            make_record(sid="b", aalana=True),
            make_record(sid="c", first_gen=True, college="ENG"),
            make_record(sid="d"),
        ]

    def test_identity_filter(self):
        assert list(filter_subgroup(self.records, SubgroupSpec())) == self.records

    def test_exposed_filter(self):
        out = filter_subgroup(self.records, SubgroupSpec(la_group=LaGroup.EXPOSED))
        assert [r.student_id for r in out] == ["a"]

    def test_unexposed_filter(self):
        out = filter_subgroup(self.records, SubgroupSpec(la_group=LaGroup.UNEXPOSED))
        assert [r.student_id for r in out] == ["b", "c", "d"]

    def test_conjunction(self):
        spec = SubgroupSpec(aalana_only=True, la_group=LaGroup.EXPOSED)
        out = filter_subgroup(self.records, spec)
        assert [r.student_id for r in out] == ["a"]

    def test_college_filter(self):
        out = filter_subgroup(self.records, SubgroupSpec(college="ENG"))
        assert [r.student_id for r in out] == ["c"]

    def test_filter_drops_kinds_without_rows(self):
        panel = parse_records(
            csv_bytes("a,2013,false,false,SCI,,G,4", "b,2014,true,false,SCI,,G,4")
        )
        only_2014 = filter_subgroup(panel, SubgroupSpec(aalana_only=True))
        with pytest.raises(EmptyCohort):
            TraditionalEstimator(2013, 2021).point(only_2014)

    def test_sequential_filters_equal_conjunction(self):
        first = filter_subgroup(self.records, SubgroupSpec(aalana_only=True))
        both = filter_subgroup(first, SubgroupSpec(la_group=LaGroup.EXPOSED))
        direct = filter_subgroup(
            self.records, SubgroupSpec(aalana_only=True, la_group=LaGroup.EXPOSED)
        )
        assert list(both) == list(direct)
