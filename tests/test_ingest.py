from dataclasses import FrozenInstanceError, replace

import pytest
from conftest import format_records_by_record, make_record, parse_records_by_row
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortchain import (
    AcademicState,
    LaGroup,
    Outcome,
    SubgroupSpec,
    TraditionalEstimator,
    derive_transitions,
    filter_subgroup,
    la_truncate,
    parse_records,
)
from cohortchain import records as records_module
from cohortchain.errors import (
    CohortChainError,
    DuplicateId,
    EmptyCohort,
    InvariantViolation,
    MissingExposure,
    ParseError,
)
from cohortchain.records import format_records
from cohortchain.states import ALLOWED_SET

S = AcademicState

HEADER = "student_id,cohort_year,aalana,first_gen,college,la_year,outcome,outcome_year"


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

    def test_bad_outcome(self):
        with pytest.raises(ParseError) as exc:
            parse_records(csv_bytes("s1,2013,true,false,SCI,,X,4"))
        assert exc.value.column == "outcome"

    def test_round_trip_through_formatter(self):
        records = parse_records(
            csv_bytes("s1,2013,true,false,SCI,2,G,4", "s2,2020,false,true,ENG,,E,1")
        )
        assert list(parse_records(format_records(records))) == list(records)

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
# takes any text). The few ids make repeats common; " 2013" is valid text of
# the same content as "2013", a second kind of equal content; la_year 2 or 5
# after an early outcome_year breaks the la_year invariant.
GOOD = [list("abcdefghij"), ["2013", " 2013", "2019"], ["true", "false"],
        ["true", "false"], ["SCI", "ENG"], ["", "", "1", "2"], ["G", "D", "E"],
        ["1", "2", "4", "7"]]
BAD = [[""], ["x", "2013.0"], ["yes", "True"], ["no", ""], [""], ["0", "5", "7", "one"],
       ["X", "g", ""], ["0", "", "4.5"]]


@st.composite
def mutated_csv(draw):
    lines = [HEADER]
    for _ in range(draw(st.integers(0, 8))):
        fields = [draw(st.sampled_from(values)) for values in GOOD]
        mutation = draw(st.sampled_from(["none"] * 12 + ["field"] * 3 + ["blank", "short", "long"]))
        if mutation == "field":
            column = draw(st.integers(0, len(BAD) - 1))
            fields[column] = draw(st.sampled_from(BAD[column]))
        elif mutation == "short":
            fields.pop()
        elif mutation == "long":
            fields.append("x")
        lines.append("" if mutation == "blank" else ",".join(fields))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _outcome(parse, data):
    """The rows parse gives, or its error's type and message."""
    try:
        return list(parse(data))
    except CohortChainError as exc:
        return type(exc), str(exc)


@given(data=mutated_csv())
@settings(max_examples=400)
def test_parse_matches_row_by_row_reference(data):
    assert _outcome(parse_records, data) == _outcome(parse_records_by_row, data)


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


class TestPanel:
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
        assert [t.year_index for t in out] == [1, 2, 3, 4]

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
    for t in out:
        assert (int(t.frm), int(t.to)) in ALLOWED_SET
    for a, b in zip(out, out[1:]):
        assert a.to is b.frm
        assert b.year_index == a.year_index + 1
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
