from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    chain_09,
    encode_by_student,
    format_records_by_record,
    generate_panel_with_log,
    grad_in_year,
    matrix_from_rows,
    matrix_power_sygr,
    path_enumeration_sygr,
    per_record_grid,
    students,
)

from cohortchain import (
    GeneratorSpec,
    Outcome,
    Panel,
    brute_force_sygr,
    derive_transitions,
    generate_panel,
    random_transition_matrix,
)
from cohortchain import records as records_module
from cohortchain.errors import SpecFileError
from cohortchain.records import format_records
from cohortchain.synth import format_generator_spec, parse_generator_spec


class TestBruteForce:
    def test_immediate_graduation(self):
        assert brute_force_sygr(grad_in_year(1)) == 1.0

    def test_immediate_dropout(self):
        rows = {k: {"D": 1.0} for k in range(1, 7)}
        assert brute_force_sygr(matrix_from_rows(rows)) == 0.0

    def test_two_path_hand_sum(self):
        p = matrix_from_rows(
            {1: {2: 0.5, "G": 0.25, "D": 0.25}, 2: {"G": 1.0},
             3: {"D": 1.0}, 4: {"D": 1.0}, 5: {"D": 1.0}, 6: {"D": 1.0}}
        )
        assert brute_force_sygr(p) == 0.75

    def test_equals_matrix_power_readout(self, rng):
        for _ in range(300):
            p = random_transition_matrix(rng)
            assert abs(brute_force_sygr(p) - matrix_power_sygr(p.p)) <= 1e-12

    def test_equals_independent_path_enumeration(self, rng):
        for _ in range(100):
            p = random_transition_matrix(rng)
            assert brute_force_sygr(p) == pytest.approx(
                path_enumeration_sygr(p), abs=1e-15
            )


def basic_spec(**overrides):
    kwargs = dict(
        true_matrix=grad_in_year(4),
        cohort_sizes={2013: 50},
        horizon_year=2021,
        seed=5,
    )
    kwargs.update(overrides)
    return GeneratorSpec(**kwargs)


class TestGeneratePanel:
    def test_deterministic_chain_all_graduate_year_four(self):
        records = generate_panel(basic_spec())
        assert all(r.outcome is Outcome.GRADUATED for r in records)
        assert all(r.outcome_year == 4 for r in records)

    def test_maximal_censoring(self):
        records = generate_panel(basic_spec(horizon_year=2014))
        assert all(r.outcome is Outcome.ENROLLED for r in records)
        assert all(r.outcome_year == 1 for r in records)
        # nothing is resolvable after one elapsed year of a no-absorption
        # first year: the derived counts are all zero
        counts = per_record_grid(records, 2014)
        assert counts.sum() == 0

    def test_seed_determinism(self):
        spec = basic_spec(
            true_matrix=chain_09(), la_rate=0.4, aalana_rate=0.2, cohort_sizes={2015: 80}
        )
        assert list(generate_panel(spec)) == list(generate_panel(spec))

    def test_large_panel_matches_truth(self, rng):
        true = chain_09()
        spec = basic_spec(true_matrix=true, cohort_sizes={2013: 100_000})
        records = generate_panel(spec)
        frac = sum(
            r.outcome is Outcome.GRADUATED and r.outcome_year <= 6 for r in records
        ) / len(records)
        assert frac == pytest.approx(brute_force_sygr(true), abs=0.01)

    def test_empirical_transition_frequencies(self, rng):
        true = random_transition_matrix(rng, alpha=(8.0, 1.0, 2.0))
        spec = basic_spec(true_matrix=true, cohort_sizes={2013: 50_000})
        records = generate_panel(spec)
        counts = per_record_grid(records, 2021)
        for i in range(6):
            total = counts[i].sum()
            if total < 1000:
                continue
            np.testing.assert_allclose(counts[i] / total, true.p[i], atol=0.02)

    def test_slow_finishers_marked_enrolled_past_year_six(self):
        spec = basic_spec(
            true_matrix=grad_in_year(6), slow_finisher_rate=1.0, cohort_sizes={2013: 20}
        )
        records = generate_panel(spec)
        assert all(r.outcome is Outcome.ENROLLED for r in records)
        assert all(r.outcome_year == 7 for r in records)
        counts = per_record_grid(records, 2021)
        assert counts[5, 6] == 20  # year six censored to drop-out

    def test_effect_injection_changes_exposed_walks(self):
        drop_all = matrix_from_rows({k: {"D": 1.0} for k in range(1, 7)})
        spec = basic_spec(
            true_matrix=drop_all,
            effect_matrix=grad_in_year(4),
            la_rate=0.5,
            la_year_dist={1: 1.0},
            cohort_sizes={2013: 200},
        )
        records = generate_panel(spec)
        exposed = [r for r in records if r.la_year is not None]
        unexposed = [r for r in records if r.la_year is None]
        assert exposed and unexposed
        assert all(r.outcome is Outcome.GRADUATED for r in exposed)
        assert all(r.outcome is Outcome.DROPPED_OUT for r in unexposed)


class TestRoundTrip:
    def test_deterministic_panel_counts(self):
        records = generate_panel(basic_spec(cohort_sizes={2013: 17}))
        counts = per_record_grid(records, 2021)
        assert counts[0, 1] == 17
        assert counts[1, 2] == 17
        assert counts[2, 3] == 17
        assert counts[3, 7] == 17
        assert counts.sum() == 4 * 17

    def test_log_matches_derived_transitions(self, rng):
        for trial in range(10):
            spec = basic_spec(
                true_matrix=random_transition_matrix(rng),
                cohort_sizes={2014: 60, 2018: 40},
                horizon_year=int(rng.integers(2019, 2027)),
                seed=trial,
                la_rate=0.3,
                slow_finisher_rate=0.2,
            )
            records, log = generate_panel_with_log(spec)
            derived = [
                (r.student_id, t) for r in records for t in derive_transitions(r, spec.horizon_year)
            ]
            assert Counter(derived) == Counter(log)


def random_spec(rng, seed):
    """A small spec drawn over every generator option: 1-6 cohorts, horizons
    that cut cohorts short, LA exposure with and without a year
    distribution, an effect matrix, slow finishers and 1-3 colleges."""
    years = sorted(int(y) for y in rng.choice(np.arange(2008, 2020), rng.integers(1, 7),
                                              replace=False))
    alpha = (float(rng.uniform(1.0, 12.0)), 1.0, 1.0)
    kwargs = dict(
        true_matrix=random_transition_matrix(rng, alpha),
        cohort_sizes={y: int(rng.integers(1, 60)) for y in years},
        horizon_year=years[-1] + int(rng.integers(1, 9)),
        seed=seed,
        aalana_rate=float(rng.choice([0.0, rng.random(), 1.0])),
        first_gen_rate=float(rng.choice([0.0, rng.random()])),
        la_rate=float(rng.choice([0.0, rng.random(), 1.0])),
        slow_finisher_rate=float(rng.choice([0.0, rng.random()])),
    )
    if rng.random() < 0.5:
        la_years = rng.choice(np.arange(1, 7), rng.integers(1, 7), replace=False)
        kwargs["la_year_dist"] = dict(zip(la_years.tolist(),
                                          rng.dirichlet(np.ones(len(la_years))).tolist()))
    if rng.random() < 0.5:
        kwargs["effect_matrix"] = random_transition_matrix(rng, alpha)
    names = rng.choice(["SCI", "ART", "ENG"], rng.integers(1, 4), replace=False).tolist()
    kwargs["colleges"] = dict(zip(names, rng.dirichlet(np.ones(len(names))).tolist()))
    return GeneratorSpec(**kwargs)


class TestByKind:
    """generate_panel encodes each cohort column-wise and builds one record
    per kind; the per-student encoder and per-record writer are the
    references."""

    def test_matches_per_student_reference(self):
        rng = np.random.default_rng(1009)
        for seed in range(200):
            spec = random_spec(rng, seed)
            expected = [encode_by_student(spec, *student) for student in students(spec)]
            records = generate_panel(spec)
            assert list(records) == expected, spec
            assert format_records(records) == format_records_by_record(expected), spec

    def test_each_kind_validated_once(self, monkeypatch):
        calls = []
        check = records_module._invariant_failure
        monkeypatch.setattr(records_module, "_invariant_failure",
                            lambda r: calls.append(r) or check(r))
        spec = basic_spec(true_matrix=chain_09(), cohort_sizes={2013: 400, 2016: 300},
                          la_rate=0.4, aalana_rate=0.3, first_gen_rate=0.5)
        panel = generate_panel(spec)
        assert len(panel) == 700
        assert 1 < len(panel.kinds) < 100
        assert len(calls) == len(panel.kinds)
        assert len(list(panel)) == 700
        assert len(calls) == len(panel.kinds)

    def test_rows_built_once(self):
        """A panel builds its row records on the first iteration and keeps
        them: a later iteration yields the very same objects."""
        panel = generate_panel(basic_spec(true_matrix=chain_09(), la_rate=0.4))
        assert isinstance(panel, Panel)
        first = list(panel)
        assert len(first) == len(panel) == 50
        assert all(a is b for a, b in zip(first, panel, strict=True))


SPEC_TEXT = """\
seed = 9
horizon_year = 2020
cohort_sizes = 2013:30 2014:20
la_rate = 0.25
la_year_dist = 1:0.5 2:0.5
matrix =
0 0.9 0 0 0 0 0.1 0
0 0 0.9 0 0 0 0.1 0
0 0 0 0.9 0 0 0.1 0
0 0 0 0 0 0 0 1
0 0 0 0 0 0 1 0
0 0 0 0 0 0 1 0
0 0 0 0 0 0 1 0
0 0 0 0 0 0 0 1
"""

# the `matrix =` line and its eight rows
MATRIX_BLOCK = SPEC_TEXT[SPEC_TEXT.index("matrix =") :]


class TestSpecFile:
    def test_parse(self):
        spec = parse_generator_spec(SPEC_TEXT)
        assert spec.seed == 9
        assert spec.cohort_sizes == {2013: 30, 2014: 20}
        assert spec.la_year_dist == {1: 0.5, 2: 0.5}
        assert spec.true_matrix[0, 1] == 0.9
        # blank and `#` lines are skipped everywhere, a matrix block included
        commented = "# a generator spec\n\n" + SPEC_TEXT.replace(
            "matrix =\n", "matrix =\n# from Y1\n\n"
        ).replace("0 0 0 0 1 0\n", "0 0 0 0 1 0\n  # Y6 and the absorbing rows\n\n", 1)
        assert commented.count("#") == 3
        assert parse_generator_spec(commented) == spec

    def test_format_round_trip(self, rng):
        spec = GeneratorSpec(
            true_matrix=random_transition_matrix(rng),
            effect_matrix=random_transition_matrix(rng),
            cohort_sizes={2013: 10, 2016: 5},
            horizon_year=2021,
            seed=3,
            la_rate=0.5,
            la_year_dist={1: 0.25, 3: 0.75},
        )
        parsed = parse_generator_spec(format_generator_spec(spec))
        assert parsed == spec
        # a TransitionMatrix is not equal to a None effect matrix
        assert parsed != replace(spec, effect_matrix=None)

    def test_missing_matrix(self):
        with pytest.raises(SpecFileError, match="matrix"):
            parse_generator_spec("seed = 1\nhorizon_year = 2020\ncohort_sizes = 2013:5\n")

    def test_short_matrix_block(self):
        text = SPEC_TEXT.rsplit("\n", 2)[0] + "\n"
        with pytest.raises(SpecFileError, match="64 numbers"):
            parse_generator_spec(text)

    def test_unknown_key(self):
        with pytest.raises(SpecFileError, match="unknown key"):
            parse_generator_spec(SPEC_TEXT + "bogus = 1\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(SpecFileError):
            parse_generator_spec(SPEC_TEXT.replace("0.9 0 0 0 0 0.1", "x 0 0 0 0 0.1"))

    def test_invalid_matrix_rejected(self):
        with pytest.raises(SpecFileError):
            parse_generator_spec(SPEC_TEXT.replace("0 0.9 0 0 0 0 0.1 0", "0 0.9 0 0 0 0 0.2 0", 1))

    @pytest.mark.parametrize("text, line, reason", [
        (SPEC_TEXT.replace("2013:30 2014:20", "2013:30 2013:20"), 3, "key 2013 given twice"),
        (SPEC_TEXT.replace("1:0.5 2:0.5", "1:0.5 01:0.5"), 5, "key 1 given twice"),
        (SPEC_TEXT + "colleges = A:0.5 A:0.5\n", 15, "key A given twice"),
        (SPEC_TEXT + "seed = 7\n", 15, "seed repeats line 1"),
        (SPEC_TEXT + MATRIX_BLOCK, 15, "matrix repeats line 6"),
        (SPEC_TEXT + 2 * MATRIX_BLOCK.replace("matrix", "effect_matrix"), 24,
         "effect_matrix repeats line 15"),
    ], ids=["cohort", "la_year", "college", "seed", "matrix", "effect_matrix"])
    def test_repeat_names_its_line(self, text, line, reason):
        with pytest.raises(SpecFileError) as exc:
            parse_generator_spec(text)
        assert (exc.value.line, exc.value.reason) == (line, reason)


class TestGeneratorSpecValidation:
    def test_horizon_before_first_year(self):
        with pytest.raises(ValueError):
            basic_spec(horizon_year=2013)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            basic_spec(la_rate=1.5)

    def test_bad_la_year_dist(self):
        for year in (0, 7):
            with pytest.raises(ValueError, match="keys must be years of study 1..6"):
                basic_spec(la_year_dist={year: 1.0})

    @pytest.mark.parametrize("overrides", [
        {"la_year_dist": {1: 1.5, 2: -0.5}},
        {"la_year_dist": {1: float("nan")}},
        {"colleges": {"A": 1.5, "B": -0.5}},
    ])
    def test_probabilities_must_be_non_negative(self, overrides):
        with pytest.raises(ValueError, match="must be non-negative"):
            basic_spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"la_year_dist": {1: 0.6, 2: 0.4 + 1e-6}},
        {"colleges": {"A": 0.5, "B": 0.5 - 1e-6}},
    ])
    def test_probabilities_must_sum_to_one(self, overrides):
        # within 1e-9: a share off by a millionth is a typo, not rounding
        with pytest.raises(ValueError, match="must sum to 1"):
            basic_spec(**overrides)
