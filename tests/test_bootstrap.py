import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import chain_09, make_record, per_record_grid, per_row_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohortchain
from cohortchain import (
    BootstrapConfig,
    GeneratorSpec,
    LaGroup,
    MarkovFullEstimator,
    MarkovReducedEstimator,
    Outcome,
    Panel,
    SubgroupSpec,
    TraditionalEstimator,
    bootstrap,
    bootstrap_each,
    filter_subgroup,
    generate_panel,
    kde,
    percentile_ci,
    persistence_rates,
)
from cohortchain.bootstrap import (
    _CHUNK_DRAWS,
    _KDE_BLOCK_ELEMENTS,
    _percentiles,
    _seed_words,
    _kind_counts,
    resample_indices,
    silverman_bandwidth,
)
from cohortchain.errors import (
    DegenerateEnsemble,
    EmptyCohort,
    EnsembleTooSmall,
    EstimationError,
    TooManyFailedReplicates,
)


class TestPercentileCi:
    def test_odd_length_median(self):
        ensemble = [0.1, 0.2, 0.3, 0.4, 0.5]
        _, median, _ = percentile_ci(ensemble, 0.95)
        assert median == 0.3

    def test_interpolated_midpoint(self):
        _, median, _ = percentile_ci([0.2, 0.4], 0.95)
        assert median == pytest.approx(0.3, abs=1e-15)

    def test_thousand_point_interpolation(self):
        # hand evaluation of the closest-rank formula on 0.001..1.000:
        # h = 999 * 0.025 = 24.975 so lo = x[24] + 0.975 * 0.001
        ensemble = [(i + 1) / 1000 for i in range(1000)]
        lo, _, hi = percentile_ci(ensemble, 0.95)
        assert lo == pytest.approx(0.025975, abs=1e-12)
        assert hi == pytest.approx(0.975025, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(EnsembleTooSmall):
            percentile_ci([0.5], 0.95)

    def test_level_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"level must be in \(0, 1\), got 1.5"):
            percentile_ci([0.2, 0.4, 0.6], 1.5)

    @given(
        values=st.lists(st.floats(0, 1), min_size=2, max_size=40),
        narrow=st.floats(0.05, 0.5),
        widen=st.floats(0.0, 0.49),
    )
    @settings(max_examples=200)
    def test_widening_level_never_shrinks_interval(self, values, narrow, widen):
        wide = min(narrow + widen, 0.999)
        lo_n, _, hi_n = percentile_ci(values, narrow)
        lo_w, _, hi_w = percentile_ci(values, wide)
        assert lo_w <= lo_n + 1e-12
        assert hi_w >= hi_n - 1e-12

    @given(
        values=st.lists(st.floats(0, 1) | st.floats(), min_size=1, max_size=40),
        percents=st.lists(st.floats(0, 100), min_size=1, max_size=4),
    )
    @example(values=[1.0, float("inf")], percents=[0, 50, 100])
    @example(values=[0.5, float("nan"), 0.2], percents=[50])
    @settings(max_examples=300)
    def test_percentiles_equal_numpy(self, values, percents):
        # bit for bit where not NaN; an inf, or values far apart, make both
        # warn alike
        values = np.array(values)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.percentile(values, percents)
            got = np.array(_percentiles(values, percents))
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got[~nan].view(np.uint64), expected[~nan].view(np.uint64))

    @given(values=st.lists(st.floats(0, 1), min_size=2, max_size=30), seed=st.integers(0, 99))
    def test_permutation_invariance(self, values, seed):
        shuffled = list(values)
        np.random.default_rng(seed).shuffle(shuffled)
        assert percentile_ci(values, 0.9) == percentile_ci(shuffled, 0.9)


def reference_bootstrap(records, estimator, cfg):
    """One replicate at a time: the estimate of each resample's records,
    re-derived from its records; (ensemble, replicate ids, failures)."""
    values, ids = [], []
    for b in range(1, cfg.replicates + 1):
        idx = resample_indices(cfg.seed, b, len(records))
        try:
            values.append(estimator.point([records[i] for i in idx]))
        except EstimationError:
            continue
        ids.append(b)
    return np.array(values), np.array(ids), cfg.replicates - len(ids)


def identical_graduates(n=30):
    return [
        make_record(sid=f"s{i}", outcome=Outcome.GRADUATED, outcome_year=4)
        for i in range(n)
    ]


class FailingFirst(TraditionalEstimator):
    """TraditionalEstimator(2013, 2021) that fails the first `fail`
    replicates of a run of at most one block; the first call of rates is
    the fit on the original records."""

    def __init__(self, fail):
        super().__init__(2013, 2021)
        self.fail, self.fitted = fail, False

    def rates(self, tallies):
        values, ok = super().rates(tallies)
        if self.fitted:
            ok[:self.fail] = False
        self.fitted = True
        return values, ok


class TestBootstrap:
    def test_zero_variance_population(self):
        cfg = BootstrapConfig(seed=1, replicates=100)
        summary = bootstrap(identical_graduates(), TraditionalEstimator(2013, 2021), cfg)
        assert (summary.ensemble == 1.0).all()
        assert summary.width == 0.0
        assert summary.n_failed == 0

    def test_determinism(self):
        records = identical_graduates(10) + [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(10)
        ]
        cfg = BootstrapConfig(seed=42, replicates=200)
        a = bootstrap(records, TraditionalEstimator(2013, 2021), cfg)
        b = bootstrap(records, TraditionalEstimator(2013, 2021), cfg)
        np.testing.assert_array_equal(a.ensemble, b.ensemble)
        np.testing.assert_array_equal(a.replicate_ids, b.replicate_ids)
        assert (a.lo, a.median, a.hi) == (b.lo, b.median, b.hi)

    def test_seed_changes_ensemble(self):
        records = identical_graduates(10) + [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(10)
        ]
        a = bootstrap(records, TraditionalEstimator(2013, 2021), BootstrapConfig(seed=1))
        b = bootstrap(records, TraditionalEstimator(2013, 2021), BootstrapConfig(seed=2))
        assert not np.array_equal(a.ensemble, b.ensemble)

    def test_summary_ordering_invariant(self):
        records = identical_graduates(15) + [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(5)
        ]
        s = bootstrap(records, TraditionalEstimator(2013, 2021), BootstrapConfig(seed=3))
        assert 0.0 <= s.lo <= s.median <= s.hi <= 1.0
        assert s.width == s.hi - s.lo

    def test_estimator_failing_on_original(self):
        with pytest.raises(EmptyCohort, match="1999"):
            bootstrap(
                identical_graduates(),
                TraditionalEstimator(1999, 2021),
                BootstrapConfig(seed=1),
            )

    def test_some_failed_replicates_match_reference_loop(self):
        # the 2014 cohort is the only source of year-2 outcomes: a resample
        # losing all three of its records fails, about 4% of replicates
        # (the chain only while it keeps a partial cohort's Y1 -> Y2 step)
        records = [
            make_record(sid=f"g{i}", outcome=Outcome.GRADUATED, outcome_year=1)
            for i in range(10)
        ]
        records += [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(5)
        ]
        records += [
            make_record(sid=f"y{i}", cohort_year=2014, outcome=Outcome.GRADUATED,
                        outcome_year=2)
            for i in range(3)
        ]
        records += [
            make_record(sid=f"p{i}", cohort_year=2019, outcome=Outcome.ENROLLED, outcome_year=2)
            for i in range(2)
        ]
        cfg = BootstrapConfig(seed=0, replicates=600)
        for estimator in (MarkovFullEstimator(2021), TraditionalEstimator(2014, 2021)):
            s = bootstrap(records, estimator, cfg)
            ensemble, ids, failed = reference_bootstrap(records, estimator, cfg)
            assert 0 < s.n_failed <= 0.1 * cfg.replicates
            assert s.n_failed == failed
            assert (s.replicate_ids == ids).all()
            assert (s.ensemble == ensemble).all()

    def test_too_many_failed_replicates(self):
        # resamples that drop the only source of year-2 outcomes leave a
        # reachable state with no data; with two records that happens in
        # roughly a quarter of replicates, far above the 10% ceiling
        records = [
            make_record(sid="a", cohort_year=2019, outcome=Outcome.ENROLLED, outcome_year=2),
            make_record(sid="b", cohort_year=2013, outcome=Outcome.GRADUATED, outcome_year=2),
        ]
        with pytest.raises(TooManyFailedReplicates):
            bootstrap(
                records,
                MarkovFullEstimator(2021),
                BootstrapConfig(seed=7, replicates=200),
            )

    def test_failure_ceiling_is_ten_percent(self):
        # B = 100: 10 failed replicates are summarised, 11 raise
        cfg = BootstrapConfig(seed=1, replicates=100)
        (s,) = bootstrap_each(identical_graduates(), [FailingFirst(10)], cfg)
        assert s.n_failed == 10
        np.testing.assert_array_equal(s.replicate_ids, np.arange(11, 101))
        with pytest.raises(TooManyFailedReplicates):
            bootstrap_each(identical_graduates(), [FailingFirst(11)], cfg)

    @pytest.mark.parametrize("n", [1, 20, 1500, 4056])
    @pytest.mark.parametrize("replicates", [2, 127, 128, 129, 300])
    def test_block_seeding_matches_resample_indices(self, replicates, n, monkeypatch):
        # blocks of REPLICATE_BLOCK = 128: one short block, one exact, one
        # spilling by a replicate, and a partial third block. 1500 records
        # are drawn 10 replicates a chunk, so chunks end inside each block;
        # with 4056 records, replicates 103 and 272 reject a word
        records = (identical_graduates(n // 2) + [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1 + i % 5)
            for i in range(n - n // 2)
        ])[:n]
        estimator = MarkovFullEstimator(2021)
        tallies = []
        rates = estimator.rates
        monkeypatch.setattr(
            estimator, "rates", lambda block: (tallies.append(block), rates(block))[1]
        )
        cfg = BootstrapConfig(seed=2**40 + 3, replicates=replicates)
        s = bootstrap(records, estimator, cfg)

        panel = Panel.from_records(records)
        n_kinds = len(panel.kinds)
        table = estimator.table(panel.kinds)
        original, *blocks = tallies
        np.testing.assert_array_equal(
            original, [np.bincount(panel.kind, minlength=n_kinds) @ table]
        )
        expected = [
            np.bincount(panel.kind[resample_indices(cfg.seed, b, n)], minlength=n_kinds) @ table
            for b in range(1, replicates + 1)
        ]
        np.testing.assert_array_equal(np.concatenate(blocks), expected)
        ensemble, ids, failed = reference_bootstrap(records, estimator, cfg)
        assert s.n_failed == failed == 0
        np.testing.assert_array_equal(s.replicate_ids, ids)
        np.testing.assert_array_equal(s.ensemble, ensemble)


def reference_kind_counts(kind, n_kinds, seed, ids):
    return np.array([
        np.bincount(kind[resample_indices(seed, b, len(kind))], minlength=n_kinds)
        for b in ids
    ])


def block_kind_counts(kind, n_kinds, seed, ids):
    return np.concatenate(list(_kind_counts(kind, n_kinds, _seed_words(seed, ids))))


def rejects_a_word(seed, b, n):
    """Whether integers(0, n, size=n) of replicate b rejects a 32-bit word,
    seen as its generator ending elsewhere than after ceil(n / 2) raw words."""
    drawn = np.random.default_rng([seed, b])
    drawn.integers(0, n, size=n)
    raw = np.random.default_rng([seed, b])
    raw.bit_generator.random_raw((n + 1) // 2)
    state = drawn.bit_generator.state
    return (state["state"], state["has_uint32"]) != (raw.bit_generator.state["state"], n % 2)


def rejected_draws(seed, b, n):
    """Positions in replicate b's stream of 32-bit draws of the draws that
    integers(0, n, size=n) rejects: u is rejected when u * n mod 2**32 is
    below (2**32 - n) % n."""
    raw = np.random.default_rng([seed, b]).bit_generator.random_raw(n // 2 + 32)
    u = raw.astype("<u8").view("<u4").astype(np.uint64)
    rejected = np.flatnonzero(u * np.uint64(n) % 2**32 < (2**32 - n) % n)
    return [int(i) for k, i in enumerate(rejected) if i < n + k]


class TestTypeCounts:
    """The block draw and the per-replicate draw, held to resample_indices.
    Every record is its own kind unless said otherwise, so a row's counts
    are its whole resample as a multiset."""

    @pytest.mark.parametrize(
        "n, ids, rejecting",
        [
            (2000, range(600, 700), [673]),
            (2039, range(150, 170), [159]),
            (4056, range(1, 301), [103, 272]),
            (3965, range(60, 76), [68]),
        ],
    )
    def test_rejected_words_match_resample_indices(self, n, ids, rejecting):
        # a replicate whose draw rejects a word is redrawn; n is even (2000,
        # 4056) or odd (2039, 3965), and within the block draw's limit
        assert n <= _CHUNK_DRAWS // 2
        assert [b for b in ids if rejects_a_word(7, b, n)] == rejecting
        kind = np.arange(n)
        np.testing.assert_array_equal(
            block_kind_counts(kind, n, 7, ids),
            reference_kind_counts(kind, n, 7, ids),
        )

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 1500, 4096, 4097, 8192, 8193, _CHUNK_DRAWS, _CHUNK_DRAWS + 1]
    )
    def test_sizes_match_resample_indices(self, n):
        # 300 replicates: three blocks, the last partial, each of one or
        # more chunks; above _CHUNK_DRAWS / 2 records no chunk holds two
        # replicates, and each is drawn on its own
        kind = np.arange(n)
        ids = np.arange(1, 301)
        np.testing.assert_array_equal(
            block_kind_counts(kind, n, 2**40 + 3, ids),
            reference_kind_counts(kind, n, 2**40 + 3, ids),
        )

    @pytest.mark.parametrize(
        "n, ids, rejected",
        [
            # odd n, in the block draw: the rejection makes numpy's redraw
            # take the spare high half of its last word
            (4_097, [2313, 2314, 2315], {2314: [1583]}),
            # even n, above the block draw's limit, as analysis_la's panel:
            # numpy's draw of replicate 136 takes one more word for its
            # rejection, and that word's high half is spare
            (10_002, [135, 136, 137], {136: [2314]}),
            # odd n and no rejection: the last word's high half is spare
            (65_537, [1, 2], {}),
            # every replicate rejects a word, replicate 30 within its last
            # 1,300 draws and replicate 31 three times
            (100_000, [29, 30, 31], {29: [65_140], 30: [98_733], 31: [33_305, 38_664, 90_728]}),
        ],
    )
    def test_numpy_draw_matches_resample_indices(self, n, ids, rejected):
        # a replicate that rejects a word, and above the block draw's limit
        # every replicate, is drawn by numpy's Generator.integers; the
        # rejections it meets are numpy's own
        assert {b: r for b in ids if (r := rejected_draws(7, b, n))} == rejected
        kind = np.arange(n)
        np.testing.assert_array_equal(
            block_kind_counts(kind, n, 7, ids),
            reference_kind_counts(kind, n, 7, ids),
        )

    @pytest.mark.parametrize(
        "n, ids", [(2000, range(600, 700)), (4_097, [2313, 2314]), (_CHUNK_DRAWS + 1, [1, 2])]
    )
    def test_draw_leaves_kind_unchanged(self, n, ids):
        # the per-replicate draw takes the kinds into its own index array:
        # above the block draw's limit, and for the block draw's replicates
        # 673 of 2,000 and 2314 of 4,097, which reject a word (see above)
        kind = np.arange(n) * 7 % 40
        block_kind_counts(kind, 40, 7, ids)
        np.testing.assert_array_equal(kind, np.arange(n) * 7 % 40)

    @given(
        n=st.integers(1, 5000),
        n_kinds=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**32 - 40),
        count=st.integers(1, 39),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_resample_indices(self, n, n_kinds, seed, first, count):
        kind = np.arange(n) * 7 % n_kinds
        ids = np.arange(first, first + count)
        np.testing.assert_array_equal(
            block_kind_counts(kind, n_kinds, seed, ids),
            reference_kind_counts(kind, n_kinds, seed, ids),
        )


def _no_draws(monkeypatch):
    def fail(*args):
        raise AssertionError("drew replicates")

    monkeypatch.setattr(sys.modules["cohortchain.bootstrap"], "_seed_words", fail)


class TestBootstrapEach:
    def test_shared_draw_matches_reference_loop_per_estimator(self):
        # the full chain fails without the 2014 cohort but with a 2019
        # partial record, the traditional ratio without the 2014 cohort, the
        # reduced chain without the 2015 cohort: three failure sets, each
        # about 4% of the replicates, read off one draw
        records = [
            make_record(sid=f"g{i}", outcome=Outcome.GRADUATED, outcome_year=1)
            for i in range(10)
        ]
        records += [
            make_record(sid=f"d{i}", outcome=Outcome.DROPPED_OUT, outcome_year=1)
            for i in range(5)
        ]
        records += [
            make_record(sid=f"y{i}", cohort_year=2014, outcome=Outcome.GRADUATED,
                        outcome_year=2)
            for i in range(3)
        ]
        records += [
            make_record(sid=f"c{i}", cohort_year=2015, outcome=Outcome.DROPPED_OUT,
                        outcome_year=1 + i)
            for i in range(3)
        ]
        records += [
            make_record(sid=f"p{i}", cohort_year=2019, outcome=Outcome.ENROLLED, outcome_year=2)
            for i in range(2)
        ]
        estimators = [
            MarkovFullEstimator(2021),
            TraditionalEstimator(2014, 2021),
            MarkovReducedEstimator(2015, 2021),
        ]
        cfg = BootstrapConfig(seed=5, replicates=600)
        summaries = bootstrap_each(records, estimators, cfg)
        assert len(summaries) == 3
        failed_ids = []
        for estimator, s in zip(estimators, summaries):
            ensemble, ids, failed = reference_bootstrap(records, estimator, cfg)
            assert 0 < s.n_failed == failed <= 0.1 * cfg.replicates
            np.testing.assert_array_equal(s.replicate_ids, ids)
            np.testing.assert_array_equal(s.ensemble, ensemble)
            assert s.point == estimator.point(records)
            failed_ids.append(set(range(1, cfg.replicates + 1)) - set(ids.tolist()))
        assert len({frozenset(f) for f in failed_ids}) == 3

    def test_summary_keeps_the_per_record_tally(self):
        # partial cohorts 2015-2019 and LA exposure from years 1-3; chain_09
        # never reaches Y5, so persistence has rows with and without data
        spec = GeneratorSpec(
            true_matrix=chain_09(),
            cohort_sizes={2013: 120, 2015: 80, 2017: 80, 2019: 60},
            horizon_year=2021,
            seed=21,
            la_rate=0.5,
            la_year_dist={1: 0.5, 2: 0.3, 3: 0.2},
        )
        records = generate_panel(spec)
        exposed = list(filter_subgroup(records, SubgroupSpec(la_group=LaGroup.EXPOSED)))
        cfg = BootstrapConfig(seed=4, replicates=50)
        estimators = [TraditionalEstimator(2013, 2021), MarkovReducedEstimator(2013, 2021),
                      MarkovFullEstimator(2021)]
        s_trad, s_red, s_full = bootstrap_each(records, estimators, cfg)
        s_la = bootstrap(exposed, MarkovFullEstimator(2021, from_la_year=True), cfg)

        starters = [r for r in records if r.cohort_year == 2013]
        graduates = [r for r in starters
                     if r.outcome is Outcome.GRADUATED and r.outcome_year <= 6]
        np.testing.assert_array_equal(s_trad.tally, [len(starters), len(graduates)])
        grids = [
            (s_red, per_record_grid(records, 2021, cohort_year=2013)),
            (s_full, per_record_grid(records, 2021)),
            (s_la, per_record_grid(exposed, 2021, from_la_year=True)),
        ]
        for s, grid in grids:
            np.testing.assert_array_equal(s.tally, grid.ravel())
            p = per_row_matrix(grid)
            expected = {k: p[k - 1, k] if grid[k - 1].any() else None for k in range(1, 6)}
            assert persistence_rates(s.tally) == expected
            assert [v is None for v in expected.values()] == [False] * 4 + [True]

    def test_empty_list_draws_nothing(self, monkeypatch):
        _no_draws(monkeypatch)
        assert bootstrap_each(identical_graduates(), [], BootstrapConfig(seed=1)) == []

    def test_failure_on_original_raised_before_any_draw(self, monkeypatch):
        _no_draws(monkeypatch)
        estimators = [MarkovFullEstimator(2021), TraditionalEstimator(1999, 2021)]
        with pytest.raises(EmptyCohort, match="1999"):
            bootstrap_each(identical_graduates(), estimators, BootstrapConfig(seed=1))


class TestSeedWords:
    @given(
        seed=st.one_of(
            st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
            st.integers(0, 2**64 - 1),
        ),
        replicate_ids=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    )
    @settings(max_examples=200)
    def test_equal_seed_sequence_state(self, seed, replicate_ids):
        words = _seed_words(seed, replicate_ids)
        expected = [
            np.random.SeedSequence([seed, b]).generate_state(4, np.uint64) for b in replicate_ids
        ]
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(words, expected)

    def test_import_leaves_numpy_random_unloaded(self):
        # the bootstrap imports numpy.random when it runs; importing it with
        # the package would add about 6 MB to every process
        code = "import sys, cohortchain, cohortchain.cli; print('numpy.random' in sys.modules)"
        src = str(Path(cohortchain.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src}, timeout=60,
        )
        assert out.stdout.strip() == "False"


class TestKde:
    def test_bimodal_clusters(self, rng):
        values = np.concatenate(
            [rng.normal(0.3, 0.01, 200), rng.normal(0.7, 0.01, 200)]
        ).clip(0, 1)
        xs, dens = kde(values)
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        assert interior.sum() >= 2

    def test_constant_ensemble(self):
        with pytest.raises(DegenerateEnsemble):
            kde([0.5] * 50)

    def test_peak_near_sample_mean(self, rng):
        values = rng.normal(0.5, 0.04, 2000).clip(0, 1)
        xs, dens = kde(values)
        assert abs(xs[np.argmax(dens)] - values.mean()) <= 0.02

    def test_integrates_to_one(self, rng):
        values = rng.normal(0.5, 0.05, 500).clip(0, 1)
        xs, dens = kde(values)
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=0.02)

    def test_grid_clipped_to_unit_interval(self, rng):
        values = rng.normal(0.02, 0.03, 300).clip(0, 1)
        xs, _ = kde(values)
        assert xs[0] >= 0.0 and xs[-1] <= 1.0
        assert len(xs) == 256

    def test_silverman_bandwidth_formula(self, rng):
        values = rng.normal(0.5, 0.1, 400)
        sd = values.std(ddof=1)
        q75, q25 = np.percentile(values, [75, 25])
        expected = 0.9 * min(sd, (q75 - q25) / 1.34) * 400 ** (-0.2)
        assert silverman_bandwidth(values) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bandwidth_not_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            kde([0.1, 0.2, 0.3], bandwidth)

    def test_zero_iqr_falls_back_to_sd(self):
        values = np.array([0.5] * 30 + [0.2, 0.8])
        assert silverman_bandwidth(values) > 0

    @pytest.mark.parametrize("budget", [1, 7 * 300, 32 * 300, _KDE_BLOCK_ELEMENTS])
    @pytest.mark.parametrize("n", [2, 257, 300, 4099])
    @pytest.mark.parametrize("bandwidth", [None, 0.004, 0.3])
    def test_blocks_give_the_one_matrix_densities(self, monkeypatch, rng, budget, n, bandwidth):
        # blocks of one grid point, of a few, with a short last block, and
        # the whole grid at once: each point's sum runs along its own row,
        # so the densities are the same bits as the one-matrix formula's
        monkeypatch.setattr(sys.modules["cohortchain.bootstrap"], "_KDE_BLOCK_ELEMENTS", budget)
        values = rng.beta(40, 20, n)
        xs, dens = kde(values, bandwidth)
        h = silverman_bandwidth(values) if bandwidth is None else bandwidth
        z = (xs[:, None] - values[None, :]) / h
        expected = np.exp(-0.5 * z**2).sum(axis=1) / (values.size * h * np.sqrt(2 * np.pi))
        assert np.array_equal(dens, expected)
        assert len(dens) == len(xs) == 256


class TestBootstrapConfig:
    def test_rejects_bad_replicates(self):
        with pytest.raises(ValueError):
            BootstrapConfig(seed=1, replicates=1)

    def test_rejects_replicate_ids_past_32_bits(self):
        # a replicate id is one 32-bit seed word: id 2**32 + 1 would repeat id 1
        with pytest.raises(ValueError, match=r"replicates must be below 2\*\*32"):
            BootstrapConfig(seed=1, replicates=2**32)
        assert BootstrapConfig(seed=1, replicates=2**32 - 1).replicates == 2**32 - 1

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            BootstrapConfig(seed=1, ci_level=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": 2.0},
            {"seed": True},
            {"seed": np.float64(3)},
            {"seed": "3"},
            {"seed": None},
            {"seed": 3, "replicates": 2.5},
            {"seed": 3, "replicates": 100.0},
            {"seed": 3, "replicates": True},
        ],
    )
    def test_rejects_non_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            BootstrapConfig(**kwargs)

    def test_accepts_numpy_integers(self):
        cfg = BootstrapConfig(seed=np.uint64(2**64 - 1), replicates=np.int32(50))
        assert (cfg.seed, cfg.replicates) == (2**64 - 1, 50)
