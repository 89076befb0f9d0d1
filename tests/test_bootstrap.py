import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import make_record
from hypothesis import given, settings
from hypothesis import strategies as st

import cohortchain
from cohortchain import (
    BootstrapConfig,
    MarkovFullEstimator,
    MarkovReducedEstimator,
    Outcome,
    TraditionalEstimator,
    bootstrap,
    bootstrap_each,
    kde,
    percentile_ci,
)
from cohortchain.bootstrap import _seed_words, resample_indices, silverman_bandwidth
from cohortchain.errors import (
    DegenerateEnsemble,
    EnsembleTooSmall,
    EstimationError,
    EstimatorFailedOnOriginal,
    TooManyFailedReplicates,
)
from cohortchain.estimate import trajectory_types


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
        with pytest.raises(EstimatorFailedOnOriginal):
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

    @pytest.mark.parametrize("n", [1, 20])
    @pytest.mark.parametrize("replicates", [2, 127, 128, 129, 300])
    def test_block_seeding_matches_resample_indices(self, replicates, n, monkeypatch):
        # blocks of REPLICATE_BLOCK = 128: one short block, one exact, one
        # spilling by a replicate, and a partial third block
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

        type_id, types = trajectory_types(records)
        table = estimator.table(types)
        original, *blocks = tallies
        np.testing.assert_array_equal(
            original, [np.bincount(type_id, minlength=len(types)) @ table]
        )
        expected = [
            np.bincount(type_id[resample_indices(cfg.seed, b, n)], minlength=len(types)) @ table
            for b in range(1, replicates + 1)
        ]
        np.testing.assert_array_equal(np.concatenate(blocks), expected)
        ensemble, ids, failed = reference_bootstrap(records, estimator, cfg)
        assert s.n_failed == failed == 0
        np.testing.assert_array_equal(s.replicate_ids, ids)
        np.testing.assert_array_equal(s.ensemble, ensemble)


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

    def test_empty_list_draws_nothing(self, monkeypatch):
        _no_draws(monkeypatch)
        assert bootstrap_each(identical_graduates(), [], BootstrapConfig(seed=1)) == []

    def test_failure_on_original_raised_before_any_draw(self, monkeypatch):
        _no_draws(monkeypatch)
        estimators = [MarkovFullEstimator(2021), TraditionalEstimator(1999, 2021)]
        with pytest.raises(EstimatorFailedOnOriginal, match="1999"):
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
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
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


class TestBootstrapConfig:
    def test_rejects_bad_replicates(self):
        with pytest.raises(ValueError):
            BootstrapConfig(seed=1, replicates=1)

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
