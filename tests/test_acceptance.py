"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with -s or -rP). Tolerances and runtime budgets are asserted, not
just reported.
"""

import filecmp
import time

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import matrix_from_rows

from cohortchain import (
    BootstrapConfig,
    GeneratorSpec,
    MarkovFullEstimator,
    MarkovReducedEstimator,
    SubgroupSpec,
    TraditionalEstimator,
    bootstrap,
    brute_force_sygr,
    derive_transitions,
    generate_panel,
    generate_panel_with_log,
    random_transition_matrix,
    sygr_markov,
)
from cohortchain.cli import main, run_comparison
from cohortchain.synth import format_generator_spec, log_multiset

BASE_MATRIX = matrix_from_rows({
    1: {2: 0.87, "D": 0.09, "G": 0.04},
    2: {3: 0.90, "D": 0.07, "G": 0.03},
    3: {4: 0.92, "D": 0.05, "G": 0.03},
    4: {5: 0.50, "D": 0.04, "G": 0.46},
    5: {6: 0.22, "D": 0.05, "G": 0.73},
    6: {"D": 0.28, "G": 0.72},
})

EFFECT_MATRIX = matrix_from_rows({
    1: {2: 0.925, "D": 0.045, "G": 0.03},
    2: {3: 0.935, "D": 0.035, "G": 0.03},
    3: {4: 0.945, "D": 0.025, "G": 0.03},
    4: {5: 0.49, "D": 0.035, "G": 0.475},
    5: {6: 0.21, "D": 0.045, "G": 0.745},
    6: {"D": 0.255, "G": 0.745},
})


def report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def test_complete_cohort_identity():
    """Reduced-chain and traditional estimates coincide on any fully
    observed single cohort, across 100 random worlds."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(20, 5001))
        spec = GeneratorSpec(
            true_matrix=random_transition_matrix(rng),
            cohort_sizes={2013: n},
            horizon_year=2019,
            seed=1000 + i,
        )
        records = generate_panel(spec)
        gap = abs(
            MarkovReducedEstimator(2013, 2019).point(records)
            - TraditionalEstimator(2013, 2019).point(records)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        "complete-cohort identity",
        worst <= 1e-9 and elapsed < 10.0,
        f"max |gap| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_readout_matches_path_enumeration():
    """Matrix-power readout equals the brute-force path sum on 1000 random
    matrices."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(1000):
        p = random_transition_matrix(rng)
        worst = max(worst, abs(sygr_markov(p) - brute_force_sygr(p)))
    elapsed = time.perf_counter() - start
    report(
        "readout vs path enumeration",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |gap| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_pooled_estimator_consistency():
    """Full pooled estimate recovers the generator truth within one
    percentage point at N = 100,000 under realistic censoring.

    Cohort design mirrors a live analysis: three complete cohorts plus
    three recent partial ones. The censoring rule observes absorptions but
    not persistence in each cohort's final observable year, so a panel
    dominated by very young cohorts would carry a real downward bias; with
    partial cohorts in the minority per row the effect stays well inside
    the tolerance.
    """
    start = time.perf_counter()
    truth = brute_force_sygr(BASE_MATRIX)
    spec = GeneratorSpec(
        true_matrix=BASE_MATRIX,
        cohort_sizes={year: 16_667 for year in range(2013, 2019)},
        horizon_year=2021,
        seed=77,
    )
    records = generate_panel(spec)
    est = MarkovFullEstimator(2021).point(records)
    elapsed = time.perf_counter() - start
    report(
        "pooled estimator consistency",
        abs(est - truth) <= 0.01 and elapsed < 30.0,
        f"est = {est:.4f}, truth = {truth:.4f}, {elapsed:.1f}s",
    )


def _world_spec(seed):
    return GeneratorSpec(
        true_matrix=BASE_MATRIX,
        cohort_sizes={2013: 250, 2014: 250, 2016: 250, 2018: 250},
        horizon_year=2021,
        seed=seed,
    )


def _interval_coverage(n_worlds, replicates, seed0):
    truth = brute_force_sygr(BASE_MATRIX)
    estimator = MarkovFullEstimator(2021)
    covered = 0
    for w in range(n_worlds):
        records = generate_panel(_world_spec(seed0 + w))
        cfg = BootstrapConfig(seed=seed0 + w, replicates=replicates)
        s = bootstrap(records, estimator, cfg)
        covered += s.lo <= truth <= s.hi
    return covered / n_worlds


def test_interval_coverage_smoke():
    start = time.perf_counter()
    coverage = _interval_coverage(100, 200, seed0=5000)
    elapsed = time.perf_counter() - start
    report(
        "95% interval coverage (smoke)",
        0.88 <= coverage <= 1.00 and elapsed < 60.0,
        f"coverage = {coverage:.3f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_interval_coverage_full():
    start = time.perf_counter()
    coverage = _interval_coverage(500, 1000, seed0=9000)
    elapsed = time.perf_counter() - start
    report(
        "95% interval coverage (full)",
        0.91 <= coverage <= 0.98 and elapsed < 900.0,
        f"coverage = {coverage:.3f}, {elapsed:.1f}s",
    )


def test_full_chain_narrows_interval():
    """Pooling partial cohorts through the chain tightens the interval
    relative to the complete-cohort-only estimate in at least 90 of 100
    panels."""
    narrower = 0
    fracs = []
    for i in range(100):
        spec = GeneratorSpec(
            true_matrix=BASE_MATRIX,
            cohort_sizes={year: 250 for year in range(2015, 2021)},
            horizon_year=2021,
            seed=3000 + i,
        )
        records = generate_panel(spec)
        cfg = BootstrapConfig(seed=3000 + i, replicates=300)
        s_trad = bootstrap(records, TraditionalEstimator(2015, 2021), cfg)
        s_full = bootstrap(records, MarkovFullEstimator(2021), cfg)
        narrower += s_full.width < s_trad.width
        if s_trad.width > 0:
            fracs.append(1.0 - s_full.width / s_trad.width)
    median_frac = float(np.median(fracs))
    report(
        "full-chain interval narrowing",
        narrower >= 90,
        f"narrower in {narrower}/100, median narrowing {100 * median_frac:.1f}%",
    )


def test_ensemble_size_stability():
    """Bootstrap medians on one fixed cohort are stable as the replicate
    count doubles from 1000 to 8000."""
    spec = GeneratorSpec(
        true_matrix=BASE_MATRIX, cohort_sizes={2013: 800}, horizon_year=2021, seed=55
    )
    records = generate_panel(spec)
    estimator = MarkovFullEstimator(2021)
    medians = [
        bootstrap(records, estimator, BootstrapConfig(seed=11, replicates=b)).median
        for b in (1000, 2000, 4000, 8000)
    ]
    spread = max(medians) - min(medians)
    report(
        "ensemble-size stability",
        spread <= 0.005,
        f"median spread = {spread:.4f} over B = 1000..8000",
    )


def test_injected_effect_recovery(tmp_path):
    """The compare command recovers a known exposed-vs-unexposed gap of
    about nine percentage points within three."""
    truth_gap = brute_force_sygr(EFFECT_MATRIX) - brute_force_sygr(BASE_MATRIX)
    assert 0.06 <= truth_gap <= 0.12  # design guard on the chosen matrices
    spec = GeneratorSpec(
        true_matrix=BASE_MATRIX,
        effect_matrix=EFFECT_MATRIX,
        cohort_sizes={2013: 7000, 2014: 7000, 2016: 6000},
        horizon_year=2021,
        seed=13,
        la_rate=0.5,
        la_year_dist={1: 1.0},
    )
    spec_path = tmp_path / "gen.spec"
    spec_path.write_text(format_generator_spec(spec))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
    out = tmp_path / "cmp"
    code = main([
        "compare", "--input", str(tmp_path / "panel.csv"), "--out", str(out),
        "--horizon", "2021", "--seed", "4", "--replicates", "500",
    ])
    assert code == 0
    line = (out / "difference.csv").read_text().splitlines()[1]
    median_diff = float(line.split(",")[1])
    report(
        "injected-effect recovery",
        abs(median_diff - truth_gap) <= 0.03,
        f"measured {100 * median_diff:.1f} pp vs true {100 * truth_gap:.1f} pp",
    )


def test_null_effect_difference_covers_zero():
    """With no injected effect, the paired-difference interval contains
    zero in at least 90 of 100 trials."""
    covered = 0
    for t in range(100):
        spec = GeneratorSpec(
            true_matrix=BASE_MATRIX,
            cohort_sizes={2013: 700, 2016: 700, 2018: 600},
            horizon_year=2021,
            seed=6000 + t,
            la_rate=0.5,
            la_year_dist={1: 1.0},
        )
        records = generate_panel(spec)
        args = SimpleNamespace(seed=6000 + t, horizon=2021, replicates=300, ci=0.95)
        _, _, (lo, _, hi) = run_comparison(records, args, "all", SubgroupSpec())
        covered += lo <= 0.0 <= hi
    report(
        "null-effect interval covers zero",
        covered >= 90,
        f"covered in {covered}/100 trials",
    )


def _run_all_commands(spec_path, root):
    root.mkdir(parents=True, exist_ok=True)
    assert main(["synth", "--spec", str(spec_path), "--out", str(root / "synth")]) == 0
    panel = str(root / "synth" / "panel.csv")
    assert main([
        "estimate", "--input", panel, "--out", str(root / "est"),
        "--horizon", "2021", "--cohort", "2013", "--seed", "21",
        "--replicates", "200", "--export-ensemble",
    ]) == 0
    assert main([
        "validate", "--input", panel, "--out", str(root / "val"),
        "--horizon", "2021", "--seed", "21", "--replicates", "150",
    ]) == 0
    assert main([
        "compare", "--input", panel, "--out", str(root / "cmp"),
        "--horizon", "2021", "--seed", "21", "--replicates", "150",
    ]) == 0
    assert main([
        "plot", "--input", str(root / "est" / "ensemble_traditional.csv"),
        "--out", str(root / "plot"),
    ]) == 0


def test_command_determinism(tmp_path):
    """Every command rerun with the same configuration and seed produces
    byte-identical tables and charts. The metadata sidecar is excluded: its
    config_hash covers the input paths, which differ between the two roots."""
    spec = GeneratorSpec(
        true_matrix=BASE_MATRIX,
        cohort_sizes={2013: 400, 2015: 300, 2018: 300},
        horizon_year=2021,
        seed=31,
        la_rate=0.4,
        la_year_dist={1: 0.6, 2: 0.4},
        aalana_rate=0.25,
        first_gen_rate=0.3,
    )
    spec_path = tmp_path / "gen.spec"
    spec_path.write_text(format_generator_spec(spec))
    _run_all_commands(spec_path, tmp_path / "a")
    _run_all_commands(spec_path, tmp_path / "b")
    mismatched = []
    for path_a in sorted((tmp_path / "a").rglob("*")):
        if path_a.is_dir() or path_a.name == "metadata.txt":
            continue
        path_b = tmp_path / "b" / path_a.relative_to(tmp_path / "a")
        if not filecmp.cmp(path_a, path_b, shallow=False):
            mismatched.append(str(path_a.relative_to(tmp_path / "a")))
    report(
        "command determinism",
        not mismatched,
        "all outputs byte-identical" if not mismatched else f"differs: {mismatched}",
    )


def test_generator_round_trip():
    """Deriving transitions from the emitted panel reproduces the
    generator's own walk log exactly, on 50 random configurations
    including maximal censoring and slow finishers."""
    rng = np.random.default_rng(909)
    for i in range(50):
        maximal = i % 5 == 0
        horizon = 2017 if maximal else int(rng.integers(2018, 2027))
        spec = GeneratorSpec(
            true_matrix=random_transition_matrix(rng),
            effect_matrix=random_transition_matrix(rng) if i % 3 == 0 else None,
            cohort_sizes={2013: 40, 2016: 25},
            horizon_year=horizon,
            seed=7000 + i,
            la_rate=float(rng.uniform(0.0, 0.6)),
            la_year_dist={1: 0.5, 3: 0.5},
            slow_finisher_rate=(0.0, 0.3, 1.0)[i % 3],
        )
        records, log = generate_panel_with_log(spec)
        derived = [t for r in records for t in derive_transitions(r, horizon)]
        if log_multiset(derived) != log_multiset(log):
            report("generator round trip", False, f"mismatch on configuration {i}")
    report("generator round trip", True, "50/50 configurations match exactly")
