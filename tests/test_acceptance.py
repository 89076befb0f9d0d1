"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with -s or -rP, and added to the GitHub job summary when
GITHUB_STEP_SUMMARY names it). The Monte Carlo tests are studies of
`studies.py`: a world, a method run on the panel of each seed's world, and a
bound on a share or a mean, whose line gives the figure with its MCSE.
Tolerances and runtime budgets are asserted, not just reported.
"""

import filecmp
import os
import time
from collections import Counter

import numpy as np
import pytest
from conftest import generate_panel_with_log, matrix_from_rows
from studies import mean, run, share, world

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
    random_transition_matrix,
)
from cohortchain.cli import main, run_comparison
from cohortchain.markov import normalise, sygr_markov_stack
from cohortchain.states import ALLOWED_CELLS
from cohortchain.synth import format_generator_spec

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
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    if summary := os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(summary, "a", encoding="utf-8") as out:
            out.write(f"- {line}\n")
    assert ok, f"{name}{suffix}"


def coverage_world(size):
    """The coverage study's design: two complete and two partial cohorts."""
    return world(BASE_MATRIX, dict.fromkeys((2013, 2014, 2016, 2018), size))


def test_complete_cohort_identity():
    """Reduced-chain and traditional estimates coincide on any fully
    observed single cohort, across 100 random worlds."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(20, 5001))
        spec = world(random_transition_matrix(rng), {2013: n}, horizon_year=2019)(1000 + i)
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
    """The stacked readout equals the brute-force path sum over the chains
    of 1000 random count grids."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    counts = np.zeros((1000, 8, 8), dtype=np.int64)
    rows, cols = np.array(ALLOWED_CELLS).T
    counts[:, rows, cols] = rng.integers(0, 1000, size=(1000, len(ALLOWED_CELLS)))
    values, ok = sygr_markov_stack(counts)
    p, _gaps = normalise(counts)
    worst = max(abs(v - brute_force_sygr(grid)) for v, grid in zip(values, p))
    elapsed = time.perf_counter() - start
    report(
        "readout vs path enumeration",
        ok.all() and worst <= 1e-12 and elapsed < 5.0,
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
    records = generate_panel(world(BASE_MATRIX, dict.fromkeys(range(2013, 2019), 16_667))(77))
    est = MarkovFullEstimator(2021).point(records)
    elapsed = time.perf_counter() - start
    report(
        "pooled estimator consistency",
        abs(est - truth) <= 0.01 and elapsed < 30.0,
        f"est = {est:.4f}, truth = {truth:.4f}, {elapsed:.1f}s",
    )


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: a partial cohort's final observed "
                   "year counts its absorptions but not its persistence")
def test_partial_cohorts_final_year_is_unbiased():
    """The pooled full chain recovers the generator truth within 0.25
    percentage points, in the mean over seeds 0-2, on the coverage study's
    cohorts (2013, 2014, 2016 and 2018) at 100,000 each.

    A cohort observed for m < 6 years counts its absorptions in year m but
    not its persistence out of year m. The mean error measured -0.48 pp
    (-0.57, -0.40, -0.48) with that rule, and +0.07 pp with every step out
    of year m dropped instead.
    """
    truth = brute_force_sygr(BASE_MATRIX)
    bias, mcse = mean(run(range(3), coverage_world(100_000),
                          lambda panel, _seed: MarkovFullEstimator(2021).point(panel) - truth))
    report(
        "partial cohorts' final year unbiased",
        abs(bias) <= 0.0025,
        f"mean error = {100 * bias:+.2f} pp (MCSE {100 * mcse:.2f}) over seeds 0-2",
    )


def covers_truth(replicates):
    """Method: whether the full chain's interval holds the generator truth."""
    truth = brute_force_sygr(BASE_MATRIX)

    def method(panel, seed):
        s = bootstrap(panel, MarkovFullEstimator(2021), BootstrapConfig(seed, replicates))
        return s.lo <= truth <= s.hi
    return method


def test_interval_coverage_smoke():
    start = time.perf_counter()
    coverage, text = share(run(range(5000, 5100), coverage_world(250), covers_truth(200)))
    elapsed = time.perf_counter() - start
    report(
        "95% interval coverage (smoke)",
        0.88 <= coverage <= 1.00 and elapsed < 60.0,
        f"coverage = {text}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_interval_coverage_full():
    start = time.perf_counter()
    coverage, text = share(run(range(9000, 9500), coverage_world(250), covers_truth(1000)))
    elapsed = time.perf_counter() - start
    report(
        "95% interval coverage (full)",
        0.91 <= coverage <= 0.98 and elapsed < 900.0,
        f"coverage = {text}, {elapsed:.1f}s",
    )


def delta_method_se(tally):
    """Standard error of the six-year rate read off a pooled chain tally, by
    the delta method: the rows of the chain's estimate are independent
    multinomials (Anderson & Goodman 1957), and with f(P) = [P^6]_{Y1,G}
    the gradient is df/dP_ij = sum_{k=0..5} [P^k]_{Y1,i} [P^(5-k)]_{j,G}.
    Var f = sum_i g_i' (diag(p_i) - p_i p_i') g_i / n_i over the transient
    rows i with n_i > 0."""
    counts = np.reshape(tally, (8, 8))
    n = counts[:6].sum(axis=1)
    p = np.zeros((8, 8))
    seen = n > 0
    p[:6][seen] = counts[:6][seen] / n[seen, None]
    p[6, 6] = p[7, 7] = 1.0
    powers = [np.linalg.matrix_power(p, k) for k in range(6)]
    grad = sum(np.outer(powers[k][0], powers[5 - k][:, 7]) for k in range(6))
    var = sum(g @ (np.diag(row) - np.outer(row, row)) @ g / total
              for g, row, total in zip(grad[:6], p[:6], n[:6]) if total > 0)
    return float(np.sqrt(var))


@pytest.mark.parametrize("size", [25, 250, 2_500])
def test_bootstrap_sd_matches_delta_method_se(size):
    """The bootstrap ensemble's SD agrees with the delta-method standard
    error on 12 coverage-design worlds per cohort size. An SD of 1,000
    replicates carries about 2.2% noise, so each ratio is held to about 3
    of its SEs, and each size's median to 2%."""
    def sd_over_se(panel, seed):
        s = bootstrap(panel, MarkovFullEstimator(2021), BootstrapConfig(seed=seed))
        return s.ensemble.std(ddof=1) / delta_method_se(s.tally)

    ratios = run(range(7000, 7012), coverage_world(size), sd_over_se)
    median = float(np.median(ratios))
    report(
        f"bootstrap SD vs delta-method SE, 4 x {size}",
        all(0.93 <= r <= 1.07 for r in ratios) and 0.98 <= median <= 1.02,
        f"SD / SE in {min(ratios):.3f}..{max(ratios):.3f}, median {median:.3f}",
    )


def test_full_chain_narrows_interval():
    """Pooling partial cohorts through the chain tightens the interval
    relative to the complete-cohort-only estimate in at least 90 of 100
    panels."""
    def widths(panel, seed):
        cfg = BootstrapConfig(seed=seed, replicates=300)
        return (bootstrap(panel, TraditionalEstimator(2015, 2021), cfg).width,
                bootstrap(panel, MarkovFullEstimator(2021), cfg).width)

    pairs = run(range(3000, 3100), world(BASE_MATRIX, dict.fromkeys(range(2015, 2021), 250)),
                widths)
    narrower, text = share([full < trad for trad, full in pairs])
    median_frac = float(np.median([1.0 - full / trad for trad, full in pairs if trad > 0]))
    report(
        "full-chain interval narrowing",
        narrower >= 0.90,
        f"narrower in {text}, median narrowing {100 * median_frac:.1f}%",
    )


def test_ensemble_size_stability():
    """Bootstrap medians on one fixed cohort are stable as the replicate
    count doubles from 1000 to 8000."""
    records = generate_panel(world(BASE_MATRIX, {2013: 800})(55))
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
    spec = world(BASE_MATRIX, {2013: 7000, 2014: 7000, 2016: 6000}, effect_matrix=EFFECT_MATRIX,
                 la_rate=0.5, la_year_dist={1: 1.0})(13)
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
    def covers_zero(panel, seed):
        cfg = BootstrapConfig(seed=seed, replicates=300, ci_level=0.95)
        _, _, (lo, _, hi) = run_comparison(panel, SubgroupSpec(), 2021, cfg, "all")
        return lo <= 0.0 <= hi

    null = world(BASE_MATRIX, {2013: 700, 2016: 700, 2018: 600}, la_rate=0.5,
                 la_year_dist={1: 1.0})
    covered, text = share(run(range(6000, 6100), null, covers_zero))
    report("null-effect interval covers zero", covered >= 0.90, f"covered in {text}")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18: a student who leaves before their "
                   "LA year counts as unexposed (immortal-time bias)")
def test_later_exposure_shows_no_null_gain():
    """With no effect and LA drawn from year 1 or 2, the exposed arm's
    point estimate exceeds the unexposed arm's by at most 0.30 percentage
    points, in the mean over seeds 0-2, on 6 cohorts (2013-2018) of 100,000.

    A student who leaves in year 1 never reaches an LA year of 2, so is
    counted unexposed, and the unexposed arm holds extra early leavers. The
    mean gap measured +0.87 pp (+0.82, +0.89, +0.91) with arms split by
    student, and -0.07 pp with each step counted to the arm its student was
    in when taking it.
    """
    def arm_gap(panel, seed):
        (_, unexposed, _), (_, exposed, _), _ = run_comparison(
            panel, SubgroupSpec(), 2021, BootstrapConfig(seed=seed, replicates=2), "all")
        return exposed.point - unexposed.point

    later = world(BASE_MATRIX, dict.fromkeys(range(2013, 2019), 100_000), la_rate=0.3,
                  la_year_dist={1: 0.6, 2: 0.4})
    gap, mcse = mean(run(range(3), later, arm_gap))
    report(
        "later exposure shows no null gain",
        abs(gap) <= 0.003,
        f"mean gap = {100 * gap:+.2f} pp (MCSE {100 * mcse:.2f}) over seeds 0-2",
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
    spec = world(BASE_MATRIX, {2013: 400, 2015: 300, 2018: 300}, la_rate=0.4,
                 la_year_dist={1: 0.6, 2: 0.4}, aalana_rate=0.25, first_gen_rate=0.3)(31)
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
        derived = [(r.student_id, t) for r in records for t in derive_transitions(r, horizon)]
        if Counter(derived) != Counter(log):
            report("generator round trip", False, f"mismatch on configuration {i}")
    report("generator round trip", True, "50/50 configurations match exactly")
