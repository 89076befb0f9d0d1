"""The four benchmark workloads: their inputs and the commands one pass runs.

Plain data and the standard library only, so the lean driver can import it.

Every input is drawn from a fixed pool, chosen by the workload seed, so
that each run's outputs can be compared with golden values recorded from
the seed commit (golden/*.json). The CLI workloads have POOL panels; the
coverage workload walks the 500 worlds of the acceptance suite's
`test_interval_coverage_full`, starting at a seed-chosen world.
"""

HORIZON = 2021
POOL = 16

# The acceptance suite's BASE_MATRIX and EFFECT_MATRIX, as transient rows
# {year: {next year | "D" | "G": probability}}.
BASE_ROWS = {
    1: {2: 0.87, "D": 0.09, "G": 0.04},
    2: {3: 0.90, "D": 0.07, "G": 0.03},
    3: {4: 0.92, "D": 0.05, "G": 0.03},
    4: {5: 0.50, "D": 0.04, "G": 0.46},
    5: {6: 0.22, "D": 0.05, "G": 0.73},
    6: {"D": 0.28, "G": 0.72},
}
EFFECT_ROWS = {
    1: {2: 0.925, "D": 0.045, "G": 0.03},
    2: {3: 0.935, "D": 0.035, "G": 0.03},
    3: {4: 0.945, "D": 0.025, "G": 0.03},
    4: {5: 0.49, "D": 0.035, "G": 0.475},
    5: {6: 0.21, "D": 0.045, "G": 0.745},
    6: {"D": 0.255, "G": 0.745},
}

# 6 cohorts x 16,667 students, 2013-2018: three complete cohorts and three
# partial ones at the 2021 horizon.
PANEL_100K = {"cohort_sizes": {year: 16_667 for year in range(2013, 2019)}}
# An LA-exposed panel of about 10k students; LA support starts in year 1
# or 2, so the exposed group still observes year 1.
PANEL_LA = {
    "cohort_sizes": {year: 1_667 for year in range(2013, 2019)},
    "la_rate": 0.3,
    "la_year_dist": {1: 0.6, 2: 0.4},
    "aalana_rate": 0.3,
    "first_gen_rate": 0.35,
    "slow_finisher_rate": 0.05,
    "effect": True,
}

ESTIMATE_COHORT = 2013
ESTIMATE_100K_B = 200
ANALYSIS_B = 1000

COVERAGE_WORLDS = 500
COVERAGE_SEED0 = 9000
COVERAGE_B = 1000
COVERAGE_COHORTS = {2013: 250, 2014: 250, 2016: 250, 2018: 250}

NAMES = ("estimate_100k", "coverage_1k", "analysis_la", "synth_100k")


def input_index(seed):
    return seed % POOL


def generator_seed(workload, index):
    """Panel seed of one pool entry; synth_100k writes estimate_100k's panel."""
    base = {"estimate_100k": 100, "synth_100k": 100, "analysis_la": 300}[workload]
    return base + index


def bootstrap_seed(index):
    return 500 + index


def first_world(seed):
    return (seed * 37) % COVERAGE_WORLDS


def world_seed(position):
    """Generator and bootstrap seed of the position-th world of a run."""
    return COVERAGE_SEED0 + position % COVERAGE_WORLDS


def commands(workload, index, work):
    """The CLI commands of one pass, as (name, argv, out_dir) in order.

    `work` is the run's work directory (a pathlib.Path) holding the inputs
    that set-up wrote.
    """
    seed = str(bootstrap_seed(index))
    horizon = str(HORIZON)
    panel = str(work / "panel.csv")
    if workload == "estimate_100k":
        out = work / "est"
        return [(
            "estimate",
            ["estimate", "--input", panel, "--out", str(out), "--horizon", horizon,
             "--cohort", str(ESTIMATE_COHORT), "--method", "traditional",
             "--method", "markov-full", "--replicates", str(ESTIMATE_100K_B),
             "--seed", seed, "--export-ensemble"],
            out,
        )]
    if workload == "synth_100k":
        out = work / "syn"
        return [("synth", ["synth", "--spec", str(work / "gen.spec"), "--out", str(out)], out)]
    if workload == "analysis_la":
        b = str(ANALYSIS_B)
        est, val, cmp_, plot = (work / d for d in ("est", "val", "cmp", "plot"))
        ensembles = [est / "ensemble_traditional.csv", est / "ensemble_markov-full.csv"] + [
            cmp_ / f"ensemble_{stratum}_{group}.csv"
            for stratum in ("all", "aalana", "first_gen")
            for group in ("unexposed", "exposed")
        ]
        plot_argv = ["plot", "--out", str(plot)]
        for path in ensembles:
            plot_argv += ["--input", str(path)]
        return [
            ("estimate",
             ["estimate", "--input", panel, "--out", str(est), "--horizon", horizon,
              "--cohort", str(ESTIMATE_COHORT), "--replicates", b, "--seed", seed,
              "--export-ensemble"], est),
            ("validate",
             ["validate", "--input", panel, "--out", str(val), "--horizon", horizon,
              "--replicates", b, "--seed", seed], val),
            ("compare",
             ["compare", "--input", panel, "--out", str(cmp_), "--horizon", horizon,
              "--replicates", b, "--seed", seed, "--strata", "--export-ensemble"], cmp_),
            ("plot", plot_argv, plot),
        ]
    raise ValueError(f"{workload} runs no CLI commands")


def replicates_per_pass(workload):
    """Bootstrap replicates one pass attempts; None where it runs none."""
    if workload == "estimate_100k":
        return 2 * ESTIMATE_100K_B
    if workload == "coverage_1k":
        return COVERAGE_B
    if workload == "analysis_la":
        complete = sum(1 for y in PANEL_LA["cohort_sizes"] if y + 6 <= HORIZON)
        # estimate: 2 methods; validate: 2 estimators per complete cohort;
        # compare --strata: 3 strata x 2 groups
        return (2 + 2 * complete + 6) * ANALYSIS_B
    return None
