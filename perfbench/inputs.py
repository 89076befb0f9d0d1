"""Set-up: generate one workload's inputs and its exact oracle values.

    python3 perfbench/inputs.py <workload> <input index> <work dir>

Writes the inputs a pass reads (panel.csv, gen.spec) and refs.json, the
values the benchmark checks the program's outputs against. The oracles are
computed here, independently of the estimators: counts are re-pooled from
`derive_transitions` (and `la_truncate`) per record and the six-year rate
is read off by explicit path enumeration, not by matrix power.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from cohortchain import (  # noqa: E402
    AcademicState,
    GeneratorSpec,
    Outcome,
    TransitionMatrix,
    derive_transitions,
    generate_panel,
    la_truncate,
)
from cohortchain.records import format_records  # noqa: E402
from cohortchain.synth import format_generator_spec  # noqa: E402

GRAD = int(AcademicState.GRADUATED)


def matrix(rows):
    def state(dst):
        if dst == "D":
            return AcademicState.DROP_OUT
        if dst == "G":
            return AcademicState.GRADUATED
        return AcademicState.year(dst)

    return TransitionMatrix.from_rows(
        {
            AcademicState.year(k): {state(d): v for d, v in entries.items()}
            for k, entries in rows.items()
        }
    )


def spec_for(workload, index):
    params = dict(W.PANEL_LA if workload == "analysis_la" else W.PANEL_100K)
    effect = params.pop("effect", False)
    return GeneratorSpec(
        true_matrix=matrix(W.BASE_ROWS),
        effect_matrix=matrix(W.EFFECT_ROWS) if effect else None,
        horizon_year=W.HORIZON,
        seed=W.generator_seed(workload, index),
        **params,
    )


def world_spec(position):
    return GeneratorSpec(
        true_matrix=matrix(W.BASE_ROWS),
        cohort_sizes=W.COVERAGE_COHORTS,
        horizon_year=W.HORIZON,
        seed=W.world_seed(position),
    )


def path_enumeration(grid):
    """Six-year graduation rate of row-normalized 8x8 counts, summed over
    the six graduation paths.

    None where the chain is undefined: a year with no observed exits that
    is Y1 or has observed entries. An unentered, unobserved year can carry
    no path, so it reads as drop-out."""
    grid = np.asarray(grid, dtype=float)
    total, persist = 0.0, 1.0
    for k in range(6):
        row = grid[k].sum()
        if row == 0:
            if k == 0 or grid[:, k].sum() > 0:
                return None
            break
        total += persist * grid[k, GRAD] / row
        if k < 5:
            persist *= grid[k, k + 1] / row
    return total


def persistence(grid):
    """Yk -> Y(k+1) rates, k = 1..5; an unobserved, unreachable row reads 0."""
    grid = np.asarray(grid, dtype=float)
    out = {}
    for k in range(5):
        row = grid[k].sum()
        out[str(k + 1)] = float(grid[k, k + 1] / row) if row else 0.0
    return out


def cell_counts(records, *, from_la_year=False):
    """Per-record observable steps as an (N, 64) count matrix over the
    flattened 8x8 grid.

    A record's steps depend only on (cohort_year, outcome, outcome_year,
    la_year) at a fixed horizon, so each distinct combination is derived
    once: 100k records hold a few dozen."""
    kinds, table = {}, []
    rows = np.empty(len(records), dtype=np.int64)
    for i, r in enumerate(records):
        key = (r.cohort_year, r.outcome, r.outcome_year, r.la_year)
        if key not in kinds:
            steps = derive_transitions(r, W.HORIZON)
            if from_la_year:
                steps = la_truncate(r, steps)
            row = np.zeros(64, dtype=np.int64)
            for t in steps:
                row[int(t.frm) * 8 + int(t.to)] += 1
            kinds[key] = len(table)
            table.append(row)
        rows[i] = kinds[key]
    return np.array(table).reshape(-1, 64)[rows]


def resample_weights(seed, replicate, n):
    """How often each record appears in a replicate. The draw is the one the
    bootstrap documents: a stream seeded by (seed, replicate index)."""
    idx = np.random.default_rng([seed, replicate]).integers(0, n, size=n)
    return np.bincount(idx, minlength=n)


def estimate_oracles(records, seed, replicates):
    """Exact traditional and markov-full values of a few replicates, keyed by
    replicate id (None where the replicate must fail)."""
    cells = cell_counts(records)
    start = np.array([r.cohort_year == W.ESTIMATE_COHORT for r in records], dtype=np.int64)
    grads = np.array(
        [
            r.cohort_year == W.ESTIMATE_COHORT
            and r.outcome is Outcome.GRADUATED
            and r.outcome_year <= 6
            for r in records
        ],
        dtype=np.int64,
    )
    out = {"traditional": {}, "markov-full": {}}
    for b in (1, 2, replicates):
        w = resample_weights(seed, b, len(records))
        n_start, n_grad = int(w @ start), int(w @ grads)
        out["traditional"][str(b)] = n_grad / n_start if n_start else None
        out["markov-full"][str(b)] = path_enumeration((w @ cells).reshape(8, 8))
    return out


def validate_oracles(records):
    out = {}
    for cohort in sorted({r.cohort_year for r in records}):
        if cohort + 6 > W.HORIZON:
            out[str(cohort)] = None
            continue
        members = [r for r in records if r.cohort_year == cohort]
        grads = sum(r.outcome is Outcome.GRADUATED and r.outcome_year <= 6 for r in members)
        out[str(cohort)] = {
            "traditional": grads / len(members),
            "markov_reduced": path_enumeration(cell_counts(members).sum(axis=0).reshape(8, 8)),
        }
    return out


def compare_oracles(records):
    strata = {
        "all": lambda r: True,
        "aalana": lambda r: r.aalana,
        "first_gen": lambda r: r.first_gen,
    }
    out = {}
    for name, keep in strata.items():
        base = [r for r in records if keep(r)]
        groups = {
            "unexposed": [r for r in base if r.la_year is None],
            "exposed": [r for r in base if r.la_year is not None],
        }
        out[name] = {
            group: {
                "n": len(members),
                "persistence": persistence(
                    cell_counts(members, from_la_year=group == "exposed")
                    .sum(axis=0)
                    .reshape(8, 8)
                ),
            }
            for group, members in groups.items()
        }
    return out


def set_up(workload, index, work):
    work.mkdir(parents=True, exist_ok=True)
    refs = {"workload": workload, "index": index, "numpy": np.__version__}
    if workload == "coverage_1k":
        refs["truth"] = path_enumeration(matrix(W.BASE_ROWS).p)
    elif workload == "synth_100k":
        spec = spec_for(workload, index)
        (work / "gen.spec").write_text(format_generator_spec(spec), encoding="utf-8")
        refs["students"] = sum(spec.cohort_sizes.values())
        refs["true_sygr"] = path_enumeration(spec.true_matrix.p)
    else:
        spec = spec_for(workload, index)
        records = generate_panel(spec)
        (work / "panel.csv").write_text(format_records(records), encoding="utf-8")
        b = W.ESTIMATE_100K_B if workload == "estimate_100k" else W.ANALYSIS_B
        refs["students"] = len(records)
        refs["estimate"] = estimate_oracles(records, W.bootstrap_seed(index), b)
        if workload == "analysis_la":
            refs["validate"] = validate_oracles(records)
            refs["compare"] = compare_oracles(records)
    (work / "refs.json").write_text(json.dumps(refs, indent=1), encoding="utf-8")


if __name__ == "__main__":
    set_up(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
