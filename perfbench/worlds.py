"""The coverage_1k workload: repeated coverage-study worlds in one process.

    python3 perfbench/worlds.py <work dir> <seed> <seconds> <trace 0|1>

Each world mirrors one world of the acceptance suite's
`test_interval_coverage_full`: generate_panel (4 cohorts x 250) then
bootstrap(MarkovFullEstimator(2021), B = 1000), through library calls with
no CSV. Worlds run one after another until `seconds` have passed. With
trace 1 the worlds alternate between untraced and traced, so that the
difference of their medians, the tracing overhead, is taken under the
same machine conditions.

Writes coverage.json to the work dir: per world its seconds and a summary
for the golden comparison, plus the oracle point (path enumeration over
counts re-pooled with derive_transitions), all checked by the driver.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from cohortchain import BootstrapConfig, MarkovFullEstimator  # noqa: E402


def world_summary(s, replicates):
    ids = set(int(b) for b in s.replicate_ids)
    return {
        "point": s.point,
        "lo": s.lo,
        "median": s.median,
        "hi": s.hi,
        "width": s.width,
        "n_failed": s.n_failed,
        "missing": sorted(set(range(1, replicates + 1)) - ids),
        "ensemble_sum": float(np.sum(s.ensemble)),
    }


def run_world(index):
    """One timed world; the library is called through the modules, so that
    wrappers `tracing.install` binds there are used once installed.
    (`cohortchain.bootstrap` as a package attribute is the function, hence
    sys.modules.)"""
    spec = inputs.world_spec(index)
    cfg = BootstrapConfig(seed=spec.seed, replicates=W.COVERAGE_B)
    start = time.perf_counter()
    records = sys.modules["cohortchain.synth"].generate_panel(spec)
    summary = sys.modules["cohortchain.bootstrap"].bootstrap(
        records, MarkovFullEstimator(W.HORIZON), cfg
    )
    seconds = time.perf_counter() - start
    oracle = inputs.path_enumeration(inputs.cell_counts(records).sum(axis=0).reshape(8, 8))
    return {
        "world": index,
        "seconds": seconds,
        "summary": world_summary(summary, W.COVERAGE_B),
        "oracle_point": oracle,
    }


def run(work, seed, seconds, trace):
    worlds = []
    tracer = tracing.Tracer() if trace else None
    position = W.first_world(seed)
    start = time.perf_counter()
    while len(worlds) < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and len(worlds) % 2 == 1
        uninstall = tracing.install(tracer) if traced else None
        world = run_world(position % W.COVERAGE_WORLDS)
        if uninstall:
            uninstall()
        world["traced"] = traced
        worlds.append(world)
        position += 1
    if trace:
        tracer.write(work / "coverage.trace.json")
    (work / "coverage.json").write_text(json.dumps({"worlds": worlds}), encoding="utf-8")


if __name__ == "__main__":
    run(Path(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1")
