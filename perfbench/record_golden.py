"""Record the golden values the benchmark compares outputs with.

    python3 perfbench/record_golden.py <workload> [<workload> ...]

Run from the root of a checkout of the commit whose outputs are the
reference. For each pool input of a CLI workload it sets up, runs one pass
and stores the numeric summary of every output directory; for coverage_1k
it runs each of the 500 worlds once. Every recorded output must also pass
the benchmark's exact oracles. Writes golden/<workload>.json.
"""

import json
import shutil
import sys

import run as bench
import workloads as W
import outputs


def record_cli(workload):
    golden = {}
    for index in range(W.POOL):
        work = bench.ROOT / ".perfbench_work" / f"golden-{workload}-{index}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = bench.Run(workload, index, work)
        run.set_up()
        entry = {}
        if workload != "synth_100k":
            entry["setup"] = {"panel.csv": outputs.summarize_panel(work / "panel.csv")}
        _t, _rss, results = run.cli_pass("golden")
        for name, out_dir, code, stdout, _rss in results:
            if code != 0:
                raise SystemExit(f"{workload} input {index}: {name} failed: {stdout}")
            entry[name] = outputs.summarize_dir(out_dir)
        run.golden = {str(index): entry}
        run.problems, run.failed = [], 0
        for name, out_dir, _code, stdout, _rss in results:
            run.op(run.check(name, out_dir, stdout))
        if run.failed:
            raise SystemExit(f"{workload} input {index}: {run.problems}")
        golden[str(index)] = entry
        shutil.rmtree(work)
        print(f"{workload} input {index} recorded", flush=True)
    return golden


def record_coverage():
    sys.path.insert(0, str(bench.SRC))
    import worlds

    golden = {}
    run = bench.Run("coverage_1k", 0, None)
    for index in range(W.COVERAGE_WORLDS):
        world = worlds.run_world(index)
        run.golden = {str(index): world["summary"]}
        if run.check_world(world):
            raise SystemExit(f"world {index}: {run.check_world(world)}")
        golden[str(index)] = world["summary"]
        if index % 50 == 0:
            print(f"coverage world {index} recorded", flush=True)
    return golden


def main(names):
    for workload in names:
        golden = record_coverage() if workload == "coverage_1k" else record_cli(workload)
        path = bench.HERE / "golden" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
