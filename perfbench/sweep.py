"""Run the benchmark over several seeds and summarize it as a BENCH file.

    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1,2 --out perfbench/BENCH_0.json

Run from the root of a checkout. For every workload in BENCHMARK.json (or
--workloads a,b) it runs `run.py --trace 0` once per seed, then reports
each end-to-end metric's median, quartiles and spread: the distance between
the quartiles, as a share of the median, next to the metric's bound.
Each --trace-seeds seed also gets one traced run, whose per-layer metrics
and self-check lines are kept. Every run must report correct outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs\n{proc.stdout}")
    env = json.loads(next(line for line in lines if line.startswith("environment: "))[13:])
    notes = [line for line in lines if line.startswith("self-check: ")]
    return result, env, notes


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace-seeds", type=seeds, default=[])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        notes = []
        for seed in args.seeds:
            result, env, run_notes = run(workload, seed, seconds, 0)
            notes += run_notes
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            metrics[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "bound": bounds[name],
                "values": vals,
            }
            print(f"{workload} {name}: median {med:.6g}, spread {(q3 - q1) / med:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = {}
        for seed in args.trace_seeds:
            result, _env, trace_notes = run(workload, seed, seconds, 1)
            traced[str(seed)] = {
                "self_check": trace_notes,
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            for note in trace_notes:
                print(f"{workload} seed {seed} {note}", flush=True)
        env = {k: v for k, v in env.items() if k not in ("seed", "input", "workload")}
        report["environment"] = env
        report["workloads"][workload] = {"end_to_end": metrics, "notes": sorted(set(notes)), "traced": traced}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
