"""Benchmark driver for cohortchain.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src, nothing is installed. Workloads (see README.md): estimate_100k,
coverage_1k, analysis_la, synth_100k. One run sets the workload's inputs up
three times (from --seed), then runs passes one after another, closed loop,
until --seconds have passed, checking every pass's outputs. Every CLI
command is a fresh process, one at a time.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics - end-to-end with --trace 0, per layer with
--trace 1. The lines before it print every metric by name with its unit,
the environment, and the layer self-check.

This driver imports only the standard library and never holds a panel: a
child's peak RSS on Linux starts at its parent's RSS, so a heavy driver
would inflate every peak_rss_mb it reads.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 3
FAILURE_CEILING = 0.10
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CLI_COMMANDS = ("estimate", "validate", "compare", "synth", "plot")
SPANS = (
    "records.parse_records",
    "records.format_records",
    "records.filter_subgroup",
    "synth.generate_panel",
    "estimate.point",
    "estimate.contributions",
    "estimate.persistence_rates",
    "markov.build_matrix",
    "markov.sygr_markov",
    "bootstrap.resample_indices",
    "bootstrap.percentile_ci",
    "bootstrap.kde",
    "svgplot.render_line_chart",
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_process(argv, log):
    """Run one child to completion; returns (seconds, peak RSS in MB, exit
    code, stdout). Output goes to files, so the child never blocks on a
    pipe, and the child is reaped with wait4 to read its own rusage."""
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = Path(f"{log}.out").read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        tail = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")[-400:]
        stdout += f"\n[exit {proc.returncode}] {tail}"
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout


class Run:
    """One benchmark run: its work directory, operations and failures."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.index = W.input_index(seed)
        self.work = work
        self.attempted = 0
        self.problems = []
        self.failed = 0
        self.refs = {}
        golden_path = HERE / "golden" / f"{workload}.json"
        self.golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}

    def op(self, problems):
        """Count one operation; it fails if it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return not problems

    def set_up(self):
        argv = [sys.executable, str(HERE / "inputs.py"), self.workload, str(self.index), str(self.work)]
        seconds, _rss, code, out = run_process(argv, self.work / "setup")
        ok = self.op([] if code == 0 else [f"set-up: {out.strip()[-300:]}"])
        if ok:
            self.refs = json.loads((self.work / "refs.json").read_text())
        return seconds, ok

    # -- one pass of a CLI workload -------------------------------------------------

    def cli_pass(self, tag, trace_dir=None):
        """Run every command of one pass, then check its outputs. Returns the
        pass's seconds, its largest peak RSS in MB and the per-command
        results."""
        cmds = W.commands(self.workload, self.index, self.work)
        for _name, _argv, out_dir in cmds:
            shutil.rmtree(out_dir, ignore_errors=True)
        seconds = 0.0
        peak = 0.0
        results = []
        for name, argv, out_dir in cmds:
            if trace_dir is None:
                full = [sys.executable, "-m", "cohortchain.cli", *argv]
            else:
                full = [sys.executable, str(HERE / "tracing.py"), str(trace_dir / f"{tag}-{name}.json"), *argv]
            t, rss, code, stdout = run_process(full, self.work / f"{tag}-{name}")
            seconds += t
            peak = max(peak, rss)
            results.append((name, out_dir, code, stdout, rss))
        for name, out_dir, code, stdout, _rss in results:
            problems = [f"{name}: {stdout.strip()[-300:]}"] if code != 0 else self.check(name, out_dir, stdout)
            self.op(problems)
        return seconds, peak, results

    def check(self, name, out_dir, stdout):
        """Golden values from the seed commit plus the exact oracles."""
        golden = self.golden.get(str(self.index), {}).get(name)
        actual = outputs.summarize_dir(out_dir)
        if golden is None:
            problems = [f"{name}: no golden values for input {self.index}"]
        else:
            problems = outputs.diff(golden, actual, name)
        problems += getattr(self, f"check_{name}")(out_dir, stdout)
        return problems

    def check_ensemble(self, path, replicates, oracle=None):
        rows = outputs.read_csv_rows(path)
        values = {int(r["replicate"]): float(r["estimate"]) for r in rows}
        problems = []
        if replicates - len(rows) > FAILURE_CEILING * replicates:
            problems.append(f"{path.name}: {replicates - len(rows)} of {replicates} replicates failed")
        for b, expected in (oracle or {}).items():
            got = values.get(int(b))
            if expected is None and got is not None:
                problems.append(f"{path.name}: replicate {b} should have failed")
            elif expected is not None and (got is None or not outputs.close(got, expected)):
                problems.append(f"{path.name}: replicate {b} = {got}, oracle {expected!r}")
        return problems

    def check_estimate(self, out_dir, _stdout):
        b = W.ESTIMATE_100K_B if self.workload == "estimate_100k" else W.ANALYSIS_B
        problems = []
        for method in ("traditional", "markov-full"):
            oracle = self.refs["estimate"][method]
            problems += self.check_ensemble(out_dir / f"ensemble_{method}.csv", b, oracle)
        return problems

    def check_validate(self, out_dir, stdout):
        problems = [] if stdout.rstrip().endswith("PASS") else ["validate: did not print PASS"]
        for row in outputs.read_csv_rows(out_dir / "validation.csv"):
            if row["cohort"] not in self.refs["validate"]:
                problems.append(f"validate: unexpected cohort {row['cohort']}")
                continue
            oracle = self.refs["validate"][row["cohort"]]
            if oracle is None:  # fewer than six observed years
                ok = row["status"] == "SKIP"
            else:
                ok = (
                    row["status"] == "PASS"
                    and outputs.close(float(row["traditional"]), oracle["traditional"])
                    and outputs.close(float(row["markov_reduced"]), oracle["markov_reduced"])
                )
            if not ok:
                problems.append(f"validate: cohort {row['cohort']} {row} vs oracle {oracle}")
        return problems

    def check_compare(self, out_dir, _stdout):
        oracle = self.refs["compare"]
        problems = []
        for row in outputs.read_csv_rows(out_dir / "comparison.csv"):
            if int(row["n"]) != oracle[row["stratum"]][row["group"]]["n"]:
                problems.append(f"compare: {row['stratum']}/{row['group']} n = {row['n']}")
        for row in outputs.read_csv_rows(out_dir / "persistence.csv"):
            k = row["transition"][1]
            for group in ("unexposed", "exposed"):
                expected = oracle[row["stratum"]][group]["persistence"][k]
                if not outputs.close(float(row[group]), expected):
                    problems.append(f"compare: {row['stratum']} {group} Y{k} persistence {row[group]} vs {expected}")
        for path in sorted(out_dir.glob("ensemble_*.csv")):
            problems += self.check_ensemble(path, W.ANALYSIS_B)
        return problems

    def check_plot(self, out_dir, _stdout):
        svg = outputs.summarize_svg(out_dir / "kde.svg")
        inputs = sum(1 for a in W.commands(self.workload, self.index, self.work)[-1][1] if a == "--input")
        if len(svg["curves"]) + svg["markers"] != inputs:
            return [f"plot: {len(svg['curves'])} curves and {svg['markers']} markers for {inputs} ensembles"]
        return []

    def check_synth(self, out_dir, _stdout):
        meta = outputs.summarize_metadata(out_dir / "metadata.txt")
        problems = []
        if int(meta.get("students", -1)) != self.refs["students"]:
            problems.append(f"synth: students = {meta.get('students')}")
        if not outputs.close(float(meta.get("true_sygr", "nan")), self.refs["true_sygr"]):
            problems.append(f"synth: true_sygr = {meta.get('true_sygr')}")
        return problems

    def check_setup_panel(self):
        """The set-up panel is the generator's output, so it has golden values too."""
        golden = self.golden.get(str(self.index), {}).get("setup")
        actual = {"panel.csv": outputs.summarize_panel(self.work / "panel.csv")}
        if golden is None:
            return [f"set-up: no golden values for input {self.index}"]
        return outputs.diff(golden, actual, "setup")

    def check_world(self, world):
        golden = self.golden.get(str(world["world"]))
        summary = world["summary"]
        problems = outputs.diff(golden, summary, f"world {world['world']}") if golden else [
            f"world {world['world']}: no golden values"
        ]
        oracle = world["oracle_point"]
        if oracle is None or not outputs.close(summary["point"], oracle):
            problems.append(f"world {world['world']}: point {summary['point']} vs oracle {oracle}")
        if summary["n_failed"] > FAILURE_CEILING * W.COVERAGE_B:
            problems.append(f"world {world['world']}: {summary['n_failed']} replicates failed")
        return problems

    # -- the loops --------------------------------------------------------------

    def measure_cli(self, seconds, trace):
        """Passes until `seconds` have passed. With trace, untraced and
        traced passes alternate."""
        trace_dir = self.work / "trace"
        trace_dir.mkdir(exist_ok=True)
        plain, traced = [], []
        start = time.perf_counter()
        n = 0
        while not (plain and (traced or not trace)) or time.perf_counter() - start < seconds:
            use_trace = trace and len(traced) < len(plain)
            t, rss, results = self.cli_pass(f"pass{n}", trace_dir if use_trace else None)
            (traced if use_trace else plain).append((t, rss, results))
            n += 1
        return plain, traced, trace_dir

    def plot_rss_check(self, estimate_rss):
        """plot reads two 200-row ensembles; from a lean driver its peak RSS
        must stay below estimate's on the 100k panel."""
        est = self.work / "est"
        argv = [sys.executable, "-m", "cohortchain.cli", "plot", "--out", str(self.work / "plot-check"),
                "--input", str(est / "ensemble_traditional.csv"), "--input", str(est / "ensemble_markov-full.csv")]
        _t, rss, code, out = run_process(argv, self.work / "plot-check")
        problems = [] if code == 0 else [f"plot check: {out.strip()[-300:]}"]
        if rss >= estimate_rss:
            problems.append(f"plot peak RSS {rss:.1f} MB not below estimate's {estimate_rss:.1f} MB")
        self.op(problems)
        return rss


def median(values):
    return statistics.median(values) if values else float("nan")


def environment(refs, workload, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).exists():
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": refs.get("numpy", "unknown"),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "input": W.input_index(seed),
        "threads": {var: "1" for var in THREAD_VARS},
    }


def trace_metrics(traces, pass_walls, plain_walls, output_bytes):
    """Per-layer metrics per pass, summed over the traced processes."""
    names, layers, calls, sizes = {}, Counter(), Counter(), Counter()
    for path in traces:
        data = json.loads(Path(path).read_text())
        for name, entry in data["names"].items():
            agg = names.setdefault(name, Counter())
            agg.update(entry)
        layers.update(data["layers"])
        calls.update(data["calls"])
        for name, entry in data["sizes"].items():
            sizes.update({f"{name}.{k}": v for k, v in entry.items()})
    n = len(pass_walls)
    wall = median(pass_walls)

    def per_pass(value):
        return value / n

    def name_value(name, key):
        return per_pass(names.get(name, {}).get(key, 0))

    m = {}
    for name in SPANS:
        m[f"{name}.busy_s"] = (name_value(name, "busy_s"), "s")
    m["records.parse_records.rows"] = (per_pass(sizes["records.parse_records.rows"]), "count")
    m["records.derive_transitions.calls"] = (per_pass(calls["records.derive_transitions"]), "count")
    m["synth.generate_panel.records"] = (per_pass(sizes["synth.generate_panel.rows"]), "count")
    m["estimate.from_indices.busy_s"] = (name_value("estimate.from_indices", "busy_s"), "s")
    m["estimate.from_indices.self_s"] = (name_value("estimate.from_indices", "self_s"), "s")
    m["markov.build_matrix.calls"] = (name_value("markov.build_matrix", "calls"), "count")
    m["bootstrap.bootstrap.self_s"] = (name_value("bootstrap.bootstrap", "self_s"), "s")
    attempted = sizes["bootstrap.bootstrap.attempted"]
    m["bootstrap.replicates"] = (per_pass(attempted), "count")
    m["bootstrap.useful_ratio"] = (sizes["bootstrap.bootstrap.retained"] / attempted if attempted else 0.0, "ratio")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_s"] = (name_value(f"cli.cmd_{command}", "busy_s"), "s")
        m[f"cli.{command}.self_s"] = (name_value(f"cli.cmd_{command}", "self_s"), "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    for layer in ("records", "synth", "estimate", "bootstrap", "markov", "svgplot", "cli"):
        m[f"layer.{layer}.self_s"] = (per_pass(layers[layer]), "s")
        m[f"layer.{layer}.share"] = (per_pass(layers[layer]) / wall, "ratio")
    core = sum(name_value(f"estimate.{k}", "busy_s") for k in ("point", "contributions", "from_indices"))
    m["estimate.core.share"] = (core / wall, "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (median(plain_walls), "s")
    m["trace.overhead_s"] = (wall - median(plain_walls), "s")
    return m


def layer_self_check(workload, m):
    """Does the workload still load the layer it was chosen for?"""
    shares = {k.split(".")[1]: v for k, (v, _u) in m.items() if k.startswith("layer.") and k.endswith(".share")}
    largest = max(shares, key=shares.get)
    checks = []
    if workload == "coverage_1k":
        checks.append(("markov is the largest layer", largest == "markov"))
    if workload == "estimate_100k":
        checks.append(("markov under 2% of the pass", shares["markov"] < 0.02))
        checks.append(("point + contributions + from_indices carry most of the pass",
                       m["estimate.core.share"][0] > 0.5))
    return largest, checks


def dir_bytes(dirs):
    return sum(p.stat().st_size for d in dirs if d.exists() for p in d.rglob("*") if p.is_file())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cohortchain" / "cli.py").is_file():
        sys.stderr.write(f"no cohortchain sources under {SRC}; run from the root of a checkout\n")
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, Run(args.workload, args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there


def measure(args, run):
    workload, trace = args.workload, bool(args.trace)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        seconds, ok = run.set_up()
        if not ok:
            print("\n".join(run.problems))
            return 1
        setups.append(seconds)
    if workload in ("estimate_100k", "analysis_la"):
        run.op(run.check_setup_panel())

    env = environment(run.refs, workload, args.seed)
    print("environment: " + json.dumps(env))

    rss_values, plain_walls, traced_walls, traces = [], [], [], []
    output_bytes = 0
    if workload == "coverage_1k":
        argv = [sys.executable, str(HERE / "worlds.py"), str(run.work), str(args.seed), str(args.seconds), str(args.trace)]
        _t, rss, code, out = run_process(argv, run.work / "coverage")
        if run.op([] if code == 0 else [f"coverage worker: {out.strip()[-300:]}"]):
            worlds = json.loads((run.work / "coverage.json").read_text())["worlds"]
            for world in worlds:
                run.op(run.check_world(world))
                (traced_walls if world["traced"] else plain_walls).append(world["seconds"])
            if trace:
                traces = [run.work / "coverage.trace.json"]
        rss_values.append(rss)
    else:
        plain, traced, trace_dir = run.measure_cli(args.seconds, trace)
        plain_walls = [t for t, _rss, _r in plain]
        traced_walls = [t for t, _rss, _r in traced]
        rss_values = [rss for _t, rss, _r in plain]
        traces = sorted(trace_dir.glob("*.json"))
        last = (traced or plain)[-1][2]
        output_bytes = dir_bytes({out_dir for _n, out_dir, *_ in last})
        if workload == "estimate_100k":
            plot_rss = run.plot_rss_check(median(rss_values))
            print(f"self-check: plot peak RSS {plot_rss:.1f} MB vs estimate {median(rss_values):.1f} MB")

    for problem in run.problems:
        print(f"problem: {problem}")
    if not plain_walls or (trace and not traced_walls):
        print("no pass completed")
        return 1
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
    }
    if not trace:
        wall = median(plain_walls)
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (median(rss_values), "MB"),
        }
        shown = dict(metrics)
        replicates = W.replicates_per_pass(workload)
        if replicates:
            shown["replicates_per_s"] = (replicates / wall, "1/s")
        if workload == "synth_100k":
            shown["records_per_s"] = (run.refs["students"] / wall, "1/s")
        shown["fail_ratio"] = (run.failed / run.attempted, "ratio")
        print(f"passes: {len(plain_walls)}, setups: {len(setups)}")
    else:
        metrics = trace_metrics(traces, traced_walls, plain_walls, output_bytes)
        shown = dict(metrics)
        largest, checks = layer_self_check(workload, metrics)
        print(f"self-check: largest layer {largest}")
        for text, ok in checks:
            print(f"self-check: {text}: {'yes' if ok else 'NO'}")
        print(f"passes: {len(plain_walls)} untraced, {len(traced_walls)} traced")
    for name, (value, unit) in shown.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
