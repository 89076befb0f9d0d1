"""Command-line front end.

Commands: estimate, validate, compare, synth, plot. Every run is
deterministic given its flags (including the seed); a plain-text metadata
sidecar records the resolved configuration hash, seed, and tool version
next to each output set. Rounded tables are derived from, and never
replace, the full-precision CSVs.

Exit codes: 0 success, 1 usage error, 2 data or estimation error,
3 validation failure.
"""

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, bootstrap, bootstrap_each, kde, percentile_ci
from .errors import CohortChainError, DegenerateEnsemble
from .estimate import (
    MarkovFullEstimator,
    MarkovReducedEstimator,
    TraditionalEstimator,
    persistence_rates,
)
from .records import LaGroup, SubgroupSpec, filter_subgroup, format_records, load_records
from .svgplot import render_line_chart
from .synth import brute_force_sygr, format_generator_spec, generate_panel, load_generator_spec

POSITIVE_CONTROL_TOL = 1e-9


class UsageError(CohortChainError):
    pass


def _fmt(v):
    return format(float(v), ".12g")


def round_pct(rate):
    """Nearest-integer percentage point, half away from zero."""
    return int(math.floor(rate * 100.0 + 0.5))


def _pct(rate):
    return "n/a" if rate is None else round_pct(rate)


def _csv(rows):
    """CSV text of rows of cells: floats at full precision, None as n/a,
    anything else as its str."""
    return "".join(
        ",".join(
            _fmt(v) if isinstance(v, float) else "n/a" if v is None else str(v) for v in row
        ) + "\n"
        for row in rows
    )


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_metadata(out_dir, args, extra=()):
    items = sorted(
        f"{k}={v}" for k, v in vars(args).items() if k != "func" and v is not None
    )
    digest = hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()
    lines = [
        f"version = {__version__}",
        f"seed = {getattr(args, 'seed', '')}",
        f"config_hash = {digest}",
    ]
    lines += [f"{k} = {v}" for k, v in extra]
    _write(Path(out_dir) / "metadata.txt", "\n".join(lines) + "\n")


def _read(path, load):
    """load(path), with an unreadable file reported as a data error."""
    try:
        return load(path)
    except OSError as exc:
        raise CohortChainError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CohortChainError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_inputs(paths):
    records = []
    for path in paths:
        records.extend(_read(path, load_records))
    return records


def _prepare(args):
    """The preamble of the bootstrapping commands: check the shared flags,
    load the inputs and make --out. Returns (cfg, records, out_dir)."""
    if not args.input:
        raise UsageError(f"{args.command} requires at least one --input")
    if args.horizon is None:
        raise UsageError(f"{args.command} requires --horizon")
    cfg = _bootstrap_cfg(args)
    records = _load_inputs(args.input)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, records, out_dir


def _subgroup_spec(args):
    return SubgroupSpec(
        aalana_only=args.aalana,
        first_gen_only=args.first_gen,
        college=args.college,
        la_group=LaGroup(args.la),
    )


def _bootstrap_cfg(args, seed=None):
    try:
        return BootstrapConfig(
            seed=args.seed if seed is None else seed,
            replicates=args.replicates,
            ci_level=args.ci,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _estimator_for(method, args):
    if method == "traditional":
        return TraditionalEstimator(args.cohort, args.horizon)
    if method == "markov-reduced":
        return MarkovReducedEstimator(args.cohort, args.horizon)
    if method == "markov-full":
        return MarkovFullEstimator(
            args.horizon, from_la_year=(args.la == "exposed")
        )
    raise UsageError(f"unknown method {method!r}")


def _summary_table(rows):
    """rows: (cohort_label, method, summary). Returns (full_csv, rounded_csv,
    rounded_txt)."""
    header = ("cohort", "method", "p2_5", "median", "p97_5", "width")
    full = [(label, method, s.lo, s.median, s.hi, s.width) for label, method, s in rows]
    rounded = [
        (str(label), method, *(str(round_pct(v)) for v in (s.lo, s.median, s.hi, s.width)))
        for label, method, s in rows
    ]
    txt_rows = [("Cohort", "Method", "2.5th", "Median", "97.5th", "Width"), *rounded]
    widths = [max(len(r[i]) for r in txt_rows) for i in range(6)]
    txt = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in txt_rows
    )
    return _csv([header, *full]), _csv([header, *rounded]), txt + "\n"


def _ensemble_csv(summary):
    return _csv([("replicate", "estimate"), *zip(summary.replicate_ids, summary.ensemble)])


def cmd_estimate(args):
    cfg, records, out_dir = _prepare(args)
    records = filter_subgroup(records, _subgroup_spec(args))

    methods = args.method or ["traditional", "markov-full"]
    if any(m in ("traditional", "markov-reduced") for m in methods) and args.cohort is None:
        raise UsageError("--cohort is required for traditional and markov-reduced")

    # build every estimator and run every bootstrap before writing, so that
    # a failed run leaves no partial output
    summaries = bootstrap_each(records, [_estimator_for(m, args) for m in methods], cfg)
    label = args.cohort if args.cohort is not None else "all"
    rows = [(label, method, summary) for method, summary in zip(methods, summaries)]
    if args.export_ensemble:
        for method, summary in zip(methods, summaries):
            _write(out_dir / f"ensemble_{method}.csv", _ensemble_csv(summary))

    full_csv, rounded_csv, rounded_txt = _summary_table(rows)
    _write(out_dir / "summary_full.csv", full_csv)
    _write(out_dir / "summary_rounded.csv", rounded_csv)
    _write(out_dir / "summary_rounded.txt", rounded_txt)
    _write_metadata(out_dir, args)
    sys.stdout.write(rounded_txt)
    return 0


def cmd_validate(args):
    cfg, records, out_dir = _prepare(args)

    cohorts = sorted({r.cohort_year for r in records})
    complete = [c for c in cohorts if args.horizon >= c + 6]
    estimators = [
        est(c, args.horizon)
        for c in complete
        for est in (TraditionalEstimator, MarkovReducedEstimator)
    ]
    summaries = iter(bootstrap_each(records, estimators, cfg))
    rows = [("cohort", "status", "traditional", "markov_reduced", "abs_diff",
             "trad_ci_width", "markov_ci_width")]
    any_fail = False
    for cohort in cohorts:
        if cohort not in complete:
            rows.append((cohort, "SKIP", "", "", "", "", ""))
            sys.stdout.write(f"{cohort}: SKIP (fewer than six observed years)\n")
            continue
        s_trad, s_red = next(summaries), next(summaries)
        diff = abs(s_trad.point - s_red.point)
        ok = diff <= POSITIVE_CONTROL_TOL
        any_fail = any_fail or not ok
        status = "PASS" if ok else "FAIL"
        rows.append((cohort, status, s_trad.point, s_red.point, diff, s_trad.width, s_red.width))
        sys.stdout.write(
            f"{cohort}: {status} |traditional - reduced| = {diff:.3e} "
            f"(CI widths {s_trad.width:.4f} vs {s_red.width:.4f})\n"
        )
    _write(out_dir / "validation.csv", _csv(rows))
    _write_metadata(out_dir, args)
    if any_fail:
        sys.stdout.write("FAIL\n")
        return 3
    sys.stdout.write("PASS\n" if complete else "SKIP (no complete cohorts)\n")
    return 0


def _paired_difference(s_a, s_b):
    """Per-replicate differences for replicates that survived in both."""
    ids_a = {int(b): v for b, v in zip(s_a.replicate_ids, s_a.ensemble)}
    diffs = [
        v - ids_a[int(b)]
        for b, v in zip(s_b.replicate_ids, s_b.ensemble)
        if int(b) in ids_a
    ]
    return np.array(diffs)


def run_comparison(records, args, stratum, extra_spec):
    """One exposed-vs-unexposed comparison within a stratum; returns a dict
    of summaries and difference statistics."""
    base = filter_subgroup(records, extra_spec)
    seeds = np.random.SeedSequence(args.seed).generate_state(2, dtype=np.uint64)
    groups = {}
    for name, la_group, seed in (
        ("unexposed", LaGroup.UNEXPOSED, int(seeds[0])),
        ("exposed", LaGroup.EXPOSED, int(seeds[1])),
    ):
        members = filter_subgroup(base, SubgroupSpec(la_group=la_group))
        if not members:
            raise UsageError(f"{stratum}: {name} group is empty")
        estimator = MarkovFullEstimator(
            args.horizon, from_la_year=(la_group is LaGroup.EXPOSED)
        )
        groups[name] = (members, bootstrap(members, estimator, _bootstrap_cfg(args, seed)))

    s_un, s_ex = groups["unexposed"][1], groups["exposed"][1]
    diff_ens = _paired_difference(s_un, s_ex)
    d_lo, d_med, d_hi = percentile_ci(diff_ens, args.ci)
    persistence = {
        name: persistence_rates(
            members, args.horizon, from_la_year=(name == "exposed")
        )
        for name, (members, _s) in groups.items()
    }
    return {
        "stratum": stratum,
        "unexposed": s_un,
        "exposed": s_ex,
        "n_unexposed": len(groups["unexposed"][0]),
        "n_exposed": len(groups["exposed"][0]),
        "median_diff": s_ex.median - s_un.median,
        "diff_lo": d_lo,
        "diff_median": d_med,
        "diff_hi": d_hi,
        "ci_overlap": (s_ex.lo <= s_un.hi) and (s_un.lo <= s_ex.hi),
        "persistence": persistence,
    }


def cmd_compare(args):
    _cfg, records, out_dir = _prepare(args)  # each group draws from a seed of its own

    strata = [
        (
            "all",
            SubgroupSpec(
                aalana_only=args.aalana,
                first_gen_only=args.first_gen,
                college=args.college,
            ),
        )
    ]
    if args.strata:
        strata.append(("aalana", SubgroupSpec(aalana_only=True, college=args.college)))
        strata.append(("first_gen", SubgroupSpec(first_gen_only=True, college=args.college)))

    results = [run_comparison(records, args, name, spec) for name, spec in strata]

    rows = [("stratum", "group", "n", "p2_5", "median", "p97_5", "width")]
    rows += [
        (res["stratum"], group, res["n_" + group], s.lo, s.median, s.hi, s.width)
        for res in results
        for group in ("unexposed", "exposed")
        for s in [res[group]]
    ]
    _write(out_dir / "comparison.csv", _csv(rows))

    rows = [("stratum", "median_diff", "diff_p2_5", "diff_median", "diff_p97_5", "ci_overlap")]
    rows += [
        (res["stratum"], res["median_diff"], res["diff_lo"], res["diff_median"],
         res["diff_hi"], "yes" if res["ci_overlap"] else "no")
        for res in results
    ]
    _write(out_dir / "difference.csv", _csv(rows))

    rows = [("stratum", "transition", "unexposed", "exposed", "difference")]
    txt = ["Stratum     Transition  no-LA  LA  Difference (LA - no-LA)"]
    for res in results:
        per = res["persistence"]
        for k in range(1, 6):
            un, ex = per["unexposed"][k], per["exposed"][k]
            # a year no one in the group reached has no persistence estimate
            if un is None or ex is None:
                csv_diff = txt_diff = "n/a"
            else:
                csv_diff = ex - un
                txt_diff = f"{round_pct(ex) - round_pct(un):+d}"
            rows.append((res["stratum"], f"Y{k}->Y{k + 1}", un, ex, csv_diff))
            txt.append(
                f"{res['stratum']:<11} Y{k}->Y{k + 1:<6} {_pct(un):>5} "
                f"{_pct(ex):>3} {txt_diff}"
            )
    _write(out_dir / "persistence.csv", _csv(rows))
    _write(out_dir / "persistence.txt", "\n".join(txt) + "\n")

    if args.export_ensemble:
        for res in results:
            for group in ("unexposed", "exposed"):
                name = f"ensemble_{res['stratum']}_{group}.csv"
                _write(out_dir / name, _ensemble_csv(res[group]))

    _write_metadata(out_dir, args)
    for res in results:
        sys.stdout.write(
            f"{res['stratum']}: exposed median {100 * res['exposed'].median:.1f}% "
            f"({100 * res['exposed'].lo:.1f}-{100 * res['exposed'].hi:.1f}), "
            f"unexposed median {100 * res['unexposed'].median:.1f}% "
            f"({100 * res['unexposed'].lo:.1f}-{100 * res['unexposed'].hi:.1f}), "
            f"difference {100 * res['median_diff']:+.1f} pp, "
            f"CIs {'overlap' if res['ci_overlap'] else 'do not overlap'}\n"
        )
    return 0


def cmd_synth(args):
    if args.spec is None:
        raise UsageError("synth requires --spec")
    spec = _read(args.spec, load_generator_spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = generate_panel(spec)
    _write(out_dir / "panel.csv", format_records(records))
    extra = [
        ("students", len(records)),
        ("true_sygr", _fmt(brute_force_sygr(spec.true_matrix))),
    ]
    if spec.effect_matrix is not None:
        extra.append(("true_effect_sygr", _fmt(brute_force_sygr(spec.effect_matrix))))
    extra.append(("generator_seed", spec.seed))
    extra.append(("generator_spec", repr(format_generator_spec(spec))))
    _write_metadata(out_dir, args, extra)
    sys.stdout.write(f"wrote {len(records)} records to {out_dir / 'panel.csv'}\n")
    return 0


def _read_ensemble_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "replicate,estimate":
            raise CohortChainError(f"{path}: expected header 'replicate,estimate'")
        values = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                replicate, value = line.split(",")
                value = float(value)
                if int(replicate) < 1 or not math.isfinite(value):
                    raise ValueError(line)
            except ValueError:
                raise CohortChainError(
                    f"{path}: line {line_no}: expected 'replicate,estimate' "
                    "with a finite estimate"
                ) from None
            values.append(value)
    return np.array(values)


def cmd_plot(args):
    if not args.input:
        raise UsageError("plot requires at least one --input ensemble CSV")
    if args.bandwidth is not None and not (math.isfinite(args.bandwidth) and args.bandwidth > 0):
        raise UsageError(f"--bandwidth must be a positive number, got {args.bandwidth}")
    labels = [Path(path).stem for path in args.input]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise UsageError(
                f"two --input files share the stem {label!r}, which names "
                "a density file and a legend entry"
            )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    curves = []
    markers = []
    for path, label in zip(args.input, labels):
        values = _read(path, _read_ensemble_csv)
        try:
            xs, dens = kde(values, args.bandwidth)
        except DegenerateEnsemble:
            markers.append((label, float(values[0])))
            continue
        _write(out_dir / f"kde_{label}.csv", _csv([("x", "density"), *zip(xs, dens)]))
        curves.append((label, xs, dens))

    svg = render_line_chart(
        curves,
        markers,
        title="Six-year graduation rate",
        x_label="Six-year graduation rate (%)",
        y_label="Density",
    )
    _write(out_dir / "kde.svg", svg)
    _write_metadata(out_dir, args)
    sys.stdout.write(f"wrote {out_dir / 'kde.svg'}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="cohortchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def common(p, bootstrap_flags=True):
        p.add_argument("--input", action="append", default=None, help="input CSV (repeatable)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None, help="key = value config file; flags override")
        p.add_argument("--seed", type=int, default=0)
        if bootstrap_flags:
            p.add_argument("--replicates", type=int, default=1000)
            p.add_argument("--ci", type=float, default=0.95)
            p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("estimate", help="bootstrap SYGR estimates per method")
    common(p)
    p.add_argument("--cohort", type=int, default=None)
    p.add_argument(
        "--method",
        action="append",
        choices=["traditional", "markov-reduced", "markov-full"],
        default=None,
    )
    p.add_argument("--aalana", action="store_true")
    p.add_argument("--first-gen", dest="first_gen", action="store_true")
    p.add_argument("--college", default=None)
    p.add_argument("--la", choices=["exposed", "unexposed", "all"], default="all")
    p.add_argument("--export-ensemble", dest="export_ensemble", action="store_true")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate", help="positive control: reduced chain vs traditional")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="LA-exposed vs unexposed group comparison")
    common(p)
    p.add_argument("--aalana", action="store_true")
    p.add_argument("--first-gen", dest="first_gen", action="store_true")
    p.add_argument("--college", default=None)
    p.add_argument("--strata", action="store_true",
                   help="also compare within aalana and first-gen strata")
    p.add_argument("--export-ensemble", dest="export_ensemble", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic panel from a generator spec")
    common(p, bootstrap_flags=False)
    p.add_argument("--spec", default=None, help="generator spec file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("plot", help="KDE curves for exported ensembles")
    common(p, bootstrap_flags=False)
    p.add_argument("--bandwidth", type=float, default=None)
    p.set_defaults(func=cmd_plot)

    return parser


def _config_items(path):
    """(key, value) pairs of a `key = value` config file, in file order."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path}: not UTF-8 text (byte {exc.start})") from None
    items = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{line_no}: expected key = value")
        key, _, value = stripped.partition("=")
        items.append((key.strip().replace("-", "_"), value.strip()))
    return items


def _parse_args(parser, argv):
    """Parse argv; with --config, parse again with the file's settings
    inserted as flags right after the command name. Explicit flags come
    later and so win, and repeatable flags (--input, --method) collect the
    file's values first. Keys the command does not take are ignored."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    tokens = []
    for key, value in _config_items(args.config):
        if not hasattr(args, key):
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # an on/off switch
            if value.lower() in ("1", "true", "yes"):
                tokens.append(flag)
        else:
            tokens += [flag, value]
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        if not getattr(args, "func", None):
            parser.print_help()
            return 1
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except CohortChainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
