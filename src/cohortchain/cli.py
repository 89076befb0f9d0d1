"""Command-line front end.

Commands: estimate, validate, compare, synth, plot. Every run is
deterministic given its flags (including the seed); a plain-text metadata
sidecar records the resolved configuration hash, seed, and tool version
next to each output set. Rounded tables are derived from, and never
replace, the full-precision CSVs.

Each `cmd_<command>` only computes: it returns (exit code, files, stdout
text), files mapping output names to their text, and `main` alone creates
--out and writes the files and then stdout once the command has returned.
A run that fails creates no --out; validate's FAIL (exit 3) still writes
its report.

Exit codes: 0 success, 1 usage error, 2 data or estimation error or an
unwritable --out, 3 validation failure.
"""

import argparse
import hashlib
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, bootstrap, bootstrap_each, kde, percentile_ci
from .errors import (
    CohortChainError,
    DegenerateEnsemble,
    DuplicateId,
    InvariantViolation,
    ParseError,
    SpecFileError,
)
from .estimate import (
    MarkovFullEstimator,
    MarkovReducedEstimator,
    TraditionalEstimator,
    persistence_rates,
)
from .records import (
    LaGroup,
    Panel,
    SubgroupSpec,
    filter_subgroup,
    format_records,
    load_records,
)
from .svgplot import render_line_chart
from .synth import brute_force_sygr, format_generator_spec, load_generator_spec, simulate

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


def _metadata(args, extra=()):
    items = sorted(
        f"{k}={v}" for k, v in vars(args).items() if k not in ("func", "out") and v is not None
    )
    digest = hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()
    lines = [
        f"version = {__version__}",
        f"seed = {getattr(args, 'seed', '')}",
        f"config_hash = {digest}",
    ]
    lines += [f"{k} = {v}" for k, v in extra]
    return "\n".join(lines) + "\n"


def _read(path, load):
    """load(path), with an unreadable file reported as a data error."""
    try:
        return load(path)
    except OSError as exc:
        raise CohortChainError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CohortChainError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_inputs(paths):
    """One panel of the rows of every input in turn, one row per student
    across them all; a data error names its file."""
    seen = set()
    panels = []
    for path in paths:
        try:
            panels.append(_read(path, partial(load_records, seen=seen)))
        except (ParseError, DuplicateId, InvariantViolation) as exc:
            raise CohortChainError(f"{path}: {exc}") from None
    return Panel.concat(panels)


def _prepare(args):
    """Check the flags shared by the bootstrapping commands; returns their
    BootstrapConfig."""
    if not args.input:
        raise UsageError(f"{args.command} requires at least one --input")
    if args.horizon is None:
        raise UsageError(f"{args.command} requires --horizon")
    return _bootstrap_cfg(args)


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
    cfg = _prepare(args)
    methods = args.method or ["traditional", "markov-full"]
    if any(m in ("traditional", "markov-reduced") for m in methods) and args.cohort is None:
        raise UsageError("--cohort is required for traditional and markov-reduced")
    records = filter_subgroup(_load_inputs(args.input), _subgroup_spec(args))

    summaries = bootstrap_each(records, [_estimator_for(m, args) for m in methods], cfg)
    label = args.cohort if args.cohort is not None else "all"
    rows = [(label, method, summary) for method, summary in zip(methods, summaries)]
    files = {}
    if args.export_ensemble:
        files = {f"ensemble_{m}.csv": _ensemble_csv(s) for m, s in zip(methods, summaries)}
    full_csv, rounded_csv, rounded_txt = _summary_table(rows)
    files |= {"summary_full.csv": full_csv, "summary_rounded.csv": rounded_csv,
              "summary_rounded.txt": rounded_txt, "metadata.txt": _metadata(args)}
    return 0, files, rounded_txt


def cmd_validate(args):
    cfg = _prepare(args)
    records = _load_inputs(args.input)

    cohorts = sorted({r.cohort_year for r in records.kinds})
    complete = [c for c in cohorts if args.horizon >= c + 6]
    estimators = [
        est(c, args.horizon)
        for c in complete
        for est in (TraditionalEstimator, MarkovReducedEstimator)
    ]
    summaries = iter(bootstrap_each(records, estimators, cfg))
    rows = [("cohort", "status", "traditional", "markov_reduced", "abs_diff",
             "trad_ci_width", "markov_ci_width")]
    lines = []
    any_fail = False
    for cohort in cohorts:
        if cohort not in complete:
            rows.append((cohort, "SKIP", "", "", "", "", ""))
            lines.append(f"{cohort}: SKIP (fewer than six observed years)\n")
            continue
        s_trad, s_red = next(summaries), next(summaries)
        diff = abs(s_trad.point - s_red.point)
        ok = diff <= POSITIVE_CONTROL_TOL
        any_fail = any_fail or not ok
        status = "PASS" if ok else "FAIL"
        rows.append((cohort, status, s_trad.point, s_red.point, diff, s_trad.width, s_red.width))
        lines.append(
            f"{cohort}: {status} |traditional - reduced| = {diff:.3e} "
            f"(CI widths {s_trad.width:.4f} vs {s_red.width:.4f})\n"
        )
    files = {"validation.csv": _csv(rows), "metadata.txt": _metadata(args)}
    verdict = "FAIL" if any_fail else "PASS" if complete else "SKIP (no complete cohorts)"
    lines.append(verdict + "\n")
    return 3 if any_fail else 0, files, "".join(lines)


def _paired_difference(s_a, s_b):
    """Per-replicate differences b - a over the replicates that survived in both."""
    _, i_a, i_b = np.intersect1d(s_a.replicate_ids, s_b.replicate_ids, return_indices=True)
    return s_b.ensemble[i_b] - s_a.ensemble[i_a]


def run_comparison(records, args, stratum, extra_spec):
    """One exposed-vs-unexposed comparison within a stratum; returns
    (unexposed, exposed, (lo, median, hi)), each group (n, summary,
    persistence_rates) and the triple the percentile interval of the paired
    per-replicate difference, exposed minus unexposed."""
    base = filter_subgroup(records, extra_spec)
    seeds = np.random.SeedSequence(args.seed).generate_state(2, dtype=np.uint64)
    fits = []
    for name, seed in zip(("unexposed", "exposed"), seeds):
        members = filter_subgroup(base, SubgroupSpec(la_group=LaGroup(name)))
        if not members:
            raise UsageError(f"{stratum}: {name} group is empty")
        estimator = MarkovFullEstimator(args.horizon, from_la_year=(name == "exposed"))
        cfg = _bootstrap_cfg(args, int(seed))
        try:
            summary = bootstrap(members, estimator, cfg)
        except CohortChainError as exc:
            raise CohortChainError(f"{stratum}: {name} group: {exc}") from None
        fits.append((members, summary))
    (m_un, s_un), (m_ex, s_ex) = fits
    diff = percentile_ci(_paired_difference(s_un, s_ex), args.ci)
    return (
        (len(m_un), s_un, persistence_rates(m_un, args.horizon)),
        (len(m_ex), s_ex, persistence_rates(m_ex, args.horizon, from_la_year=True)),
        diff,
    )


def cmd_compare(args):
    _prepare(args)  # checks the flags; each group draws from a seed of its own
    records = _load_inputs(args.input)

    strata = [("all", SubgroupSpec(aalana_only=args.aalana, first_gen_only=args.first_gen,
                                   college=args.college))]
    if args.strata:
        strata += [("aalana", SubgroupSpec(aalana_only=True, college=args.college)),
                   ("first_gen", SubgroupSpec(first_gen_only=True, college=args.college))]

    comparison = [("stratum", "group", "n", "p2_5", "median", "p97_5", "width")]
    difference = [("stratum", "median_diff", "diff_p2_5", "diff_median", "diff_p97_5",
                   "ci_overlap")]
    persistence = [("stratum", "transition", "unexposed", "exposed", "difference")]
    txt = ["Stratum     Transition  no-LA  LA  Difference (LA - no-LA)"]
    ensembles, stdout = {}, []
    for stratum, spec in strata:
        *groups, diff = run_comparison(records, args, stratum, spec)
        for group, (n, s, _) in zip(("unexposed", "exposed"), groups):
            comparison.append((stratum, group, n, s.lo, s.median, s.hi, s.width))
            if args.export_ensemble:
                ensembles[f"ensemble_{stratum}_{group}.csv"] = _ensemble_csv(s)
        (_, s_un, per_un), (_, s_ex, per_ex) = groups
        median_diff = s_ex.median - s_un.median
        overlap = s_ex.lo <= s_un.hi and s_un.lo <= s_ex.hi
        difference.append((stratum, median_diff, *diff, "yes" if overlap else "no"))
        for k in range(1, 6):
            un, ex = per_un[k], per_ex[k]
            # a year no one in the group reached has no persistence estimate
            gap = un is None or ex is None
            persistence.append((stratum, f"Y{k}->Y{k + 1}", un, ex, None if gap else ex - un))
            txt_diff = "n/a" if gap else f"{round_pct(ex) - round_pct(un):+d}"
            txt.append(f"{stratum:<11} Y{k}->Y{k + 1:<6} {_pct(un):>5} {_pct(ex):>3} {txt_diff}")
        stdout.append(
            f"{stratum}: exposed median {100 * s_ex.median:.1f}% "
            f"({100 * s_ex.lo:.1f}-{100 * s_ex.hi:.1f}), "
            f"unexposed median {100 * s_un.median:.1f}% "
            f"({100 * s_un.lo:.1f}-{100 * s_un.hi:.1f}), "
            f"difference {100 * median_diff:+.1f} pp, "
            f"CIs {'overlap' if overlap else 'do not overlap'}\n"
        )

    files = {
        "comparison.csv": _csv(comparison),
        "difference.csv": _csv(difference),
        "persistence.csv": _csv(persistence),
        "persistence.txt": "\n".join(txt) + "\n",
        **ensembles,
        "metadata.txt": _metadata(args),
    }
    return 0, files, "".join(stdout)


def cmd_synth(args):
    if args.spec is None:
        raise UsageError("synth requires --spec")
    try:
        spec = _read(args.spec, load_generator_spec)
    except SpecFileError as exc:
        raise CohortChainError(f"{args.spec}: {exc}") from None
    panel = simulate(spec)
    extra = [
        ("students", len(panel)),
        ("true_sygr", _fmt(brute_force_sygr(spec.true_matrix))),
    ]
    if spec.effect_matrix is not None:
        extra.append(("true_effect_sygr", _fmt(brute_force_sygr(spec.effect_matrix))))
    extra.append(("generator_seed", spec.seed))
    extra.append(("generator_spec", repr(format_generator_spec(spec))))
    files = {"panel.csv": format_records(panel), "metadata.txt": _metadata(args, extra)}
    return 0, files, f"wrote {len(panel)} records to {Path(args.out) / 'panel.csv'}\n"


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

    files = {}
    curves = []
    markers = []
    for path, label in zip(args.input, labels):
        values = _read(path, _read_ensemble_csv)
        try:
            xs, dens = kde(values, args.bandwidth)
        except DegenerateEnsemble:
            markers.append((label, float(values[0])))
            continue
        files[f"kde_{label}.csv"] = _csv([("x", "density"), *zip(xs, dens)])
        curves.append((label, xs, dens))

    files["kde.svg"] = render_line_chart(curves, markers)
    files["metadata.txt"] = _metadata(args)
    return 0, files, f"wrote {Path(args.out) / 'kde.svg'}\n"


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
        code, files, stdout = args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except CohortChainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {exc.filename}: {exc.strerror or exc}\n")
        return 2
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
