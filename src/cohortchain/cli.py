"""Command-line front end.

Commands: estimate, validate, compare, synth, plot. Every run is
deterministic given its flags (including the seed); a plain-text metadata
sidecar records the resolved configuration hash, seed, and tool version
next to each output set. Rounded tables are derived from, and never
replace, the full-precision CSVs.

Each `cmd_<command>` only computes: it returns (exit code, files, stdout
text), files mapping output names to their text, and `main` alone creates
--out and writes the files and then stdout once the command has returned.
A file's text is a str, or an iterable of str pieces that `main` writes in
order as it draws them: synth's panel comes as pieces, so that no one holds
its whole text. Formatting a validated panel cannot raise, so drawing the
pieces only once --out exists keeps the rule that a run that fails creates
no --out; validate's FAIL (exit 3) still writes its report.

Exit codes: 0 success, 1 usage error, 2 data or estimation error or an
unwritable --out, 3 validation failure.
"""

import argparse
import hashlib
import io
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, bootstrap, bootstrap_each, kde, percentile_ci
from .errors import CohortChainError, DegenerateEnsemble, EnsembleTooSmall
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
    _format_pieces,
    _key_value_lines,
    _utf8_text,
    filter_subgroup,
    load_records,
)
from .svgplot import render_line_chart
from .synth import brute_force_sygr, format_generator_spec, generate_panel, load_generator_spec

POSITIVE_CONTROL_TOL = 1e-9
_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_REPEATABLE = ("input", "method")  # config keys whose flags collect every value
_NOT_FLAGS = ("command", "func")  # parsed attributes that no flag sets


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
    """load(path), with an unreadable file reported as a data error, and any
    data error of its content prefixed with the path."""
    try:
        return load(path)
    except OSError as exc:
        raise CohortChainError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CohortChainError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except CohortChainError as exc:
        raise CohortChainError(f"{path}: {exc}") from None


def _load_inputs(paths):
    """One panel of the rows of every input in turn, one row per student
    across them all, each input keeping the kinds it was read with; a data
    error names its file. A lone input's panel is returned as it was read."""
    seen, panels = set(), []
    for n, path in enumerate(paths, start=1):
        panels.append(_read(path, partial(load_records, seen=seen)))
        if n < len(paths):  # a later input reads the ids of those before it
            seen.update(panels[-1].ids)
    return Panel.concat(panels)


def _prepare(args):
    """Check the flags shared by the bootstrapping commands; returns their
    BootstrapConfig."""
    if not args.input:
        raise UsageError(f"{args.command} requires at least one --input")
    if args.horizon is None:
        raise UsageError(f"{args.command} requires --horizon")
    try:
        return BootstrapConfig(seed=args.seed, replicates=args.replicates, ci_level=args.ci)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _subgroup_spec(args):
    la_group = LaGroup(getattr(args, "la", "all"))  # compare has no --la
    return SubgroupSpec(args.aalana, args.first_gen, args.college, la_group)


def _select(records, spec):
    """The records that match spec; matching none is a data error."""
    members = filter_subgroup(records, spec)
    if not members:
        raise CohortChainError(f"no records match the subgroup filters ({len(records)} loaded)")
    return members


def _estimator_for(method, spec, horizon, cohort=None):
    """method's estimator of the group spec selects: an exposed group's full
    chain starts at each student's first LA year."""
    if method == "traditional":
        return TraditionalEstimator(cohort, horizon)
    if method == "markov-reduced":
        return MarkovReducedEstimator(cohort, horizon)
    return MarkovFullEstimator(horizon, from_la_year=spec.la_group is LaGroup.EXPOSED)


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
    for i, method in enumerate(methods):
        if method in methods[:i]:
            raise UsageError(f"--method {method} is given twice")
    if any(m in ("traditional", "markov-reduced") for m in methods) and args.cohort is None:
        raise UsageError("--cohort is required for traditional and markov-reduced")
    spec = _subgroup_spec(args)
    # only the filtered panel is kept, so a loaded one that the filter cuts is freed
    # before the bootstrap; with no filter it is the loaded panel itself
    records = _select(_load_inputs(args.input), spec)
    estimators = [_estimator_for(m, spec, args.horizon, args.cohort) for m in methods]
    summaries = bootstrap_each(records, estimators, cfg)
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


def run_comparison(records, spec, horizon, cfg, stratum):
    """One exposed-vs-unexposed comparison within the stratum spec selects,
    each group run as `estimate --la <group> --method markov-full` with a seed
    of its own; returns (unexposed, exposed, (lo, median, hi)), each group
    (n, summary, persistence_rates of the tally its bootstrap fitted) and the
    percentile interval of the paired differences, exposed minus unexposed."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2, dtype=np.uint64)
    groups = []
    for la_group, seed in zip((LaGroup.UNEXPOSED, LaGroup.EXPOSED), seeds):
        arm = replace(spec, la_group=la_group)
        try:
            members = _select(records, arm)
            summary = bootstrap(members, _estimator_for("markov-full", arm, horizon),
                                replace(cfg, seed=int(seed)))
        except CohortChainError as exc:
            raise CohortChainError(f"{stratum}: {la_group.value} group: {exc}") from None
        groups.append((len(members), summary, persistence_rates(summary.tally)))
    (_, s_un, _), (_, s_ex, _) = groups
    return (*groups, percentile_ci(_paired_difference(s_un, s_ex), cfg.ci_level))


def cmd_compare(args):
    cfg = _prepare(args)
    records = _load_inputs(args.input)

    spec = _subgroup_spec(args)
    strata = [("all", spec)]
    if args.strata:  # within the records the other subgroup flags select
        strata += [("aalana", replace(spec, aalana_only=True)),
                   ("first_gen", replace(spec, first_gen_only=True))]

    comparison = [("stratum", "group", "n", "p2_5", "median", "p97_5", "width")]
    difference = [("stratum", "median_diff", "diff_p2_5", "diff_median", "diff_p97_5",
                   "ci_overlap")]
    persistence = [("stratum", "transition", "unexposed", "exposed", "difference")]
    txt = ["Stratum     Transition  no-LA  LA  Difference (LA - no-LA)"]
    ensembles, stdout, results = {}, [], {}
    for stratum, spec in strata:
        # a stratum whose filter repeats an earlier one's reuses its result
        if spec not in results:
            results[spec] = run_comparison(records, spec, args.horizon, cfg, stratum)
        *groups, diff = results[spec]
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
    spec = _read(args.spec, load_generator_spec)
    panel = generate_panel(spec)
    extra = [("students", len(panel)), ("true_sygr", _fmt(brute_force_sygr(spec.true_matrix)))]
    if spec.effect_matrix is not None:
        extra.append(("true_effect_sygr", _fmt(brute_force_sygr(spec.effect_matrix))))
    extra.append(("generator_seed", spec.seed))
    extra.append(("generator_spec", repr(format_generator_spec(spec))))
    files = {"panel.csv": _format_pieces(panel), "metadata.txt": _metadata(args, extra)}
    return 0, files, f"wrote {len(panel)} records to {Path(args.out) / 'panel.csv'}\n"


def _read_ensemble_csv(path):
    # newline=None splits the lines as open() does: at a LF, a CRLF or a CR
    lines = io.StringIO(_utf8_text(path), newline=None)
    if lines.readline().strip() != "replicate,estimate":
        raise CohortChainError("expected header 'replicate,estimate'")
    values, first_line = [], {}
    for line_no, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            replicate, value = line.split(",")
            replicate, value = int(replicate), float(value)
            if replicate < 1 or not 0.0 <= value <= 1.0:
                raise ValueError(line)
        except ValueError:
            raise CohortChainError(
                f"line {line_no}: expected 'replicate,estimate' with an estimate in [0, 1]"
            ) from None
        if (first := first_line.setdefault(replicate, line_no)) != line_no:
            raise CohortChainError(f"line {line_no}: replicate {replicate} repeats line {first}")
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

    files, curves, markers = {}, [], []
    for path, label in zip(args.input, labels):
        values = _read(path, _read_ensemble_csv)
        try:
            xs, dens = kde(values, args.bandwidth)
        except DegenerateEnsemble:
            markers.append((label, float(values[0])))
            continue
        except EnsembleTooSmall as exc:
            raise CohortChainError(f"{path}: {exc}") from None
        files[f"kde_{label}.csv"] = _csv([("x", "density"), *zip(xs, dens)])
        curves.append((label, xs, dens))

    files["kde.svg"] = render_line_chart(curves, markers)
    files["metadata.txt"] = _metadata(args)
    return 0, files, f"wrote {Path(args.out) / 'kde.svg'}\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class _Once(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise UsageError(f"{option_string} may be given once")
        setattr(namespace, self.dest, value)


def build_parser():
    parser = _Parser(prog="cohortchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    def common(p, bootstrap_flags=True):
        p.add_argument("--input", action="append", default=None, help="input CSV (repeatable)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", action=_Once, help="key = value config file, given once; "
                       "flags override")
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
                   help="also compare aalana and first-gen strata within the other filters")
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
    """(line number, key, value) of each `key = value` line, in file order."""
    try:
        text = _utf8_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path}: not UTF-8 text (byte {exc.start})") from None
    for line_no, key, value in _key_value_lines(text):
        if key is None:
            raise UsageError(f"{path}:{line_no}: expected key = value")
        yield line_no, key.replace("-", "_"), value


def _parse_args(parser, argv):
    """Parse argv; with --config, parse again with the file's settings
    inserted as flags right after the command name. Explicit flags come
    later and so win, and repeatable flags (--input, --method) collect the
    file's values first; a config key, or any other key the file repeats, is
    a usage error. Keys the command does not take are ignored; an on/off
    switch takes 1, true, yes, 0, false or no, in any case."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    tokens, first_line = [], {}
    for line_no, key, value in _config_items(args.config):
        if key == "config":
            raise UsageError(f"{args.config}:{line_no}: a config file cannot name another")
        if key in _NOT_FLAGS or not hasattr(args, key):
            continue
        first = first_line.setdefault(key, line_no)
        if first != line_no and key not in _REPEATABLE:
            raise UsageError(f"{args.config}:{line_no}: {key} repeats line {first}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):  # an on/off switch
            on = _SWITCH.get(value.lower())
            if on is None:
                raise UsageError(f"{args.config}:{line_no}: {key} must be one of "
                                 f"{', '.join(_SWITCH)}, got {value!r}")
            if on:
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
            with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines((text,) if isinstance(text, str) else text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {exc.filename}: {exc.strerror or exc}\n")
        return 2
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
