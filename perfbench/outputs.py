"""Numeric summaries of cohortchain output files, and their comparison.

Outputs are checked by value, never by byte digest: a later change may
legitimately move the last printed digit of a float. Floats compare to
1e-9 (relative or absolute), integers, replicate ids, row counts and
labels compare exactly.

Standard library only: the benchmark driver imports this module and must
stay lean, because a child's peak RSS starts at its parent's RSS.
"""

import csv
import math
import re
from collections import Counter
from pathlib import Path

TOL = 1e-9
# SVG coordinates are printed to two decimals, so one float digit moving
# can flip a rounding; allow a few such flips per sum (an absolute tolerance).
SVG_TOL = 0.05
SHORT = 64  # columns with at most this many rows are kept whole


def _number(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _summarize_column(name, values):
    nums = [_number(v) for v in values]
    if not values or any(n is None for n in nums):
        if len(values) <= SHORT:
            return list(values)
        return dict(sorted(Counter(values).items()))
    if name == "replicate":
        # ids run 1..B with gaps where a replicate failed; keep them exactly
        top = max(nums)
        return {"max": top, "missing": sorted(set(range(1, top + 1)) - set(nums))}
    if len(nums) <= SHORT:
        return nums
    floats = [float(n) for n in nums]
    return {
        "sum": math.fsum(floats),
        "weighted": math.fsum((i + 1) * v for i, v in enumerate(floats)),
        "min": min(floats),
        "max": max(floats),
    }


def summarize_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    out = {"header": header, "rows": len(body)}
    for j, name in enumerate(header):
        out[name] = _summarize_column(name, [r[j] for r in body])
    return out


def summarize_panel(path):
    """Per-cohort tallies of a student panel CSV, read as a stream so the
    caller never holds the panel."""
    cohorts = {}
    rows = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for sid, cohort, aalana, first_gen, college, la_year, outcome, year in reader:
            rows += 1
            c = cohorts.setdefault(cohort, Counter())
            c["n"] += 1
            c["outcome_" + outcome] += 1
            c["outcome_year_sum"] += int(year)
            c["aalana"] += aalana == "true"
            c["first_gen"] += first_gen == "true"
            c["college_" + college] += 1
            if la_year:
                c["la_exposed"] += 1
                c["la_year_sum"] += int(la_year)
    return {
        "header": header,
        "rows": rows,
        "cohorts": {k: dict(sorted(v.items())) for k, v in sorted(cohorts.items())},
    }


def summarize_svg(path):
    text = Path(path).read_text(encoding="utf-8")
    curves = []
    for points in re.findall(r'<polyline [^>]*points="([^"]*)"', text):
        pairs = [p.split(",") for p in points.split()]
        curves.append(
            {
                "points": len(pairs),
                "sum_x": math.fsum(float(x) for x, _ in pairs),
                "sum_y": math.fsum(float(y) for _, y in pairs),
            }
        )
    return {
        "curves": curves,
        "markers": text.count('stroke-dasharray="6 4"'),
        "closed": text.rstrip().endswith("</svg>"),
    }


def summarize_metadata(path):
    """key = value pairs; config_hash covers the output path, so it differs
    between checkouts and is left out."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        if key != "config_hash":
            number = _number(value)
            out[key] = value if number is None else number
    return out


def summarize_dir(out_dir):
    """Summaries of every output file a command wrote, keyed by file name."""
    out = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.name == "panel.csv":
            out[path.name] = summarize_panel(path)
        elif path.suffix == ".csv":
            out[path.name] = summarize_csv(path)
        elif path.suffix == ".svg":
            out[path.name] = summarize_svg(path)
        elif path.name == "metadata.txt":
            out[path.name] = summarize_metadata(path)
    return out


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def close(a, b, abs_tol=TOL):
    return math.isclose(a, b, rel_tol=TOL, abs_tol=abs_tol)


def diff(expected, actual, where="", tol=TOL):
    """Differences between two summaries, as readable strings (empty when
    they agree). `tol` is the absolute tolerance on floats."""
    if where.endswith(".svg"):
        tol = SVG_TOL
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected == actual else [f"{where}: {expected!r} != {actual!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(actual, (int, float)) and close(float(expected), float(actual), tol):
            return []
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                problems.append(f"{where}/{key}: missing")
            elif key not in expected:
                problems.append(f"{where}/{key}: unexpected")
            else:
                problems += diff(expected[key], actual[key], f"{where}/{key}", tol)
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(expected)} items expected, got {len(actual)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += diff(e, a, f"{where}[{i}]", tol)
        return problems
    if isinstance(expected, str) and isinstance(actual, str):
        # numbers in a column that also holds blanks stay text in a summary
        e, a = _number(expected), _number(actual)
        if e is not None and a is not None:
            return diff(float(e), float(a), where, tol)
    return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]
