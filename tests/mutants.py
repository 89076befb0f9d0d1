"""Mutants: program faults, each one text replacement, that the non-slow
test suite must catch.

    python tests/mutants.py

For each mutant in MUTANTS the runner copies src/, tests/ and pyproject.toml
into a fresh temporary directory, replaces the mutant's old text, which must
occur exactly once in its file, by the new text, and runs

    python -m pytest -x -q -m "not slow" -p no:cacheprovider --hypothesis-seed=0

there: first on the test file of the mutated module (OWN_TESTS), or on the
mutant's `first` file where that one kills it sooner, then, only if that
passes, on the rest of the suite. The mutant is killed when either run
fails, so a killed mutant mostly costs one file, and a survivor has faced
the whole non-slow suite. pyproject.toml comes along because its
`pythonpath = ["src"]` resolves against the copy: a copy of src/ alone would
test the checkout's code. The unmutated copy runs first and must pass, or
every mutant would read as killed: the whole suite at once, then each
OWN_TESTS and `first` file alone, the exact first run of every mutant, so
a test file that fails only when run by itself fails here. Each mutant's
line, with its time, is also appended to the file that $GITHUB_STEP_SUMMARY
names, when it is set.

A mutant that survives is mended by a test, or kept with `gap` saying why
the suite misses it; it is never dropped from the list to pass. The run
exits 1 when a mutant without a gap survives, or a mutant with one is
killed (its gap note is then out of date), and 2 when an old text does not
occur exactly once, say because its line moved.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-m", "not slow", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]
# each run of the non-slow suite, or of a part of it, takes under a minute
TIMEOUT_S = 600


class Mutant(NamedTuple):
    path: str  # from the repository's root
    old: str
    new: str
    breaks: str
    gap: str | None = None  # why the suite misses it, for a known survivor
    first: str | None = None  # the test file run first, where it dies sooner than in OWN_TESTS


RECORDS = "src/cohortchain/records.py"
BOOTSTRAP = "src/cohortchain/bootstrap.py"
MARKOV = "src/cohortchain/markov.py"
ESTIMATE = "src/cohortchain/estimate.py"
SYNTH = "src/cohortchain/synth.py"
CLI = "src/cohortchain/cli.py"
# the test file a mutant of each module runs first
OWN_TESTS = {
    RECORDS: "tests/test_ingest.py",
    BOOTSTRAP: "tests/test_bootstrap.py",
    MARKOV: "tests/test_markov.py",
    ESTIMATE: "tests/test_estimate.py",
    SYNTH: "tests/test_synth.py",
    CLI: "tests/test_cli.py",
}

MUTANTS = [
    Mutant(ESTIMATE, "    elif c < obs:", "    elif c <= obs:",
           "derive_transitions counts a persistence out of the last observed year"),
    Mutant(RECORDS, "if not 1 <= r.la_year <= 6:", "if not 1 <= r.la_year <= 7:",
           "an la_year of 7 passes the record invariants"),
    Mutant(ESTIMATE, "if t.frm >= first]", "if t.frm > first]",
           "la_truncate drops the exposure year's own step"),
    Mutant(MARKOV, "    reachable[..., _Y1] = True\n", "",
           "normalise fills an empty Y1 row with drop-out instead of failing"),
    Mutant(BOOTSTRAP, ".min(axis=1) < threshold", ".min(axis=1) < 0",
           "the block draw never redraws a replicate that rejects a word"),
    Mutant(CLI, "return 3 if any_fail else 0, files", "return 0, files",
           "validate exits 0 on FAIL"),
    Mutant(CLI, "arm = replace(spec, la_group=la_group)",
           "arm = replace(spec, la_group=la_group, aalana_only=False)",
           "compare's arms drop --aalana"),
    Mutant(ESTIMATE,
           "r.outcome is Outcome.GRADUATED and r.outcome_year <= 6",
           "r.outcome is Outcome.GRADUATED",
           "the traditional estimate counts graduates after year 6"),
    Mutant(SYNTH, "exposed & (la_years <= year)", "exposed & (la_years < year)",
           "the generator applies the effect from the year after la_year"),
    Mutant(BOOTSTRAP, "FAILURE_CEILING = 0.10", "FAILURE_CEILING = 0.20",
           "the failed-replicate ceiling doubles"),
    Mutant(BOOTSTRAP, "if failed > FAILURE_CEILING * cfg.replicates:",
           "if failed >= FAILURE_CEILING * cfg.replicates:",
           "a bootstrap failing exactly 10% of its replicates raises"),
    Mutant(RECORDS, "            if not row:\n                continue\n", "",
           "csv.reader's empty row for a blank line is a field-count error"),
    Mutant(RECORDS, "panel.kind + len(kinds)", "panel.kind",
           "Panel.concat points a later panel's rows at the first panel's kinds"),
    Mutant(RECORDS, "r.cohort_year, r.aalana, r.first_gen, r.college, r.la_year, r.outcome,",
           "r.cohort_year, r.aalana, r.first_gen, r.college, r.outcome,",
           "Panel.from_records merges records that differ only in la_year"),
    Mutant(RECORDS, "keep = np.array([spec.matches(r) for r in panel.kinds], dtype=bool)",
           "keep = np.ones(len(panel.kinds), dtype=bool)",
           "filter_subgroup keeps every kind"),
    Mutant(RECORDS, '    if not _INTEGER(raw):\n        raise ParseError(row, column, '
           'f"expected an integer, got {raw!r}")\n', "",
           "an integer field reads by int(), so '+4', ' 4' and '1_0' pass"),
    Mutant(SYNTH, "(ly <= outcome_year + slack)", "(ly <= outcome_year)",
           "the generator drops an enrolled student's exposure in the year after the last"),
    Mutant(BOOTSTRAP, "[seed & _MASK32, seed >> 32] if seed >> 32 else [seed]", "[seed & _MASK32]",
           "_seed_words drops a 64-bit seed's high word"),
    Mutant(BOOTSTRAP, "            keys += offsets[:r]\n", "",
           "the block draw counts every replicate of a chunk into its first row"),
    Mutant(BOOTSTRAP, 'kind.take(idx, mode="clip", out=idx)',
           'kind.take(idx, mode="clip", out=kind)',
           "numpy's per-replicate draw overwrites the panel's kind column"),
    Mutant(BOOTSTRAP, 'raw.astype("<u8", copy=False).view("<u4")',
           'raw.astype(">u8", copy=False).view(">u4")',
           "the block draw reads each raw word's high half first"),
    Mutant(BOOTSTRAP, "_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715",
           "_MIX_MULT_L, _MIX_MULT_R = 0x4973F715, 0xCA01F9DD",
           "_seed_words swaps SeedSequence's two mix multipliers"),
    Mutant(MARKOV, "out_of_range, forbidden, bad_sum, totals = _violation_masks(a)",
           "forbidden, out_of_range, bad_sum, totals = _violation_masks(a)",
           "validate_structure reports an entry out of range as forbidden, and back"),
    Mutant(MARKOV, "    return p, empty & reachable\n", "    return p, empty\n",
           "normalise fails on an empty row that the chain never reaches"),
    Mutant(ESTIMATE, "if counts[k - 1].any() else None", "if True else None",
           "persistence_rates reports an unobserved year as the chain's imputed 0"),
    Mutant(ESTIMATE, "InsufficientData(AcademicState(int(np.argmax(gaps))))",
           "InsufficientData(AcademicState(int(len(gaps) - 1 - np.argmax(gaps[::-1]))))",
           "a point estimate names the last state without observations, not the first"),
    Mutant(RECORDS, "        if self._rows is None:", "        if True:",
           "each iteration of a Panel builds its rows again"),
    Mutant(RECORDS, "        if seen and not seen.isdisjoint(ids):\n            break\n", "",
           "the line path accepts an id of an earlier file"),
    Mutant(RECORDS, " or not bounds[1:].all():", ":",
           "the line path accepts an empty id"),
    Mutant(RECORDS, "if not (may_need_quotes and any(map(_MAY_NEED_QUOTES, ids))):", "if True:",
           "the CSV writer writes an id holding ',' or '\"' unquoted"),
    Mutant(SYNTH, "any(not 1 <= y <= 6 for y in self.la_year_dist)",
           "any(not 1 <= y <= 7 for y in self.la_year_dist)",
           "a generator spec accepts an la_year_dist key of 7"),
    Mutant(RECORDS, "    yield _csv_text([CSV_HEADER])\n"
           "    yield from chain.from_iterable(map(_panel_pieces, panels))\n",
           "    for panel in panels:\n        yield _csv_text([CSV_HEADER])\n"
           "        yield from _panel_pieces(panel)\n",
           "the panel writer writes the header once per cohort"),
    Mutant(CLI, "students = sum(spec.cohort_sizes.values())",
           "students = spec.cohort_sizes[min(spec.cohort_sizes)]",
           "synth's metadata counts only the first cohort's students"),
    Mutant(MARKOV, "    return p, empty & reachable\n", "    return p, np.zeros_like(empty)\n",
           "normalise finds no gap, so no empty row fails"),
    Mutant(BOOTSTRAP, "    ids = np.arange(1, cfg.replicates + 1, dtype=np.int64)\n",
           "    ok[:] = ok.all(axis=0)\n    ids = np.arange(1, cfg.replicates + 1, dtype=np.int64)\n",
           "bootstrap_each drops a replicate from every estimator when one fails on it"),
    Mutant(RECORDS, """if '"' in piece or "\\0" in piece or (""", """if "\\0" in piece or (""",
           "the line path reads a quoted field as it stands"),
    Mutant(RECORDS, '"\\r" in text and text.count("\\r") - text.endswith("\\r") != text.count("\\r\\n")',
           "False", "the line path reads a lone carriage return as part of a field"),
    Mutant(RECORDS, "        if len(tail) > bound:\n            break\n", "",
           "the line path accepts a field longer than csv.field_size_limit()"),
    Mutant(RECORDS, "text = tail + piece", "text = piece",
           "the line path drops the partial line carried from the piece before"),
    Mutant(RECORDS, "(hashes[1:] == hashes[:-1]).any() or ", "",
           "the line path accepts a repeated id, whose hashes tie"),
    Mutant(RECORDS, "        del hashes\n", "",
           "the line path holds the hash column while it joins the ids"),
    Mutant(RECORDS, "_PIECE_CHARS = 2**14", "_PIECE_CHARS = 2**18",
           "ingest reads the text in pieces of 2**18 characters"),
    Mutant(BOOTSTRAP, "for start in range(0, KDE_GRID_POINTS, step):",
           "for start in range(0, KDE_GRID_POINTS - 1, step):",
           "kde drops the last grid point when it begins a block"),
    Mutant(BOOTSTRAP, "z = (xs[start:start + step, None]", "z = (xs[start:start + step + 1, None]",
           "kde's block repeats the next block's first grid point"),
    Mutant(RECORDS, 'chain(pieces, ["\\n"])', 'chain(pieces, [""])',
           "the line path drops a last line that no LF ends"),
    Mutant(RECORDS, "bound = csv.field_size_limit() - _PIECE_CHARS", "bound = csv.field_size_limit()",
           "the line path carries a line up to the limit, and the next piece makes it longer"),
    Mutant(RECORDS, "            if sid in own or sid in seen:\n                raise DuplicateId(sid, row_no)\n"
           "            own.add(sid)\n            ids.append(sid)\n            key = tuple(row[1:])\n"
           "            k = index.get(key)\n            if k is None:\n"
           "                k = index[key] = len(kinds)\n"
           "                kinds.append(_parse_kind(row, row_no))\n",
           "            key = tuple(row[1:])\n            k = index.get(key)\n            if k is None:\n"
           "                k = index[key] = len(kinds)\n"
           "                kinds.append(_parse_kind(row, row_no))\n"
           "            if sid in own or sid in seen:\n                raise DuplicateId(sid, row_no)\n"
           "            own.add(sid)\n            ids.append(sid)\n",
           "csv.reader's path validates a row's new kind before its duplicate id"),
    Mutant(RECORDS, "return Panel(ids, np.frombuffer(kind, dtype=np.int64).astype(np.intp, copy=False), kinds)",
           "return None", "the line path always declines"),
    Mutant(RECORDS, 'text).split("\\n")', "text).splitlines()",
           "the line path splits lines at every line break str knows"),
    Mutant(RECORDS, '        texts.append("".join(ids))\n',
           '        seen |= set(ids)\n        texts.append("".join(ids))\n',
           "the line path adds its ids to seen"),
    Mutant(SYNTH, "if not 0.0 <= v <= 1.0:", "if not 0.0 <= v <= 2.0:",
           "a generator spec accepts a rate of up to 2"),
    Mutant(SYNTH, "> 1e-9:", "> 1e-3:",
           "a generator spec accepts a distribution summing to 1 within 1e-3"),
    Mutant(SYNTH, "            if n < 1:\n", "            if n < 0:\n",
           "a generator spec accepts a cohort of 0 students"),
    Mutant(SYNTH, "max(self.cohort_sizes) + 1:", "max(self.cohort_sizes):",
           "a generator spec accepts a horizon at its last cohort's year"),
    Mutant(SYNTH, "if any(not p >= 0 for p in dist.values()):", "if any(p < 0 for p in dist.values()):",
           "a generator spec accepts a NaN probability"),
    Mutant(SYNTH, "if self.seed < 0:", "if self.seed < -1:",
           "a generator spec accepts a seed of -1"),
    Mutant(ESTIMATE, "(r.cohort_year, r.outcome, r.outcome_year, r.la_year) for r in kinds]",
           "(r.cohort_year, r.outcome, r.outcome_year) for r in kinds]",
           "the tally class key drops la_year, so the LA estimator merges exposure years",
           first="tests/test_bootstrap.py"),
    Mutant(ESTIMATE, "(r.cohort_year, r.outcome, r.outcome_year, r.la_year) for r in kinds]",
           "(r.cohort_year, r.outcome, r.la_year) for r in kinds]",
           "the tally class key drops outcome_year", first="tests/test_bootstrap.py"),
    Mutant(BOOTSTRAP, "column = panel.kind if len(classes) == len(panel.kinds) else "
           "class_of_kind[panel.kind]", "column = panel.kind",
           "the bootstrap draws kinds where fewer classes than kinds are tallied"),
    Mutant(BOOTSTRAP, "column = panel.kind if len(classes) == len(panel.kinds) else "
           "class_of_kind[panel.kind]", "column = class_of_kind[panel.kind]",
           "the bootstrap copies the kind column where every kind is its own class",
           gap="the copy draws the same counts; only the peak moves (0.7 MB on "
               "estimate_100k), and no test bounds the bootstrap's memory"),
    Mutant(BOOTSTRAP, "original = np.bincount(class_of_kind, weights=np.bincount(panel.kind, "
           "minlength=len(class_of_kind)))",
           "original = np.bincount(panel.kind, minlength=len(class_of_kind))",
           "each estimator is fitted on kind counts in place of class counts"),
]


def check_texts(mutants):
    """The problems of the list: an old text that does not occur exactly
    once in its file, or a new text equal to it."""
    problems = []
    for m in mutants:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.path}: old text found {count} times: {m.old!r}")
        if m.old == m.new:
            problems.append(f"{m.path}: new text equals old: {m.old!r}")
    return problems


def run_parts(parts, mutant=None):
    """(first failed part or None, seconds) of the non-slow suite run on a
    fresh copy, with the mutant applied, as one pytest run per part (its
    extra arguments), in order and only while they pass. A run past
    TIMEOUT_S counts as failed."""
    # a mutant's acceptance report is not the program's: keep it out of the summary
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GITHUB_STEP_SUMMARY")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        work = Path(work)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if mutant is not None:
            path = work / mutant.path
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                            encoding="utf-8")
        start = time.perf_counter()
        for part in parts:
            try:
                run = subprocess.run(PYTEST + part, cwd=work, env=env, capture_output=True,
                                     text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return part, time.perf_counter() - start
            if run.returncode != 0:
                return part, time.perf_counter() - start
        return None, time.perf_counter() - start


def report(line):
    """Print a line, and append it to the CI job's summary when there is one."""
    print(line, flush=True)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(line + "\n\n")


def main():
    problems = check_texts(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 2
    firsts = set(OWN_TESTS.values()) | {m.first for m in MUTANTS if m.first}
    failed, seconds = run_parts([[]] + [[own] for own in sorted(firsts)])
    verdict = "passed" if failed is None else f"FAILED on {' '.join(failed) or 'the whole suite'}"
    report(f"unmutated: {verdict} in {seconds:.1f} s")
    if failed is not None:
        return 1
    wrong, total = 0, seconds
    for n, m in enumerate(MUTANTS, start=1):
        own = m.first or OWN_TESTS[m.path]
        failed, seconds = run_parts([[own], ["--ignore", own]], m)
        survived = failed is None
        total += seconds
        if survived:
            verdict = "known gap, survived" if m.gap else "SURVIVED"
        else:
            verdict = "KILLED, but listed as a gap" if m.gap else "killed"
        wrong += survived != bool(m.gap)
        report(f"{n:2}. {verdict} in {seconds:.1f} s: {m.path}: {m.breaks}")
        if m.gap:
            report(f"    gap: {m.gap}")
    report(f"{len(MUTANTS)} mutants, {wrong} not as listed, {total:.0f} s of test runs")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
