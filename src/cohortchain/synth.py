"""Synthetic student panels from a known ground-truth chain.

Stands in for private institutional data in every end-to-end test: walks
are simulated from a true transition matrix, encoded through the public
record schema (so tests exercise the real ingestion path), and the
generator keeps its own log of which walk steps are observable at the
horizon for exact round-trip checks.

Records are built by kind, as ingest builds them: `simulate` walks each
cohort, encodes it column by column with numpy, and builds and validates
one StudentRecord per distinct content (a "kind"), returning a `Panel`.
The step log is still written per student, straight from the walk, so it
stays independent of the encoding.

Also home to the path-enumeration oracle for the six-year graduation
rate, kept deliberately free of matrix multiplication.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import SpecFileError
from .markov import TransitionMatrix
from .records import Outcome, Panel, StudentRecord, Transition
from .states import N_STATES, AcademicState


def brute_force_sygr(p):
    """Graduation probability by explicit path enumeration.

    Sums, over graduation years k = 1..6, the probability of persisting
    through years 1..k-1 and then graduating out of year k. Independent
    oracle for the matrix-power readout.
    """
    total = 0.0
    persist = 1.0
    for k in range(1, 7):
        state = AcademicState.year(k)
        total += persist * p[state, AcademicState.GRADUATED]
        if k < 6:
            persist *= p[state, AcademicState.year(k + 1)]
    return total


def random_transition_matrix(rng, alpha=(1.0, 1.0, 1.0)):
    """A random valid matrix; row masses drawn Dirichlet(alpha) over
    (persist, drop out, graduate), with no persist slot in year 6."""
    a = np.zeros((N_STATES, N_STATES))
    for k in range(5):
        persist, drop, grad = rng.dirichlet(alpha)
        a[k, k + 1] = persist
        a[k, int(AcademicState.DROP_OUT)] = drop
        a[k, int(AcademicState.GRADUATED)] = grad
    drop, grad = rng.dirichlet(alpha[1:])
    a[5, int(AcademicState.DROP_OUT)] = drop
    a[5, int(AcademicState.GRADUATED)] = grad
    a[6, 6] = 1.0
    a[7, 7] = 1.0
    return TransitionMatrix(a)


@dataclass(frozen=True)
class GeneratorSpec:
    true_matrix: TransitionMatrix
    cohort_sizes: dict
    horizon_year: int
    seed: int
    aalana_rate: float = 0.0
    first_gen_rate: float = 0.0
    la_rate: float = 0.0
    la_year_dist: dict | None = None
    effect_matrix: TransitionMatrix | None = None
    slow_finisher_rate: float = 0.0
    colleges: dict = field(default_factory=lambda: {"SCI": 1.0})

    def __post_init__(self):
        if not self.cohort_sizes:
            raise ValueError("cohort_sizes must be non-empty")
        for year, n in self.cohort_sizes.items():
            if n < 1:
                raise ValueError(f"cohort {year} size must be positive, got {n}")
        if self.horizon_year < max(self.cohort_sizes) + 1:
            raise ValueError("horizon_year must allow at least one completed year")
        for name in ("aalana_rate", "first_gen_rate", "la_rate", "slow_finisher_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.la_year_dist is not None:
            if any(not 1 <= y <= 6 for y in self.la_year_dist):
                raise ValueError("la_year_dist keys must be years of study 1..6")
            if abs(sum(self.la_year_dist.values()) - 1.0) > 1e-9:
                raise ValueError("la_year_dist probabilities must sum to 1")
        if abs(sum(self.colleges.values()) - 1.0) > 1e-9:
            raise ValueError("college proportions must sum to 1")


def _cumulative_rows(matrix):
    return np.cumsum(matrix.p, axis=1)


def _walk_cohort(spec, n, rng):
    """Simulate one cohort; returns per-student arrays.

    absorb_year[i] is the year of absorption (1..6) or 0 for slow
    finishers who persist past year 6; graduated[i] is the outcome for
    absorbed students.
    """
    cum_base = _cumulative_rows(spec.true_matrix)
    cum_eff = (
        _cumulative_rows(spec.effect_matrix)
        if spec.effect_matrix is not None
        else cum_base
    )

    aalana = rng.random(n) < spec.aalana_rate
    first_gen = rng.random(n) < spec.first_gen_rate
    exposed = rng.random(n) < spec.la_rate
    if spec.la_year_dist is None:
        la_years = rng.integers(1, 7, size=n)
    else:
        years = np.array(sorted(spec.la_year_dist))
        probs = np.array([spec.la_year_dist[y] for y in sorted(spec.la_year_dist)])
        la_years = rng.choice(years, p=probs, size=n)
    slow = rng.random(n) < spec.slow_finisher_rate
    college_names = sorted(spec.colleges)
    college_idx = rng.choice(
        len(college_names), p=[spec.colleges[c] for c in college_names], size=n
    )

    absorb_year = np.zeros(n, dtype=np.int64)
    graduated = np.zeros(n, dtype=bool)
    active = np.ones(n, dtype=bool)
    for year in range(1, 7):
        u = rng.random(n)
        if not active.any():
            continue
        if year == 6:
            survivors = active & slow
            active = active & ~slow
        use_eff = active & exposed & (la_years <= year)
        for mask, cum in ((active & ~use_eff, cum_base), (use_eff, cum_eff)):
            if not mask.any():
                continue
            nxt = np.searchsorted(cum[year - 1], u[mask], side="right")
            nxt = np.minimum(nxt, N_STATES - 1)
            done = nxt >= int(AcademicState.DROP_OUT)
            ids = np.nonzero(mask)[0][done]
            absorb_year[ids] = year
            graduated[ids] = nxt[done] == int(AcademicState.GRADUATED)
            active[ids] = False

    return {
        "aalana": aalana,
        "first_gen": first_gen,
        "exposed": exposed,
        "la_years": la_years,
        "college": college_idx,
        "absorb_year": absorb_year,
        "graduated": graduated,
    }


def _walks(spec):
    """(cohort_year, walk) for every cohort, in year order."""
    for cohort_year in sorted(spec.cohort_sizes):
        rng = np.random.default_rng([spec.seed, cohort_year])
        yield cohort_year, _walk_cohort(spec, spec.cohort_sizes[cohort_year], rng)


def _students(spec):
    """(cohort_year, student_id, walk, i) for every simulated student."""
    for cohort_year, walk in _walks(spec):
        for i in range(spec.cohort_sizes[cohort_year]):
            yield cohort_year, f"s{cohort_year}_{i}", walk, i


def _observed_steps(spec, cohort_year, sid, walk, i):
    """Observable walk steps, written out directly from the trajectory (not
    via the record), so the record round trip has something independent to
    agree with."""
    obs = spec.horizon_year - cohort_year
    a = int(walk["absorb_year"][i])
    survivor = a == 0
    steps = []
    last_persist = 5 if survivor else a - 1
    for k in range(1, last_persist + 1):
        if k < obs:
            steps.append(
                Transition(sid, AcademicState.year(k), AcademicState.year(k + 1), k)
            )
    if survivor:
        if obs >= 6:
            steps.append(Transition(sid, AcademicState.Y6, AcademicState.DROP_OUT, 6))
    elif a <= obs:
        to = AcademicState.GRADUATED if walk["graduated"][i] else AcademicState.DROP_OUT
        steps.append(Transition(sid, AcademicState.year(a), to, a))
    return steps


_OUTCOMES = (Outcome.GRADUATED, Outcome.DROPPED_OUT, Outcome.ENROLLED)


def _cohort_panel(spec, cohort_year, walk):
    """One cohort's walk encoded as a Panel, column by column.

    A student absorbed by the horizon records the absorption; anyone else is
    enrolled through min(enrolled years, observed years). LA exposure is
    recorded when its year lies within both the enrolled years and the
    observed trajectory (an enrolled student may be exposed in the year
    after the last completed one). Kinds are keyed by one packed integer.
    """
    obs = spec.horizon_year - cohort_year
    a = walk["absorb_year"]
    enrolled_years = np.where(a == 0, 7, a)
    absorbed = (a > 0) & (a <= obs)
    # an index into _OUTCOMES; 2 is ENROLLED
    outcome = np.where(absorbed, np.where(walk["graduated"], 0, 1), 2)
    outcome_year = np.where(absorbed, a, np.minimum(enrolled_years, obs))
    ly = walk["la_years"]
    slack = outcome == 2
    # 0 for no recorded exposure
    la_year = np.where(
        walk["exposed"] & (ly <= enrolled_years) & (ly <= outcome_year + slack), ly, 0
    )
    college = walk["college"]
    # mixed radix: aalana, first_gen 2 each, la_year 0..6, outcome 3, outcome_year 1..7
    key = ((college * 2 + walk["aalana"]) * 2 + walk["first_gen"]) * 7 + la_year
    key = (key * 3 + outcome) * 8 + outcome_year

    # the first row of each kind, in order of first appearance, from a table
    # over the small key space (indexed by key, no sort of the rows)
    n = len(key)
    first = np.full(key.max() + 1, n)
    np.minimum.at(first, key, np.arange(n))
    rows = sorted(first[first < n].tolist())
    kind_of_key = np.empty(len(first), dtype=np.intp)
    kind_of_key[key[rows]] = np.arange(len(rows))
    college_names = sorted(spec.colleges)
    ids = [f"s{cohort_year}_{i}" for i in range(n)]
    kinds = [
        StudentRecord(
            student_id=ids[i],
            cohort_year=cohort_year,
            aalana=bool(walk["aalana"][i]),
            first_gen=bool(walk["first_gen"][i]),
            college=college_names[college[i]],
            la_year=int(la_year[i]) or None,
            outcome=_OUTCOMES[outcome[i]],
            outcome_year=int(outcome_year[i]),
        )
        for i in rows
    ]
    return Panel(ids, kind_of_key[key], kinds)


def simulate(spec):
    """The spec's panel: each cohort walked with its own seeded generator,
    in year order, and encoded by kind."""
    return Panel.concat(
        _cohort_panel(spec, year, walk) for year, walk in _walks(spec)
    )


def generate_panel(spec):
    """The spec's records, one per student, in cohort then id order."""
    return list(simulate(spec))


def generate_panel_with_log(spec):
    """Generate records plus the generator's own observable-step log, which is
    written per student from the walk, apart from the records' encoding."""
    log = [step for student in _students(spec) for step in _observed_steps(spec, *student)]
    return generate_panel(spec), log


def log_multiset(transitions):
    """Multiset view of a transition log for exact comparison."""
    return Counter((t.student_id, t.frm, t.to, t.year_index) for t in transitions)


def _parse_matrix_block(lines, start, label):
    values = []
    idx = start
    while idx < len(lines) and len(values) < N_STATES * N_STATES:
        stripped = lines[idx].strip()
        if stripped and "=" in stripped:
            break
        for tok in stripped.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise SpecFileError(idx + 1, f"bad number {tok!r} in {label} block") from None
        idx += 1
    if len(values) != N_STATES * N_STATES:
        raise SpecFileError(start, f"{label} block needs 64 numbers, got {len(values)}")
    try:
        matrix = TransitionMatrix(np.array(values).reshape(N_STATES, N_STATES))
    except ValueError as exc:
        raise SpecFileError(start, f"{label}: {exc}") from None
    return matrix, idx


def _parse_pairs(raw, line_no, cast_key):
    out = {}
    for tok in raw.replace(",", " ").split():
        if ":" not in tok:
            raise SpecFileError(line_no, f"expected key:value, got {tok!r}")
        k, v = tok.split(":", 1)
        try:
            out[cast_key(k)] = float(v)
        except ValueError:
            raise SpecFileError(line_no, f"bad pair {tok!r}") from None
    return out


def parse_generator_spec(text):
    """Parse the plain-text `key = value` generator configuration.

    The `matrix` (and optional `effect_matrix`) keys introduce an inline
    8x8 block of 64 whitespace-separated numbers, row-major.
    """
    lines = text.splitlines()
    fields = {}
    matrices = {}
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if not stripped or stripped.startswith("#"):
            i += 1
            continue
        if "=" not in stripped:
            raise SpecFileError(i + 1, f"expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in ("matrix", "effect_matrix"):
            if value:
                raise SpecFileError(i + 1, f"{key} block must start on the next line")
            matrices[key], i = _parse_matrix_block(lines, i + 1, key)
            continue
        fields[key] = (value, i + 1)
        i += 1

    def take(key, cast, default=None, required=False):
        if key not in fields:
            if required:
                raise SpecFileError(None, f"missing required key {key!r}")
            return default
        raw, line_no = fields.pop(key)
        try:
            return cast(raw, line_no)
        except SpecFileError:
            raise
        except (TypeError, ValueError):
            raise SpecFileError(line_no, f"bad value for {key}: {raw!r}") from None

    if "matrix" not in matrices:
        raise SpecFileError(None, "missing required matrix block")
    spec_kwargs = dict(
        true_matrix=matrices["matrix"],
        effect_matrix=matrices.get("effect_matrix"),
        seed=take("seed", lambda v, _ln: int(v), required=True),
        horizon_year=take("horizon_year", lambda v, _ln: int(v), required=True),
        cohort_sizes={
            int(y): int(n)
            for y, n in take(
                "cohort_sizes", lambda v, ln: _parse_pairs(v, ln, int), required=True
            ).items()
        },
        aalana_rate=take("aalana_rate", lambda v, _ln: float(v), 0.0),
        first_gen_rate=take("first_gen_rate", lambda v, _ln: float(v), 0.0),
        la_rate=take("la_rate", lambda v, _ln: float(v), 0.0),
        slow_finisher_rate=take("slow_finisher_rate", lambda v, _ln: float(v), 0.0),
    )
    la_dist = take("la_year_dist", lambda v, ln: _parse_pairs(v, ln, int))
    if la_dist is not None:
        spec_kwargs["la_year_dist"] = la_dist
    colleges = take("colleges", lambda v, ln: _parse_pairs(v, ln, str))
    if colleges is not None:
        spec_kwargs["colleges"] = colleges
    if fields:
        key = next(iter(fields))
        raise SpecFileError(fields[key][1], f"unknown key {key!r}")
    try:
        return GeneratorSpec(**spec_kwargs)
    except ValueError as exc:
        raise SpecFileError(None, str(exc)) from None


def load_generator_spec(path):
    with open(path, encoding="utf-8") as fh:
        return parse_generator_spec(fh.read())


def _format_matrix_block(matrix):
    return "\n".join(
        " ".join(format(v, ".17g") for v in row) for row in matrix.p
    )


def format_generator_spec(spec):
    """Serialize a GeneratorSpec back into the config-file format;
    round-trips through parse_generator_spec."""
    lines = [
        f"seed = {spec.seed}",
        f"horizon_year = {spec.horizon_year}",
        "cohort_sizes = "
        + " ".join(f"{y}:{spec.cohort_sizes[y]}" for y in sorted(spec.cohort_sizes)),
        f"aalana_rate = {spec.aalana_rate}",
        f"first_gen_rate = {spec.first_gen_rate}",
        f"la_rate = {spec.la_rate}",
        f"slow_finisher_rate = {spec.slow_finisher_rate}",
        "colleges = "
        + " ".join(f"{c}:{spec.colleges[c]}" for c in sorted(spec.colleges)),
    ]
    if spec.la_year_dist is not None:
        lines.append(
            "la_year_dist = "
            + " ".join(f"{y}:{spec.la_year_dist[y]}" for y in sorted(spec.la_year_dist))
        )
    lines.append("matrix =")
    lines.append(_format_matrix_block(spec.true_matrix))
    if spec.effect_matrix is not None:
        lines.append("effect_matrix =")
        lines.append(_format_matrix_block(spec.effect_matrix))
    return "\n".join(lines) + "\n"
