"""Synthetic student panels from a known ground-truth chain.

Stands in for private institutional data in every end-to-end test: walks
are simulated from a true transition matrix and encoded through the public
record schema, so tests exercise the real ingestion path. The tests keep
their own per-student log of which walk steps are observable at the
horizon, for exact round-trip checks against the records.

Records are built by kind, as ingest builds them: `generate_panel` walks
each cohort, encodes it column by column with numpy, and returns a `Panel`
with one validated StudentRecord per distinct content (a "kind").

Also home to the path-enumeration oracle for the six-year graduation
rate, kept deliberately free of matrix multiplication.
"""

from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from itertools import starmap

import numpy as np

from .errors import SpecFileError
from .markov import TransitionMatrix
from .records import Outcome, Panel, StudentRecord, _key_value_lines, _utf8_text
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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
        if self.la_year_dist is not None and any(not 1 <= y <= 6 for y in self.la_year_dist):
            raise ValueError("la_year_dist keys must be years of study 1..6")
        for what, dist in (("la_year_dist probabilities", self.la_year_dist),
                           ("college proportions", self.colleges)):
            if dist is None:
                continue
            if any(not p >= 0 for p in dist.values()):  # NaN too
                raise ValueError(f"{what} must be non-negative")
            if abs(sum(dist.values()) - 1.0) > 1e-9:
                raise ValueError(f"{what} must sum to 1")


def _walk_cohort(spec, n, rng):
    """Simulate one cohort; returns per-student arrays.

    absorb_year[i] is the year of absorption (1..6) or 0 for slow
    finishers who persist past year 6; graduated[i] is the outcome for
    absorbed students.
    """
    cum_base = np.cumsum(spec.true_matrix.p, axis=1)
    effect = spec.effect_matrix
    cum_eff = cum_base if effect is None else np.cumsum(effect.p, axis=1)

    aalana = rng.random(n) < spec.aalana_rate
    first_gen = rng.random(n) < spec.first_gen_rate
    exposed = rng.random(n) < spec.la_rate
    if spec.la_year_dist is None:
        la_years = rng.integers(1, 7, size=n)
    else:
        years = sorted(spec.la_year_dist)
        la_years = rng.choice(years, p=[spec.la_year_dist[y] for y in years], size=n)
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


def _cohort_panels(spec):
    """Each cohort's Panel, in year order. Nothing between draws holds a
    walk or a panel, so a caller that drops each panel before it draws the
    next holds one cohort at a time."""
    return starmap(partial(_cohort_panel, spec), _walks(spec))


def generate_panel(spec):
    """The spec's panel, rows in cohort then id order: each cohort walked
    with its own seeded generator, in year order, and encoded by kind. It
    holds every cohort's panel and then their join; `synth` writes the
    cohorts' panels one at a time instead, to the same text."""
    return Panel.concat(_cohort_panels(spec))


def _parse_pairs(cast_key, raw, line_no):
    out = {}
    for tok in raw.replace(",", " ").split():
        if ":" not in tok:
            raise SpecFileError(line_no, f"expected key:value, got {tok!r}")
        k, v = tok.split(":", 1)
        try:
            k, v = cast_key(k), float(v)
        except ValueError:
            raise SpecFileError(line_no, f"bad pair {tok!r}") from None
        if k in out:
            raise SpecFileError(line_no, f"key {k} given twice")
        out[k] = v
    return out


def _whole(x):
    """x as an int; ValueError unless it is a whole number."""
    if not x.is_integer():
        raise ValueError(x)
    return int(x)


def _one_line(cast):
    """Reader of a value on its key's line, cast(value, line number), which
    raises ValueError for a bad value; a key-less line below it is an error."""
    def read(key, line_no, value, rows):
        if rows:
            raise SpecFileError(rows[0][0], f"expected key = value, got {rows[0][1]!r}")
        try:
            return cast(value, line_no)
        except ValueError:
            raise SpecFileError(line_no, f"bad value for {key}: {value!r}") from None
    return read


def _matrix(key, line_no, value, rows):
    """Reader of an 8x8 block: 64 whitespace-separated numbers, row-major, on
    the key-less lines below the key's own empty value."""
    if value:
        raise SpecFileError(line_no, f"{key} block must start on the next line")
    values = []
    for row_no, row in rows:
        for tok in row.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise SpecFileError(row_no, f"bad number {tok!r} in {key} block") from None
    if len(values) != N_STATES * N_STATES:
        raise SpecFileError(line_no, f"{key} block needs 64 numbers, got {len(values)}")
    try:
        return TransitionMatrix(np.array(values).reshape(N_STATES, N_STATES))
    except ValueError as exc:
        raise SpecFileError(line_no, f"{key}: {exc}") from None


def _pairs_text(pairs):
    return "".join(f" {k}:{pairs[k]}" for k in sorted(pairs))


def _matrix_text(matrix):
    return "".join("\n" + " ".join(format(v, ".17g") for v in row) for row in matrix.p)


_INT = _one_line(lambda v, _: int(v))
_RATE = _one_line(lambda v, _: float(v))
_VALUE_TEXT = " {}".format

# Each spec key, in the order format_generator_spec writes them: its
# GeneratorSpec field, its reader (key, line number, value, key-less lines
# below it) and its writer of the text after `key =`.
_SPEC_KEYS = (
    ("seed", "seed", _INT, _VALUE_TEXT),
    ("horizon_year", "horizon_year", _INT, _VALUE_TEXT),
    ("cohort_sizes", "cohort_sizes", _one_line(
        lambda v, ln: {y: _whole(n) for y, n in _parse_pairs(int, v, ln).items()}
    ), _pairs_text),
    ("aalana_rate", "aalana_rate", _RATE, _VALUE_TEXT),
    ("first_gen_rate", "first_gen_rate", _RATE, _VALUE_TEXT),
    ("la_rate", "la_rate", _RATE, _VALUE_TEXT),
    ("slow_finisher_rate", "slow_finisher_rate", _RATE, _VALUE_TEXT),
    ("colleges", "colleges", _one_line(partial(_parse_pairs, str)), _pairs_text),
    ("la_year_dist", "la_year_dist", _one_line(partial(_parse_pairs, int)), _pairs_text),
    ("matrix", "true_matrix", _matrix, _matrix_text),
    ("effect_matrix", "effect_matrix", _matrix, _matrix_text),
)
_REQUIRED = {f.name for f in fields(GeneratorSpec)
             if f.default is MISSING and f.default_factory is MISSING}


def parse_generator_spec(text):
    """Parse the plain-text `key = value` generator configuration.

    The `matrix` (and optional `effect_matrix`) keys introduce an inline
    8x8 block of 64 whitespace-separated numbers, row-major, on the key-less
    lines below them. A key given twice, at the top level or within a
    `key:value` list, is an error; a key not given takes GeneratorSpec's
    default.
    """
    given = {}  # key: (its line number, its value, the key-less lines below it)
    rows = None
    for line_no, key, value in _key_value_lines(text):
        if key is None:
            if rows is None:
                raise SpecFileError(line_no, f"expected key = value, got {value!r}")
            rows.append((line_no, value))
        elif key in given:
            raise SpecFileError(line_no, f"{key} repeats line {given[key][0]}")
        else:
            rows = []
            given[key] = (line_no, value, rows)
    if "matrix" not in given:
        raise SpecFileError(None, "missing required matrix block")
    kwargs = {}
    for key, name, read, _ in _SPEC_KEYS:
        if key in given:
            kwargs[name] = read(key, *given.pop(key))
        elif name in _REQUIRED:
            raise SpecFileError(None, f"missing required key {key!r}")
    if given:
        key = next(iter(given))
        raise SpecFileError(given[key][0], f"unknown key {key!r}")
    try:
        return GeneratorSpec(**kwargs)
    except ValueError as exc:
        raise SpecFileError(None, str(exc)) from None


def load_generator_spec(path):
    return parse_generator_spec(_utf8_text(path))


def format_generator_spec(spec):
    """Serialize a GeneratorSpec back into the config-file format, leaving
    out a key whose value is None; round-trips through parse_generator_spec."""
    return "".join(
        f"{key} ={write(value)}\n"
        for key, name, _, write in _SPEC_KEYS
        if (value := getattr(spec, name)) is not None
    )
