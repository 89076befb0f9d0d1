"""The student-progress chain: its states, its transition matrices, and
the readout of transition counts. This module holds the whole chain.

Eight states: six transient year-of-study states plus two absorbing
outcomes. The IntEnum values double as matrix row/column indices, giving a
stable total ordering Y1 < ... < Y6 < DROP_OUT < GRADUATED.

Counts are whole numbers held in float64, exact below 2**53, so pooling
cohorts never loses precision.
`normalise` is the one rule that turns a stack of counts into
probabilities: a transient row without observations is filled with
drop-out when the chain cannot reach it, and makes the estimate undefined
when it can. `sygr_markov_stack` reads the rate off every grid of such a
stack at once; a single estimate is a stack of one.
"""

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np


class AcademicState(IntEnum):
    Y1 = 0
    Y2 = 1
    Y3 = 2
    Y4 = 3
    Y5 = 4
    Y6 = 5
    DROP_OUT = 6
    GRADUATED = 7

    @classmethod
    def year(cls, k):
        """The transient state for year of study k (1..6)."""
        if not 1 <= k <= 6:
            raise ValueError(f"year of study must be 1..6, got {k}")
        return cls(k - 1)


N_STATES = 8
TRANSIENT = tuple(AcademicState(i) for i in range(6))
ABSORBING = (AcademicState.DROP_OUT, AcademicState.GRADUATED)

# Cells a transient row may populate: Yk -> Y(k+1) (absent for k = 6),
# Yk -> DROP_OUT, Yk -> GRADUATED. Absorbing rows hold no counts at all.
ALLOWED_CELLS = tuple(
    [(k, k + 1) for k in range(5)]
    + [(k, AcademicState.DROP_OUT.value) for k in range(6)]
    + [(k, AcademicState.GRADUATED.value) for k in range(6)]
)

ROW_SUM_TOL = 1e-12


# Cells that may hold probabilities: the allowed transitions and the
# absorbing self-loops.
_PATTERN = np.diag([s in ABSORBING for s in AcademicState])
_PATTERN[tuple(np.array(ALLOWED_CELLS).T)] = True

_Y1 = int(AcademicState.Y1)
_DROP_OUT = int(AcademicState.DROP_OUT)
_GRADUATED = int(AcademicState.GRADUATED)
_N_TRANSIENT = len(TRANSIENT)


def _as_grid(p):
    a = np.asarray(p, dtype=float)
    if a.shape != (N_STATES, N_STATES):
        raise ValueError(f"expected an {N_STATES}x{N_STATES} grid, got shape {a.shape}")
    return a


def _violation_masks(a):
    """The three structural checks over a (..., 8, 8) stack of probability
    grids: (entries outside [0, 1], nonzero entries outside the pattern,
    rows whose sum is off 1 by more than ROW_SUM_TOL, the row sums)."""
    totals = a.sum(axis=-1)
    out_of_range = ~((a >= 0.0) & (a <= 1.0))
    forbidden = (a != 0.0) & ~_PATTERN
    return out_of_range, forbidden, np.abs(totals - 1.0) > ROW_SUM_TOL, totals


def validate_structure(p):
    """Diagnose a raw 8x8 probability grid against the allowed sparsity
    pattern. Returns one message per violation, row by row (empty iff the
    grid is valid); never raises on bad content.
    """
    a = _as_grid(p)
    out_of_range, forbidden, bad_sum, totals = _violation_masks(a)
    violations = []
    for i in np.flatnonzero(out_of_range.any(axis=1) | forbidden.any(axis=1) | bad_sum):
        frm = AcademicState(i).name
        for j in np.flatnonzero(out_of_range[i] | forbidden[i]):
            to = AcademicState(j).name
            if out_of_range[i, j]:
                violations.append(f"entry ({frm}, {to}) = {float(a[i, j])!r} outside [0, 1]")
            if forbidden[i, j]:
                violations.append(f"forbidden transition {frm} -> {to}")
        if bad_sum[i]:
            violations.append(f"row {frm} sums to {float(totals[i])!r}, expected 1")
    return violations


def _require_valid(a):
    violations = validate_structure(a)
    if violations:
        raise ValueError(f"invalid transition matrix: {'; '.join(violations)}")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 8x8 matrix with the chain's sparsity pattern.

    Construction validates; an instance is always structurally sound.
    """

    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _as_grid(self.p).copy()
        _require_valid(a)
        a.flags.writeable = False
        object.__setattr__(self, "p", a)

    @classmethod
    def from_rows(cls, rows):
        """Build from a {from_state: {to_state: prob}} mapping over transient
        rows; absorbing rows are filled with their identity pattern."""
        a = np.zeros((N_STATES, N_STATES))
        for frm, entries in rows.items():
            for to, v in entries.items():
                a[int(frm), int(to)] = v
        for s in ABSORBING:
            a[int(s), int(s)] = 1.0
        return cls(a)

    def __getitem__(self, key):
        i, j = key
        return float(self.p[int(i), int(j)])

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return bool((self.p == other.p).all())


def normalise(counts):
    """Row-normalise a (..., 8, 8) stack of whole-number counts into
    probability grids; the one place counts become probabilities.

    Returns (p, gaps). gaps[..., i] is True where transient row i has no
    observations although the chain can reach it (it is Y1, or some count
    leads into it): the estimate is undefined there, and p's row is left
    empty. An empty row the chain can never reach gets a unit drop-out
    entry, which no quantity read off the chain from Y1 can see. Absorbing
    rows get their self-loop.
    """
    counts = np.asarray(counts)
    transient = counts[..., :_N_TRANSIENT, :]
    totals = transient.sum(axis=-1)
    empty = totals == 0
    reachable = counts.sum(axis=-2)[..., :_N_TRANSIENT] > 0
    reachable[..., _Y1] = True

    p = np.zeros(counts.shape)
    np.divide(transient, totals[..., None], out=p[..., :_N_TRANSIENT, :], where=~empty[..., None])
    p[..., :_N_TRANSIENT, _DROP_OUT][empty & ~reachable] = 1.0
    for s in ABSORBING:
        p[..., int(s), int(s)] = 1.0
    return p, empty & reachable


def sygr_markov_stack(counts):
    """The six-year graduation rate of every grid in a (b, 8, 8) stack of
    whole-number counts, read in one stacked pass.

    Returns (values, ok). ok[k] is False exactly where normalise finds a
    gap in counts[k], and values[k] is then meaningless. Elsewhere values[k]
    is the probability of reaching the graduated state within six steps of
    starting in year 1: entry (Y1, GRADUATED) of the sixth power of the
    normalised grid, bit for bit as a single grid's power gives it (the
    tests check it). Every normalised grid read must pass the checks
    TransitionMatrix makes.
    """
    p, gaps = normalise(counts)
    ok = ~gaps.any(axis=-1)
    out_of_range, forbidden, bad_sum, _totals = _violation_masks(p)
    invalid = ok & (out_of_range.any(axis=(1, 2)) | forbidden.any(axis=(1, 2)) | bad_sum.any(axis=1))
    if invalid.any():
        _require_valid(p[np.argmax(invalid)])
    return np.linalg.matrix_power(p, 6)[:, _Y1, _GRADUATED], ok
