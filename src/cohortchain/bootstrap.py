"""Bootstrap resampling, percentile confidence intervals, and KDE summaries.

Replicate b draws its indices from the stream of
`np.random.default_rng([seed, b])`, so the ensemble is reproducible
bit-for-bit regardless of execution order. `bootstrap` computes the PCG64
seed words of all its replicates in one vectorised pass of SeedSequence's
algorithm (`_seed_words`) instead of hashing each replicate's
`SeedSequence([seed, b])` in Python; `resample_indices` is the per-replicate
reference. A resample of at most `_CHUNK_DRAWS` / 2 (8,192) records is
drawn a chunk of replicates at a time from PCG64's raw words, by the bounded
draw that `Generator.integers` makes (Lemire 2019), so that the chunk's
draws, keys and counts are single numpy passes. A larger one, and one whose
chunk draw rejects a word, is drawn by numpy's own `Generator.integers` on a
PCG64 seeded with the replicate's words. Both give exactly the
`default_rng([seed, b]).integers(0, n, size=n)` streams.
A replicate is kept only as the counts of its records' `Panel` kinds; a
block of replicates' pooled tallies are their kind counts times each
estimator's float64 table, one BLAS product, and each estimator reads them
in one stacked pass (`rates`), so no replicate builds a matrix of its own.
`bootstrap_each` draws each replicate once for several estimators, so every
estimator of one command reads the same resamples; `bootstrap` is its
one-estimator case. Each estimator is fitted once on the original records,
and its summary keeps that fit's pooled tally. Replicates whose estimate is
undefined (e.g. a resample of a tiny subgroup losing a whole transition
row) are dropped and counted per estimator, with a hard failure ceiling.
Percentiles are read off a sorted copy by NumPy's default linear rule
(`_percentiles`).
"""

import math
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .errors import DegenerateEnsemble, EnsembleTooSmall, TooManyFailedReplicates
from .records import Panel

FAILURE_CEILING = 0.10
# Replicates read per stacked pass. The readout holds about 3 KB of stacked
# matrices per replicate, so a block of 128 keeps it under half a megabyte
# however many replicates are drawn, while still amortizing its per-call cost.
REPLICATE_BLOCK = 128
# Index draws made per numpy pass of the block draw: a chunk's raw words take
# 64 KB, and the arrays computed afresh from them 320 KB. A resample of more
# than half a chunk is drawn one replicate at a time, by numpy. Which draw is
# faster from 8,193 to 16,384 records depends on the machine: the block draw
# read 4-5% faster at 16,384 on one 2-core VM, numpy 5-14% faster at 10,002
# to 16,384 on another. No benchmark workload draws that many.
_CHUNK_DRAWS = 2**14
KDE_GRID_POINTS = 256
# Elements of each matrix one block of kde's grid points builds, 512 KB of
# float64. An ensemble of more values takes one grid point a block: 8 MB a
# matrix for a million values, against 2 GB for all 256 points at once.
_KDE_BLOCK_ELEMENTS = 2**16

# NumPy's SeedSequence (numpy/random/bit_generator.pyx), whose algorithm NumPy
# keeps fixed so that seeded streams reproduce: a pool of four 32-bit words,
# and hash constants that are multiplied on every use and so depend only on
# how many hash steps came before, never on the data.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init, mult, steps):
    """(xor, multiplier) of each successive hash step: step k xors the
    running constant and multiplies by its next value."""
    consts = []
    for _ in range(steps):
        following = init * mult & _MASK32
        consts.append((init, following))
        init = following
    return tuple(consts)


# mix_entropy hashes once per pool word and once per ordered pair of
# distinct pool words; generate_state(4, uint64) hashes once per 32-bit word.
_POOL_HASHES = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(words, xor, mult):
    words = (words ^ xor) * mult
    return words ^ words >> 16


def _seed_words(seed, replicate_ids):
    """PCG64 seed words of many replicates in one vectorised pass.

    Row k equals `SeedSequence([seed, replicate_ids[k]]).generate_state(4,
    np.uint64)`, the state `default_rng([seed, replicate_ids[k]])` seeds
    PCG64 with. Takes 0 <= seed < 2**64 (one or two entropy words) and
    replicate ids below 2**32 (one word each). uint32 array arithmetic wraps
    exactly as SeedSequence's C arithmetic does.
    """
    seed = int(seed)
    ids = np.asarray(replicate_ids, dtype=np.uint32)
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = [np.full_like(ids, w) for w in seed_words] + [ids]
    entropy += [np.zeros_like(ids)] * (_POOL_SIZE - len(entropy))

    hashes = iter(_POOL_HASHES)
    pool = [_hash(word, *next(hashes)) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], *next(hashes))
                pool[dst] = mixed ^ mixed >> 16

    state = [_hash(word, *consts) for word, consts in zip(cycle(pool), _STATE_HASHES)]
    lo = np.stack(state[0::2], axis=1).astype(np.uint64)
    hi = np.stack(state[1::2], axis=1).astype(np.uint64)
    return lo | hi << np.uint64(32)


class _SeedWords:
    """A seed sequence that hands PCG64 precomputed state words; PCG64 asks
    only for `generate_state(4, np.uint64)`.

    Registered as numpy's `ISeedSequence` inside `_kind_counts`, so that
    importing this module does not import `numpy.random`.
    """

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


@dataclass(frozen=True)
class BootstrapConfig:
    seed: int
    replicates: int = 1000
    ci_level: float = 0.95

    def __post_init__(self):
        for name in ("seed", "replicates"):
            value = getattr(self, name)
            # bool is an int subclass, but True is not a seed anyone meant
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 2:
            raise ValueError(f"replicates must be >= 2, got {self.replicates}")
        # a replicate id is one 32-bit entropy word of its seed (_seed_words)
        if self.replicates >= 2**32:
            raise ValueError(f"replicates must be below 2**32, got {self.replicates}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level must be in (0, 1), got {self.ci_level}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class EstimateSummary:
    """A bootstrap ensemble and its percentile summary.

    replicate_ids[i] is the 1-based replicate index that produced
    ensemble[i]; gaps mark dropped replicates. tally is the estimator's
    pooled tally of the original records, the one the point estimate was
    read off: whole numbers in float64, for a chain estimator its 8x8 count
    grid, flattened (cell frm * 8 + to).
    """

    ensemble: np.ndarray = field(repr=False)
    replicate_ids: np.ndarray = field(repr=False)
    tally: np.ndarray = field(repr=False)
    point: float
    lo: float
    median: float
    hi: float
    width: float
    n_failed: int = 0


def _percentiles(values, percents):
    """`np.percentile(values, percents)` of a 1-d float array, as floats,
    by the same linear rule read off one sorted copy: np.percentile imports
    numpy.ma, which would add to every command's start-up and memory.

    Percent p sits at position h = (n-1)*(p/100) of the sorted values; the
    neighbours a and b either side are interpolated as numpy's _lerp does,
    from b when the fraction t is at least one half. Any NaN makes every
    percentile NaN.
    """
    ordered = np.sort(values)
    n = len(ordered)
    if np.isnan(ordered[-1]):
        return [float("nan")] * len(percents)
    out = []
    for p in percents:
        h = (n - 1) * (p / 100)
        i = -1 if h >= n - 1 else math.floor(h)
        a, b = ordered[i], ordered[i + 1 if i >= 0 else -1]
        t = h - i
        diff = b - a
        out.append(float(b - diff * (1 - t) if t >= 0.5 else a + diff * t))
    return out


def percentile_ci(ensemble, level):
    """(lo, median, hi) by linear interpolation between closest ranks.

    Percentile q sits at position h = (n-1)*q in the sorted ensemble, with
    the fractional part interpolated linearly between neighbours.
    """
    values = np.asarray(ensemble, dtype=float)
    if values.size < 2:
        raise EnsembleTooSmall(values.size)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    alpha = (1.0 - level) / 2.0
    return tuple(_percentiles(values, [100 * alpha, 50, 100 * (1 - alpha)]))


def resample_indices(seed, replicate, n):
    """The index draw for one replicate; deterministic in (seed, replicate)."""
    rng = np.random.default_rng([seed, replicate])
    return rng.integers(0, n, size=n)


def _kind_counts(kind, n_kinds, words):
    """Kind counts of one resample per row of PCG64 seed words, yielded as
    arrays of REPLICATE_BLOCK rows (the last may be shorter).

    Row k equals `np.bincount(kind[Generator(PCG64(words[k])).integers(0, n,
    size=n)], minlength=n_kinds)` with n = len(kind).
    """
    from numpy.random import Generator, PCG64
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)
    n = len(kind)

    def drawn(w):
        """The kind counts of one replicate, drawn by numpy's own bounded
        draw; the kinds are taken into the index array itself."""
        idx = Generator(PCG64(_SeedWords(w))).integers(0, n, size=n)
        return np.bincount(kind.take(idx, mode="clip", out=idx), minlength=n_kinds)

    # integers(0, n) for n < 2**32 draws 32-bit words u and accepts
    # m = u * n unless m mod 2**32 < (2**32 - n) % n; the index is m >> 32
    threshold = (2**32 - n) % n
    rows = _CHUNK_DRAWS // n
    offsets = np.arange(rows)[:, None] * n_kinds
    for s in range(0, len(words), REPLICATE_BLOCK):
        block = words[s:s + REPLICATE_BLOCK]
        if rows < 2:
            yield np.array([drawn(w) for w in block])
            continue
        counts = np.empty((len(block), n_kinds), dtype=np.int64)
        for start in range(0, len(block), rows):
            chunk = block[start:start + rows]
            r = len(chunk)
            raw = np.array([PCG64(_SeedWords(w)).random_raw((n + 1) // 2) for w in chunk])
            # PCG64 hands out the low half of each 64-bit word before the
            # high half; viewing the words as little-endian keeps that order
            # on any host, and makes no copy on a little-endian one
            draws = raw.astype("<u8", copy=False).view("<u4")[:, :n]
            # m mod 2**32, as uint32 products wrap
            rejected = (draws * np.uint32(n)).min(axis=1) < threshold
            m = draws * np.uint64(n)
            m >>= 32
            # indices are below n: their uint64 bits read the same as int64,
            # and "clip" changes none of them (the default "raise" would
            # copy through a buffer)
            keys = kind.take(m.view(np.int64), mode="clip")
            keys += offsets[:r]
            counts[start:start + r] = np.bincount(
                keys.ravel(), minlength=r * n_kinds
            ).reshape(r, n_kinds)
            # a rejected word (under n / 2**32 per draw) shifts every later
            # index of its stream: draw that replicate again on its own
            for k in np.flatnonzero(rejected):
                counts[start + k] = drawn(chunk[k])
        yield counts


def bootstrap(records, estimator, cfg):
    """Resample records with replacement and summarize the estimate ensemble.

    The estimator must succeed on the original data first, or its
    EstimationError is raised; otherwise the ensemble would characterize
    nothing.
    """
    return bootstrap_each(records, [estimator], cfg)[0]


def bootstrap_each(records, estimators, cfg):
    """One EstimateSummary per estimator, all read off the same resamples.

    Every estimator must succeed on the original data before any replicate
    is drawn; the first that fails raises its EstimationError. Failed
    replicates are counted, and the ceiling checked, per estimator, in order.
    """
    panel = Panel.from_records(records)
    original = np.bincount(panel.kind, minlength=len(panel.kinds))
    fits = [(estimator, *estimator.fit(panel.kinds, original)) for estimator in estimators]
    if not fits:
        return []

    # the same streams as resample_indices(cfg.seed, b, n) for b = 1..replicates
    words = _seed_words(cfg.seed, np.arange(1, cfg.replicates + 1))
    values = np.empty((len(fits), cfg.replicates))
    ok = np.empty((len(fits), cfg.replicates), dtype=bool)
    blocks = _kind_counts(panel.kind, len(panel.kinds), words)
    for start, kind_counts in zip(range(0, cfg.replicates, REPLICATE_BLOCK), blocks):
        block = slice(start, start + len(kind_counts))
        for k, (estimator, _point, _tally, table) in enumerate(fits):
            values[k, block], ok[k, block] = estimator.rates(kind_counts @ table)

    ids = np.arange(1, cfg.replicates + 1, dtype=np.int64)
    summaries = []
    for (_estimator, point, tally, _table), kept_values, kept in zip(fits, values, ok):
        failed = int(np.count_nonzero(~kept))
        if failed > FAILURE_CEILING * cfg.replicates:
            raise TooManyFailedReplicates(failed, cfg.replicates, FAILURE_CEILING)
        lo, median, hi = percentile_ci(kept_values[kept], cfg.ci_level)
        summaries.append(EstimateSummary(
            ensemble=kept_values[kept], replicate_ids=ids[kept], tally=tally, point=point,
            lo=lo, median=median, hi=hi, width=hi - lo, n_failed=failed,
        ))
    return summaries


def silverman_bandwidth(values):
    values = np.asarray(values, dtype=float)
    sd = values.std(ddof=1)
    q75, q25 = _percentiles(values, [75, 25])
    iqr = q75 - q25
    # A zero IQR with positive spread would zero out the bandwidth; fall
    # back to the standard deviation alone in that corner.
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 0.9 * scale * values.size ** (-0.2)


def kde(ensemble, bandwidth=None):
    """Gaussian kernel density of a rate ensemble on a 256-point grid.

    Grid spans [min - 3h, max + 3h] clipped to [0, 1]. Returns (xs,
    densities) arrays; the density integrates to ~1 over the grid when the
    mass sits inside the unit interval.

    The densities are computed a block of grid points at a time, each block
    at least one point and its matrices of at most _KDE_BLOCK_ELEMENTS
    elements where the ensemble allows, never one 256 x n matrix. Each
    point's sum runs along its own row, as it would in that one matrix, so
    the densities are the same bits.
    """
    values = np.asarray(ensemble, dtype=float)
    if values.size < 2:
        raise EnsembleTooSmall(values.size)
    # min == max rather than std == 0: summation noise can leave a constant
    # ensemble with a std of ~1e-16, which would yield a useless sliver grid
    if values.min() == values.max():
        raise DegenerateEnsemble()
    h = silverman_bandwidth(values) if bandwidth is None else float(bandwidth)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be finite and positive, got {h}")
    lo = max(0.0, values.min() - 3 * h)
    hi = min(1.0, values.max() + 3 * h)
    xs = np.linspace(lo, hi, KDE_GRID_POINTS)
    dens = np.empty(KDE_GRID_POINTS)
    step = max(1, _KDE_BLOCK_ELEMENTS // values.size)
    for start in range(0, KDE_GRID_POINTS, step):
        z = (xs[start:start + step, None] - values[None, :]) / h
        np.exp(-0.5 * z**2).sum(axis=1, out=dens[start:start + step])
    dens /= values.size * h * np.sqrt(2 * np.pi)
    return xs, dens
