"""Seeded simulation studies (Morris, White & Crowther 2019, Stat. Med.
38:2074). A world is a factory seed -> GeneratorSpec, a method reads one
world's panel, and a study runs the method on the world of each seed. Each
performance measure comes with its Monte Carlo standard error (MCSE).
"""

import math

import numpy as np

from cohortchain import GeneratorSpec, generate_panel


def world(matrix, cohorts, **design):
    """The factory seed -> GeneratorSpec of one design, horizon 2021 unless given."""
    design.setdefault("horizon_year", 2021)
    return lambda seed: GeneratorSpec(matrix, cohorts, seed=seed, **design)


def run(seeds, world, method):
    """method(panel, seed) on the panel of each seed's world, in order."""
    return [method(generate_panel(world(seed)), seed) for seed in seeds]


def share(flags):
    """The share of true flags, and its text `k/n = p (MCSE s)` with s =
    sqrt(p (1 - p) / n). At k = 0 or n, where s reads 0, the text gives the
    Wilson 95% interval instead."""
    k, n = sum(flags), len(flags)
    p = k / n
    if 0 < k < n:
        return p, f"{k}/{n} = {p:.3f} (MCSE {math.sqrt(p * (1 - p) / n):.3f})"
    z = 1.96
    centre = (k + z * z / 2) / (n + z * z)
    half = z / (n + z * z) * math.sqrt(k * (n - k) / n + z * z / 4)
    return p, f"{k}/{n} = {p:.3f} (Wilson 95% {centre - half:.3f}..{centre + half:.3f})"


def mean(values):
    """The mean of values and its MCSE, SD / sqrt(n)."""
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))
