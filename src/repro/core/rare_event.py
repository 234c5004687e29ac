"""Rare-event thresholds for the change-point detector.

Section 4.1 of the paper: three observations in a row above the 0.95
quantile of an i.i.d. series is so unlikely (0.05^2 = 0.0025, conditional on
the first) that it almost certainly signals nonstationarity — but if the
series is autocorrelated, one high value tends to produce another, and a
longer run is needed before it qualifies as "rare".  The paper runs a Monte
Carlo simulation over log-normal series with varying lag-1 autocorrelation
and builds a coarse lookup table from autocorrelation to the run length that
occurs for less than 5% of exceedance runs.

We reproduce that calibration here.  Two notes:

* Exceedance *patterns* of a log-normal AR(1) process are identical to those
  of the underlying Gaussian AR(1) process, because exponentiation is
  monotone; we therefore simulate the Gaussian core directly.
* The table is deterministic for a fixed seed, so the default table is
  reproducible across runs and platforms.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import stats as sps

__all__ = ["RareEventTable", "default_rare_event_table", "generate_rare_event_table"]

#: Autocorrelation grid of the default (coarse) lookup table.
DEFAULT_RHO_GRID: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: "Rare" means the run length occurs for less than this fraction of runs.
DEFAULT_RARE_FRACTION = 0.05

#: Seed for the default table (fixed for reproducibility).
DEFAULT_SEED = 20060924

#: Series length per Monte-Carlo replication.
DEFAULT_SERIES_LENGTH = 400_000


@dataclass(frozen=True)
class RareEventTable:
    """Lookup from lag-1 autocorrelation to consecutive-miss threshold.

    ``thresholds[rho]`` is the smallest run length of consecutive
    above-quantile observations that constitutes a rare event for a
    stationary series with that autocorrelation.  Lookup uses the nearest
    grid point at or below the query (conservative: higher autocorrelation
    tolerates longer runs, so flooring never inflates the threshold).
    """

    quantile: float
    rare_fraction: float
    thresholds: Dict[float, int]

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("rare-event table must have at least one entry")

    @property
    def rho_grid(self) -> Tuple[float, ...]:
        return tuple(sorted(self.thresholds))

    def threshold_for(self, rho: float) -> int:
        """Consecutive-miss threshold for a series with lag-1 autocorr ``rho``.

        Autocorrelations below the grid clamp to the lowest grid point;
        negative autocorrelation behaves like zero (anti-correlation only
        makes long runs rarer).
        """
        grid = self.rho_grid
        rho = min(max(rho, grid[0]), grid[-1])
        idx = bisect.bisect_right(grid, rho) - 1
        idx = max(idx, 0)
        return self.thresholds[grid[idx]]


def _run_lengths(exceed: np.ndarray) -> np.ndarray:
    """Lengths of maximal runs of True in a boolean array."""
    if exceed.size == 0:
        return np.empty(0, dtype=int)
    padded = np.concatenate(([False], exceed, [False]))
    diffs = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(diffs == 1)
    ends = np.flatnonzero(diffs == -1)
    return ends - starts


def _gaussian_ar1(n: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """A length-n Gaussian AR(1) series with N(0,1) marginals and lag-1 autocorr rho.

    ``series[0]`` is the first innovation and ``series[i] = rho *
    series[i-1] + scale * innovation[i]`` after it, each step rounded as
    float64 arithmetic rounds it.  ``accumulate`` over the Python floats a
    ``memoryview`` yields one at a time runs that recursion about twice as
    fast as indexing numpy scalars in a loop, without a list of the whole
    series; ``scipy.signal.lfilter`` would be faster still, but importing
    ``scipy.signal`` costs every process that builds a table about 4 MB.
    """
    innovations = rng.standard_normal(n)
    if rho == 0.0:
        return innovations
    driven = innovations * math.sqrt(1.0 - rho * rho)
    driven[0] = innovations[0]
    steps = itertools.accumulate(memoryview(driven), lambda prev, x: rho * prev + x)
    return np.fromiter(steps, float, n)


def threshold_for_rho(
    rho: float,
    quantile: float = 0.95,
    rare_fraction: float = DEFAULT_RARE_FRACTION,
    series_length: int = DEFAULT_SERIES_LENGTH,
    rng: np.random.Generator = None,
) -> int:
    """Monte-Carlo estimate of the rare-run threshold for one autocorrelation.

    Simulates a stationary Gaussian AR(1) series, marks exceedances above the
    marginal ``quantile``, and returns the smallest run length L such that
    fewer than ``rare_fraction`` of exceedance runs reach length L.

    The result is floored at 3: for i.i.d. data the probability that a run
    reaches length 2 is exactly ``1 - quantile`` (0.05 at the default), which
    sits *on* the 5% boundary, so Monte-Carlo noise would flip the answer
    between 2 and 3 from seed to seed; the paper's narrative ("three
    measurements in a row ... almost certain") resolves the boundary upward.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"autocorrelation must be in [0, 1), got {rho}")
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    series = _gaussian_ar1(series_length, rho, rng)
    cutoff = float(sps.norm.ppf(quantile))
    runs = _run_lengths(series > cutoff)
    if runs.size == 0:
        return 3
    lengths = np.sort(runs)
    n_runs = lengths.size
    # Smallest L with (#runs >= L) / n_runs < rare_fraction.
    for length in range(3, int(lengths[-1]) + 2):
        tail = n_runs - np.searchsorted(lengths, length, side="left")
        if tail / n_runs < rare_fraction:
            return length
    return max(3, int(lengths[-1]) + 1)


def generate_rare_event_table(
    quantile: float = 0.95,
    rho_grid: Sequence[float] = DEFAULT_RHO_GRID,
    rare_fraction: float = DEFAULT_RARE_FRACTION,
    series_length: int = DEFAULT_SERIES_LENGTH,
    seed: int = DEFAULT_SEED,
) -> RareEventTable:
    """Build a rare-event threshold table by Monte-Carlo simulation."""
    rng = np.random.default_rng(seed)
    thresholds = {
        float(rho): threshold_for_rho(
            rho,
            quantile=quantile,
            rare_fraction=rare_fraction,
            series_length=series_length,
            rng=rng,
        )
        for rho in rho_grid
    }
    return RareEventTable(
        quantile=quantile, rare_fraction=rare_fraction, thresholds=thresholds
    )


@lru_cache(maxsize=16)
def default_rare_event_table(quantile: float = 0.95) -> RareEventTable:
    """The coarse-grained default table (deterministic seed), cached."""
    return generate_rare_event_table(quantile=quantile)
