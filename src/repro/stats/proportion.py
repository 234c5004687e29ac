"""Confidence intervals for a binomial proportion.

Coverage is a proportion — held quotes over scored jobs — and both the
conformance harness and the corpus coverage report accept a method when
the interval's upper limit reaches the target quantile.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Tuple

__all__ = ["wilson_interval"]


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The standard interval for coverage experiments: unlike the Wald
    interval it never collapses to zero width at p-hat = 1, which is the
    regime BMBP's over-coverage lives in.
    """
    if trials <= 0:
        raise ValueError("wilson_interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)
