"""One-sided tolerance (confidence) bounds on quantiles of a normal population.

The paper's log-normal comparison method (Section 4.2) produces a level-C
upper confidence bound for the q-quantile of a normal population using the
K' factors from Table 4.6 of Guttman, *Statistical Tolerance Regions* (1970).
Those printed factors are exactly the noncentral-t construction:

    upper bound = m + K'(n, q, C) * s,
    K'(n, q, C) = t^{-1}_{df = n-1, nc = z_q * sqrt(n)}(C) / sqrt(n)

where ``m`` and ``s`` are the sample mean and standard deviation, ``z_q`` is
the standard-normal q-quantile, and ``t^{-1}`` is the quantile function of
the noncentral t distribution.  We compute K' directly from
``scipy.stats.nct`` instead of interpolating the printed table.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy import stats as sps

#: A sample size, or an array of them.
Sizes = Union[int, np.ndarray]

__all__ = [
    "minimum_sample_size_normal",
    "normal_quantile_lower_factor",
    "normal_quantile_upper_factor",
]


def _validate(n: Sizes, quantile: float, confidence: float) -> None:
    smallest = int(np.min(n))
    if smallest < 2:
        raise ValueError(f"tolerance factors require n >= 2, got n={smallest}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def normal_quantile_upper_factor(
    n: Sizes, quantile: float, confidence: float
) -> Union[float, np.ndarray]:
    """K' such that ``m + K' * s`` is a level-``confidence`` upper bound on the
    ``quantile``-quantile of a normal population, from a sample of size n.

    ``s`` is the sample standard deviation with ddof=1 (the convention the
    noncentral-t derivation assumes).  ``n`` may be an integer (the result
    is a float) or an array of them (the result is an array, from one
    ``nct.ppf`` call); ``nct.ppf`` is elementwise, so each element equals
    the scalar call's result bit for bit.
    """
    _validate(n, quantile, confidence)
    z_q = float(sps.norm.ppf(quantile))
    root = np.sqrt(n)
    t_val = sps.nct.ppf(confidence, df=np.subtract(n, 1), nc=z_q * root)
    factor = t_val / root
    return float(factor) if np.ndim(n) == 0 else factor


def normal_quantile_lower_factor(
    n: Sizes, quantile: float, confidence: float
) -> Union[float, np.ndarray]:
    """K such that ``m + K * s`` is a level-``confidence`` *lower* bound on the
    ``quantile``-quantile of a normal population (``n`` as in the upper
    factor).

    By symmetry of the normal distribution, a lower bound for the q-quantile
    is the negation of the upper-bound factor for the (1-q)-quantile.
    """
    _validate(n, quantile, confidence)
    return -normal_quantile_upper_factor(n, 1.0 - quantile, confidence)


def minimum_sample_size_normal() -> int:
    """The smallest sample size for which the tolerance construction is defined.

    The noncentral-t bound needs a sample standard deviation, hence n >= 2.
    (Contrast with the binomial method's data-driven minimum, e.g. 59
    observations for a 95%-confidence bound on the 0.95 quantile.)
    """
    return 2
