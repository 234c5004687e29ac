"""Weibull distribution support.

The workload-characterization literature the paper cites frequently models
batch-job quantities (interarrivals, runtimes, and sometimes waits) as
Weibull.  We provide the distribution plus a maximum-likelihood fit so the
ablations can include a Weibull-based predictor alongside Downey's
log-uniform and the log-normal methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

__all__ = ["WeibullDistribution", "fit_weibull", "newton_shape"]


@dataclass(frozen=True)
class WeibullDistribution:
    """Two-parameter Weibull: ``P(X <= x) = 1 - exp(-(x/scale)^shape)``."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if self.shape <= 0.0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def quantile(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        return self.scale * (-math.log(1.0 - q)) ** (1.0 / self.shape)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return 1.0 - math.exp(-((x / self.scale) ** self.shape))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)


#: Warm-start Newton acceptance: stop when the proposed step falls below
#: this fraction of the current shape.  The Newton step approximates the
#: current iterate's own error, so the accepted shape carries a relative
#: error of about this much — three-plus orders of magnitude below the
#: fit's statistical error at any realistic window (~n^-1/2).
#: Accepting here (instead of iterating the step down to 1e-9) saves one
#: full profile evaluation per warm refit — a third of the fit's cost at
#: the replay engine's epoch cadence.
_NEWTON_STEP_TOL = 1e-5


def newton_shape(
    logs: np.ndarray,
    guess: float,
    sums: Optional[Tuple[float, float, float]] = None,
) -> Optional[Tuple[float, float, float, float]]:
    """Warm-started Newton solve of the profile equation over ``logs``.

    ``logs`` are the fit window's ``log(value + shift)``.  Each step
    evaluates ``S0 = Σ exp(k·l)``, ``S1 = Σ l·exp(k·l)`` and
    ``S2 = Σ l²·exp(k·l)`` at the iterate k: the profile equation is
    ``g = S1/S0 − 1/k − mean(l)`` and its derivative
    ``g' = (S2·S0 − S1²)/S0² + 1/k²``.  ``sums``, when given, are
    ``(S0, S1, S2)`` at ``guess``, so the first step costs no pass over
    the window.  An iterate whose step falls below ``_NEWTON_STEP_TOL`` of
    it is accepted together with its own sums, returned as
    ``(k, S0, S1, S2)``.  Returns ``None`` when an iterate leaves the
    valid shape range, a sum overflows, or twelve steps do not settle.
    """
    lo, hi = 1e-3, 512.0
    if not lo < guess < hi:
        return None
    # Same pairwise reduction as ``logs.mean()`` without the method's
    # dispatch overhead (this runs once per refit, every epoch).
    log_mean = float(np.add.reduce(logs)) / logs.size
    logs2 = logs * logs
    powered = np.empty_like(logs)
    k = float(guess)
    for _ in range(12):
        if sums is None:
            # exp(k * log x) is x**k with one vector multiply instead of a
            # per-element pow.
            np.multiply(logs, k, out=powered)
            with np.errstate(over="ignore"):
                np.exp(powered, out=powered)
            s0 = float(powered.sum())
            s1 = float(np.dot(powered, logs))
            s2 = float(np.dot(powered, logs2))
        else:
            s0, s1, s2 = sums
            sums = None
        if not s0 > 0.0:  # every term underflowed
            return None
        g = s1 / s0 - 1.0 / k - log_mean
        gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k)
        if not math.isfinite(g) or not gp > 0.0:
            return None
        k_next = k - g / gp
        if not lo < k_next < hi:
            return None
        if abs(k_next - k) <= _NEWTON_STEP_TOL * k:
            return k, s0, s1, s2
        k = k_next
    return None


def fit_weibull(
    values: Sequence[float],
    shift: float = 1.0,
    guess: Optional[float] = None,
    logs: Optional[np.ndarray] = None,
) -> WeibullDistribution:
    """Maximum-likelihood Weibull fit (zero waits handled via ``shift``).

    Uses the standard profile-likelihood reduction: for a given shape k the
    MLE scale is ``(mean(x^k))^(1/k)``, and k solves a one-dimensional
    fixed-point equation, which we bracket and solve with brentq.

    ``guess`` warm-starts the root search with a previous fit's shape via
    :func:`newton_shape`.  Refitting after a handful of new observations
    converges in a couple of steps; the accepted iterate reuses its own
    profile evaluation for the scale, so no extra pass over the window is
    paid.  If Newton wanders out of the valid shape range or stalls, we
    fall back to the cold bracketed solve.  The cold solve weighs the logs
    relative to their maximum, so a degenerate window (all values equal,
    which drives the shape to the 512 cap) cannot overflow it.

    ``logs``, when given, must be ``np.log(values + shift)`` precomputed —
    the fit's sufficient statistics are all reductions over these logs, so
    a caller that already holds them skips the ``np.log`` pass.  The
    caller vouches for the array; it is used read-only.
    """
    if logs is None:
        arr = np.asarray(values, dtype=float) + shift
        if arr.size < 2:
            raise ValueError("Weibull fit needs at least two observations")
        if np.any(arr <= 0.0):
            raise ValueError("all values must exceed -shift for a Weibull fit")
        logs = np.log(arr)
    elif logs.size < 2:
        raise ValueError("Weibull fit needs at least two observations")
    if guess is not None:
        got = newton_shape(logs, guess)
        if got is not None:
            k, s0 = got[0], got[1]
            return WeibullDistribution(shape=k, scale=(s0 / logs.size) ** (1.0 / k))
    log_mean = float(np.add.reduce(logs)) / logs.size
    top = float(logs.max())
    centered = logs - top
    powered = np.empty_like(logs)

    def profile(k: float) -> float:
        # The weights exp(k·(l − max l)) are exp(k·l) up to a common
        # factor, which the ratio cancels.
        np.multiply(centered, k, out=powered)
        np.exp(powered, out=powered)
        return float(np.dot(powered, logs) / powered.sum() - 1.0 / k - log_mean)

    lo, hi = 1e-3, 1.0
    while profile(hi) < 0.0 and hi < 512.0:
        hi *= 2.0
    if profile(lo) > 0.0:
        shape = lo
    elif profile(hi) < 0.0:
        shape = hi
    else:
        shape = float(optimize.brentq(profile, lo, hi, xtol=1e-9))
    np.multiply(centered, shape, out=powered)
    np.exp(powered, out=powered)
    scale = math.exp(top) * float(powered.mean()) ** (1.0 / shape)
    return WeibullDistribution(shape=shape, scale=scale)
