"""Streaming quantile sketches: P² and a merging t-digest.

Both estimators answer "what is the q-quantile of everything observed so
far" in O(1) memory and O(1) (amortized) time per observation — the
streaming counterpart of the exact order-statistic machinery in
:mod:`repro.core.history`.  Each backs one bank method of its own
(``p2-quantile``, ``tdigest-quantile`` in :mod:`repro.baselines.naive`),
a streaming analogue of the point-quantile baseline whose refit is a
constant-time sketch query instead of a selection over the window.

**Approximate by contract.**  Unlike the window order statistics, sketch
answers are *not* bit-identical to ``sorted(history)[k]`` and carry no
finite-sample guarantee, so they are covered by conformance measurement
(coverage is recorded, not asserted against the paper's (0.95, 0.95)
claim) rather than golden traces — see ``docs/verification.md``.

Both sketches are deterministic functions of the observation sequence, and
``update_batch`` is defined to leave *exactly* the state a per-item
``update`` loop would (the batched replay engine relies on this).

References: Jain & Chlamtac's P² algorithm (CACM 1985) and Dunning &
Ertl's t-digest.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import List, Optional

import numpy as np

__all__ = ["P2Quantile", "TDigest"]


class P2Quantile:
    """P² (piecewise-parabolic) streaming estimator of one quantile.

    Five markers track the running minimum, the p/2, p, and (1+p)/2
    quantile estimates, and the running maximum; each observation moves at
    most three markers by parabolic (or, degenerately, linear)
    interpolation.  Memory is five floats, update is O(1).
    """

    __slots__ = ("p", "_count", "_init", "_q", "_n")

    def __init__(self, p: float = 0.95):
        if not 0.0 < p < 1.0:
            raise ValueError(f"target probability must be in (0, 1), got {p}")
        self.p = p
        self._count = 0
        self._init: List[float] = []  # first five observations, kept sorted
        self._q: List[float] = []  # marker heights
        self._n: List[int] = []  # marker positions (1-indexed counts)

    def __len__(self) -> int:
        return self._count

    def reset(self) -> None:
        self._count = 0
        self._init = []
        self._q = []
        self._n = []

    def update(self, x: float) -> None:
        x = float(x)
        self._count += 1
        if self._count <= 5:
            insort(self._init, x)
            if self._count == 5:
                self._q = list(self._init)
                self._n = [1, 2, 3, 4, 5]
            return
        q = self._q
        n = self._n
        # Cell containing x; markers 0 and 4 absorb new extremes.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x < q[1]:
            k = 0
        elif x < q[2]:
            k = 1
        elif x < q[3]:
            k = 2
        elif x <= q[4]:
            k = 3
        else:
            q[4] = x
            k = 3
        for i in range(k + 1, 5):
            n[i] += 1
        # Desired positions, in direct form from the current count.
        count = self._count
        p = self.p
        span = count - 1
        desired = (
            1.0,
            1.0 + span * (p / 2.0),
            1.0 + span * p,
            1.0 + span * ((1.0 + p) / 2.0),
            float(count),
        )
        for i in (1, 2, 3):
            d = desired[i] - n[i]
            ni = n[i]
            if (d >= 1.0 and n[i + 1] - ni > 1) or (d <= -1.0 and n[i - 1] - ni < -1):
                step = 1 if d >= 1.0 else -1
                # Piecewise-parabolic prediction of the marker height at
                # its new position.
                qi = q[i]
                d_lo = ni - n[i - 1]
                d_hi = n[i + 1] - ni
                parabolic = qi + (step / (d_hi + d_lo)) * (
                    (d_lo + step) * (q[i + 1] - qi) / d_hi
                    + (d_hi - step) * (qi - q[i - 1]) / d_lo
                )
                if q[i - 1] < parabolic < q[i + 1]:
                    q[i] = parabolic
                elif step == 1:
                    q[i] = qi + (q[i + 1] - qi) / d_hi
                else:
                    q[i] = qi - (q[i - 1] - qi) / d_lo
                n[i] = ni + step

    def update_batch(self, values) -> None:
        """Per-item updates in order (P² is inherently sequential)."""
        update = self.update
        for x in np.asarray(values, dtype=float).ravel():
            update(x)

    def quantile(self) -> Optional[float]:
        """Current estimate of the target ``p``-quantile."""
        if self._count == 0:
            return None
        if self._count <= 5:
            rank = max(1, min(self._count, math.ceil(self.p * self._count)))
            return self._init[rank - 1]
        return self._q[2]


#: t-digest scale parameter: larger → more centroids → tighter tails.
_TDIGEST_DELTA = 100
#: Incoming observations buffered before a merge pass.
_TDIGEST_BUFFER = 512


class TDigest:
    """Merging t-digest: clustered 1-D summary with tail-accurate quantiles.

    Observations buffer until :data:`_TDIGEST_BUFFER` arrive, then merge
    into a bounded set of (mean, weight) centroids whose sizes follow the
    k₁ scale function — clusters near the median are large, clusters near
    the tails stay tiny, which is why the q→1 quantiles the predictors
    care about stay accurate.  Memory is O(δ); amortized update cost is
    the merge pass divided by the buffer size.

    Any quantile can be queried, unlike P²'s fixed markers.
    """

    __slots__ = ("delta", "_means", "_weights", "_buf", "_count", "_min", "_max")

    def __init__(self, delta: int = _TDIGEST_DELTA):
        if delta < 10:
            raise ValueError(f"delta too small: {delta}")
        self.delta = delta
        self._means = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)
        self._buf: List[float] = []
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def __len__(self) -> int:
        return self._count

    def reset(self) -> None:
        self._means = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)
        self._buf = []
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def update(self, x: float) -> None:
        x = float(x)
        self._buf.append(x)
        self._count += 1
        if x < self._min:
            self._min = x
        if x > self._max:
            self._max = x
        if len(self._buf) >= _TDIGEST_BUFFER:
            self._compress()

    def update_batch(self, values) -> None:
        """Vectorized feed with the same merge points as per-item updates."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        self._count += int(arr.size)
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        pos = 0
        while pos < arr.size:
            room = _TDIGEST_BUFFER - len(self._buf)
            take = min(room, arr.size - pos)
            self._buf.extend(arr[pos:pos + take].tolist())
            pos += take
            if len(self._buf) >= _TDIGEST_BUFFER:
                self._compress()

    def _k1(self, q: float) -> float:
        return self.delta / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)

    def _compress(self) -> None:
        if not self._buf and self._means.size == 0:
            return
        means = np.concatenate([self._means, np.asarray(self._buf, dtype=float)])
        weights = np.concatenate(
            [self._weights, np.ones(len(self._buf), dtype=float)]
        )
        self._buf = []
        order = np.argsort(means, kind="stable")
        means = means[order]
        weights = weights[order]
        total = float(weights.sum())
        out_means: List[float] = []
        out_weights: List[float] = []
        cur_mean = float(means[0])
        cur_weight = float(weights[0])
        q0 = 0.0
        k_limit = self._k1(q0) + 1.0
        for i in range(1, means.size):
            w = float(weights[i])
            q_new = q0 + (cur_weight + w) / total
            if q_new <= 1.0 and self._k1(q_new) <= k_limit:
                # Merge into the current centroid (weighted mean).
                cur_mean += (float(means[i]) - cur_mean) * (w / (cur_weight + w))
                cur_weight += w
            else:
                out_means.append(cur_mean)
                out_weights.append(cur_weight)
                q0 += cur_weight / total
                k_limit = self._k1(min(1.0, q0)) + 1.0
                cur_mean = float(means[i])
                cur_weight = w
        out_means.append(cur_mean)
        out_weights.append(cur_weight)
        self._means = np.asarray(out_means, dtype=float)
        self._weights = np.asarray(out_weights, dtype=float)

    def quantile(self, p: float) -> Optional[float]:
        """Estimate of the ``p``-quantile by centroid interpolation.

        A Python ``float``, never a numpy scalar: a replay scores jobs
        against it with plain division, where a numpy scalar warns on
        overflow (a subnormal quote).
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        if self._count == 0:
            return None
        if self._buf:
            self._compress()
        means = self._means
        weights = self._weights
        if means.size == 1:
            return float(means[0])
        total = float(weights.sum())
        target = p * total
        # Centroid centers sit at cumulative weight minus half their own.
        cum = np.cumsum(weights) - weights / 2.0
        if target <= cum[0]:
            # Interpolate from the true minimum to the first center.
            frac = target / cum[0]
            return float(self._min + frac * (float(means[0]) - self._min))
        if target >= cum[-1]:
            span = total - cum[-1]
            frac = (target - cum[-1]) / span if span > 0 else 1.0
            return float(means[-1] + frac * (self._max - float(means[-1])))
        hi = int(np.searchsorted(cum, target))
        lo = hi - 1
        span = cum[hi] - cum[lo]
        frac = (target - cum[lo]) / span if span > 0 else 0.0
        return float(means[lo] + frac * (means[hi] - means[lo]))
