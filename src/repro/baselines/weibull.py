"""Weibull-fit quantile predictor.

A parametric alternative from the family the characterization literature
(cited by the paper) often uses for batch-job quantities.  Like the Downey
baseline, it quotes the fitted model's q-quantile as a point estimate —
there is no tolerance-bound machinery for it here — so it demonstrates a
*different-family* parametric fit against the log-normal methods.

The fit's sufficient statistics are all reductions over
``log(wait + shift)``, which makes the refit fully streamable.  In
incremental mode the predictor maintains, at the last accepted shape k:
``S0 = Σ exp(k·log x)``, ``S1 = Σ log x · exp(k·log x)``, and
``Σ log x`` over the fit window, each updated in O(1) per observation
(one ``math.exp`` plus scalar adds).  The per-element log and exp terms
live in two preallocated ring buffers of the fit-window capacity, so a
full window slides terms out by reading the slot about to be overwritten
— no per-observation allocation, and no deque churn.  A refit then
evaluates the profile-likelihood gradient at k from the running sums:
when the implied Newton step is below a tolerance far inside the fit's
statistical error, the standing shape is accepted with the scale read off
``S0`` — no pass over the window at all.  When the gradient drifts past
the tolerance (every few dozen observations in practice), a full warm
:func:`fit_weibull` resynchronizes shape, sums, and the cached profile
curvature directly from the log ring, purging any accumulated
floating-point drift.  Batch absorbs (the dense replay path) write the
epoch's shared log view straight into the ring and invalidate the
stream; change-point trims rebuild the ring from the retained history.

The streamed shape tracks the exact MLE to within the acceptance
tolerance (default 2e-3 relative — an order of magnitude under the fit's
~n^-1/2 statistical error at any realistic window), so incremental and
recompute modes agree statistically but not to machine precision; the
engine-identity tests hold Weibull to a documented 1e-2 relative band
rather than the exact tier.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.predictor import (
    QuantilePredictor,
    register_batch_aware_observe,
)
from repro.core.predictor import BoundKind
from repro.stats.weibull import fit_weibull

__all__ = ["WeibullPredictor"]

#: Accept the standing shape when the implied Newton step |g/g'| is below
#: this fraction of it.  The MLE moves ~k/window per new observation, so
#: drift crosses the tolerance (forcing a full resynchronizing fit) every
#: few dozen refits; between resyncs the quoted shape is within this of
#: the exact fit — well under the ~n^-1/2 statistical error of the fit
#: itself at the default window.
_STREAM_STEP_TOL = 2e-3


class WeibullPredictor(QuantilePredictor):
    """MLE Weibull fit; quotes the model's q-quantile."""

    name = "weibull"

    def __init__(
        self,
        quantile: float = 0.95,
        confidence: float = 0.95,
        kind: BoundKind = BoundKind.UPPER,
        trim: bool = False,
        trim_length: Optional[int] = None,
        rare_event_table=None,
        shift: float = 1.0,
        max_history: int = 4000,
        refit_mode: str = "incremental",
    ):
        super().__init__(
            quantile=quantile,
            confidence=confidence,
            kind=kind,
            trim=trim,
            trim_length=trim_length,
            rare_event_table=rare_event_table,
            refit_mode=refit_mode,
        )
        if shift <= 0.0:
            raise ValueError(f"shift must be positive, got {shift}")
        self.shift = shift
        self.max_history = max_history
        self._last_shape: Optional[float] = None
        # Ring buffers over the fit window (capacity = max_history):
        # ``_ring_l`` holds log(wait + shift) per observation in arrival
        # order, ``_ring_p`` the matching exp(k·log x) terms at the
        # streaming shape.  ``_pos`` is the next write slot (the oldest
        # entry once the ring is full), ``_count`` the filled length.
        # The legacy recompute arm re-derives logs inside the fit instead,
        # so it skips the ring upkeep entirely.
        self._keep_logs = refit_mode != "recompute"
        self._cap = max_history
        self._ring_l = np.empty(max_history)
        self._ring_p = np.empty(max_history)
        self._pos = 0
        self._count = 0
        # Streaming sufficient statistics, valued at ``_stream_k`` (None =
        # stale, resync at next refit).
        self._stream_k: Optional[float] = None
        self._stream_gp = 0.0
        self._s0 = 0.0
        self._s1 = 0.0
        self._slog = 0.0

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        if self._keep_logs:
            log = math.log(wait + self.shift)
            pos = self._pos
            cap = self._cap
            full = self._count == cap
            k = self._stream_k
            if k is not None:
                try:
                    p = math.exp(k * log)
                except OverflowError:
                    # A degenerate fit (all-equal waits) can leave a shape
                    # whose term overflows: drop the stream and resync from
                    # the log ring at the next refit, as a batch absorb does.
                    self._stream_k = k = None
            if k is not None:
                if full:
                    # The slot about to be overwritten is the term that
                    # slides out of the fit window.
                    l_old = self._ring_l.item(pos)
                    p_old = self._ring_p.item(pos)
                    self._s0 += p - p_old
                    self._s1 += log * p - l_old * p_old
                    self._slog += log - l_old
                else:
                    self._s0 += p
                    self._s1 += log * p
                    self._slog += log
                self._ring_p[pos] = p
            self._ring_l[pos] = log
            self._pos = pos + 1 if pos + 1 < cap else 0
            if not full:
                self._count += 1
        super().observe(wait, predicted=predicted)

    def _absorb_batch(self, waits: np.ndarray, shared=None) -> None:
        if self._keep_logs:
            if shared is not None:
                logs = shared.logs(self.shift)
            else:
                logs = np.log(waits + self.shift)
            m = logs.size
            cap = self._cap
            ring = self._ring_l
            if m >= cap:
                ring[:] = logs[-cap:]
                self._count = cap
                self._pos = 0
            else:
                pos = self._pos
                end = pos + m
                if end <= cap:
                    ring[pos:end] = logs
                    self._pos = end if end < cap else 0
                else:
                    split = cap - pos
                    ring[pos:] = logs[:split]
                    ring[: end - cap] = logs[split:]
                    self._pos = end - cap
                self._count = min(self._count + m, cap)
            self._stream_k = None  # resync from the log ring at next refit
        super()._absorb_batch(waits, shared)

    def _on_history_trimmed(self) -> None:
        if self._keep_logs:
            values = self.history.arrival_view()[-self._cap :]
            m = values.size
            self._ring_l[:m] = np.log(values + self.shift)
            self._count = m
            self._pos = m if m < self._cap else 0
            self._stream_k = None

    def _window_logs(self) -> np.ndarray:
        """The fit window's logs in arrival order, normalizing the ring.

        After this the ring starts at slot 0, so the returned array can be
        (and on the full ring, is) a view of it.
        """
        count = self._count
        pos = self._pos
        if count == self._cap and pos != 0:
            logs = np.concatenate((self._ring_l[pos:], self._ring_l[:pos]))
            self._ring_l[:count] = logs
            self._pos = 0
            return logs
        return self._ring_l[:count]

    def _resync(self) -> float:
        """Full warm fit, then rebuild the streams at the accepted shape."""
        logs = self._window_logs()
        # ``fit_weibull`` runs entirely off the precomputed logs.
        fitted = fit_weibull((), shift=self.shift, guess=self._last_shape, logs=logs)
        k = fitted.shape
        powered = np.exp(k * logs)
        s0 = float(np.add.reduce(powered))
        s1 = float(np.dot(powered, logs))
        s2 = float(np.dot(powered, logs * logs))
        gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k)
        if math.isfinite(gp) and gp > 0.0 and s0 > 0.0:
            self._stream_k = k
            self._stream_gp = gp
            self._s0 = s0
            self._s1 = s1
            self._slog = float(np.add.reduce(logs))
            self._ring_p[: logs.size] = powered
        else:
            self._stream_k = None
        self._last_shape = k
        return max(0.0, fitted.quantile(self.quantile) - self.shift)

    def _compute_bound(self) -> Optional[float]:
        if self.refit_mode == "recompute":
            # Legacy full-recompute refit (the bench-core A/B control):
            # re-derive the logs inside the fit every time.
            values = self.history.arrival_view()
            if values.size < 10:
                return None
            fitted = fit_weibull(
                values[-self.max_history :], shift=self.shift, guess=self._last_shape
            )
            self._last_shape = fitted.shape
            return max(0.0, fitted.quantile(self.quantile) - self.shift)
        if self._count < 10:
            return None
        k = self._stream_k
        if k is not None and self._s0 > 0.0:
            n = self._count
            g = self._s1 / self._s0 - 1.0 / k - self._slog / n
            if math.isfinite(g) and abs(g) <= _STREAM_STEP_TOL * k * self._stream_gp:
                scale = (self._s0 / n) ** (1.0 / k)
                bound = scale * (-math.log(1.0 - self.quantile)) ** (1.0 / k)
                return max(0.0, bound - self.shift)
        return self._resync()


register_batch_aware_observe(WeibullPredictor.observe)
