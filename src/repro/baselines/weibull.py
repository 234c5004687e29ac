"""Weibull-fit quantile predictor.

A parametric alternative from the family the characterization literature
(cited by the paper) often uses for batch-job quantities.  Like the Downey
baseline, it quotes the fitted model's q-quantile as a point estimate —
there is no tolerance-bound machinery for it here — so it demonstrates a
*different-family* parametric fit against the log-normal methods.

The fit window is the last ``max_history`` waits, read through
``l = log(wait + shift)``.  A refit evaluates three sums over it at the
standing shape k — ``S0 = Σ exp(k·l)``, ``S1 = Σ l·exp(k·l)`` and
``Σ l`` — and from them the profile-likelihood gradient g at k.  When the
implied Newton step ``|g/g'|`` is below 2e-3 of k (``g'`` as of the last
resync), the standing shape is accepted with the scale read off ``S0``.
Otherwise the refit *resyncs*: the first Newton step is taken from the
gate's own sums (plus ``S2 = Σ l²·exp(k·l)``), and the next iterate's
evaluation usually settles it, so a resync costs one more pass over the
window (a cold :func:`~repro.stats.weibull.fit_weibull` when the
iteration does not converge).  A change-point trim drops ``g'``, so the
next refit resyncs, warm-started from the last fitted shape.

Replays do not feed the predictor event by event: its prefix kernel
(``_prefix_bounds``) walks from resync to resync.  At a fixed shape each
sum at a later refit is the resync's sum plus a ``cumsum`` over the terms
entering and leaving the window, so one vectorized pass gates a run of
refits; the kernel stops at the first refit that fails and resyncs there.
Its quotes match per-item refits to roundoff (1e-12 relative, the same
resyncs).

The accepted shape tracks the exact MLE to within the 2e-3 tolerance — an
order of magnitude under the fit's ~n^-1/2 statistical error at any
realistic window — so the quotes agree with a full :func:`fit_weibull`
at every refit statistically but not to machine precision; the
engine-identity tests hold Weibull to a documented 1e-2 relative band
rather than the exact tier.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Optional, Tuple

import numpy as np

from repro.core.predictor import BoundKind, QuantilePredictor
from repro.stats.order_stats import RangeSelect
from repro.stats.weibull import fit_weibull, newton_shape

__all__ = ["WeibullPredictor"]

#: Accept the standing shape when the implied Newton step |g/g'| is below
#: this fraction of it.  The MLE moves ~k/window per new observation, so
#: drift crosses the tolerance (forcing a resync) every few dozen refits;
#: between resyncs the quoted shape is within this of the exact fit —
#: well under the ~n^-1/2 statistical error of the fit itself at the
#: default window.
_STREAM_STEP_TOL = 2e-3

#: Drain positions the kernel gates at once right after a resync, at the
#: least; the span then doubles while every refit in it passes.
_MIN_SPAN = 16


def _window_sums(logs: np.ndarray, k: float) -> Tuple[float, float, float, float]:
    """``(S0, S1, S2, Σ l)`` over ``logs`` at shape ``k``."""
    with np.errstate(over="ignore", invalid="ignore"):
        powered = np.exp(k * logs)
        return (
            float(np.add.reduce(powered)),
            float(np.dot(powered, logs)),
            float(np.dot(powered, logs * logs)),
            float(np.add.reduce(logs)),
        )


def _resync(
    logs: np.ndarray,
    guess: Optional[float],
    sums: Optional[Tuple[float, float, float]] = None,
) -> Tuple[float, float, Tuple[float, float, float], Optional[float]]:
    """Fit the window: ``(shape, scale, (S0, S1, S2) at it, g' or None)``.

    Newton from ``guess`` (taking its first step from ``sums``, the
    window's ``(S0, S1, S2)`` at ``guess``, when given), else a cold
    :func:`fit_weibull`.  ``g'`` is ``None`` when it is not a usable gate
    (an overflowed sum), and then the next refit resyncs again.
    """
    got = newton_shape(logs, guess, sums) if guess is not None else None
    if got is None:
        fitted = fit_weibull((), logs=logs)
        k, scale = fitted.shape, fitted.scale
        s0, s1, s2, _ = _window_sums(logs, k)
    else:
        k, s0, s1, s2 = got
        scale = (s0 / logs.size) ** (1.0 / k)
    gp = None
    if 0.0 < s0 < math.inf:
        gp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k)
        if not (math.isfinite(gp) and gp > 0.0):
            gp = None
    return k, scale, (s0, s1, s2), gp


def _fit_window(
    logs: np.ndarray,
    k: Optional[float],
    gp: Optional[float],
    sums: Optional[Tuple[float, float, float]] = None,
) -> Tuple[float, float, Tuple[float, float, float, float], Optional[float], bool]:
    """One refit over the window ``logs`` from shape ``k`` and gate ``gp``.

    Returns ``(shape, scale, (S0, S1, S2, Σ l) at it, g', resynced)``.
    With a gate, the window's sums at ``k`` decide whether the standing
    shape holds; ``sums``, when given, are a failing gate's ``(S0, S1,
    S2)``, and the refit resyncs from them at once.
    """
    n = logs.size
    if gp is not None and sums is None:
        s0, s1, s2, slog = _window_sums(logs, k)
        if 0.0 < s0 < math.inf:
            g = s1 / s0 - 1.0 / k - slog / n
            if abs(g) <= _STREAM_STEP_TOL * k * gp:  # False for a NaN g
                return k, (s0 / n) ** (1.0 / k), (s0, s1, s2, slog), gp, False
        sums = (s0, s1, s2)
    k, scale, (s0, s1, s2), gp = _resync(logs, k, sums)
    return k, scale, (s0, s1, s2, float(np.add.reduce(logs))), gp, True


class _Fits:
    """A kernel's fitted-shape state over one retained window (in ``carry``).

    ``k`` is the last fitted shape (the warm start), ``gp`` its gate
    curvature (``None``: resync at the next refit), ``base`` the drained
    length, ``S0``, ``S1``, ``S2`` and ``Σ l`` at ``k`` of the refit the
    gate's sums continue from.  ``at``/``shapes`` log each resync's
    length and shape, for the shape a fire inside this window resumes
    from; ``warm`` is the shape the window started with.
    """

    def __init__(self, warm: Optional[float]):
        self.k = self.warm = warm
        self.gp: Optional[float] = None
        self.base: Tuple[int, float, float, float, float] = (0, 0.0, 0.0, 0.0, 0.0)
        self.at: list = []
        self.shapes: list = []

    def shape_by(self, length: int) -> Optional[float]:
        """The warm-start shape once the refits up to ``length`` are done."""
        i = bisect_right(self.at, length)
        return self.shapes[i - 1] if i else self.warm


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
    ):
        super().__init__(
            quantile=quantile,
            confidence=confidence,
            kind=kind,
            trim=trim,
            trim_length=trim_length,
            rare_event_table=rare_event_table,
        )
        if shift <= 0.0:
            raise ValueError(f"shift must be positive, got {shift}")
        self.shift = shift
        self.max_history = max_history
        # The last fitted shape: the warm start of the next resync, and the
        # gate's standing shape while ``_gate_gp`` is set.
        self._last_shape: Optional[float] = None
        # The profile curvature g' at that shape, over the resync's window;
        # None: resync at the next refit.
        self._gate_gp: Optional[float] = None

    def _quote(self, k: float, scale: float) -> float:
        bound = scale * (-math.log(1.0 - self.quantile)) ** (1.0 / k)
        return max(0.0, bound - self.shift)

    def _on_history_trimmed(self) -> None:
        self._gate_gp = None

    def _compute_bound(self) -> Optional[float]:
        values = self.history.arrival_view()[-self.max_history:]
        n = values.size
        if n < 10:
            return None
        logs = np.log(values + self.shift)
        k, scale, _, self._gate_gp, _ = _fit_window(
            logs, self._last_shape, self._gate_gp
        )
        self._last_shape = k
        return self._quote(k, scale)

    def settle_prefix_refits(self, quoted: int, carry: dict) -> None:
        """Take the fitted shape and gate the kernel's refits left."""
        fits = carry.get("weibull")
        if fits is not None:
            self._last_shape, self._gate_gp = fits.k, fits.gp

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """The quote at each prefix length (see ``prefix_kernel``).

        Walks from resync to resync.  After a resync at length ``L`` and
        shape k, the gate's sums at a later refit ``m`` are the resync's
        plus a ``cumsum`` of the terms entering the window at positions
        ``[L, m)`` minus those leaving it, so one vectorized pass gates
        every refit in a span of positions; the walk quotes the passing
        prefix and resyncs at the first refit that fails, taking the first
        Newton step from that refit's gate sums.  The span starts at twice
        the last gap between resyncs and doubles while all refits pass; it
        never reaches ``L + max_history``, where the window has no wait
        left from the resync's: such a refit, like one whose sums
        overflowed, is gated on a fresh pass over its window, as
        ``_compute_bound`` gates every refit.

        The fitted shape lives in ``carry["weibull"]`` across calls over
        one window; a window a fire trimmed starts from the shape the old
        window had at the fire (``carry["before"]``, ``carry["at"]``) with
        the gate down, as ``_on_history_trimmed`` leaves the predictor.
        """
        carry = {} if carry is None else carry
        fits = carry.get("weibull")
        if fits is None:
            before = carry.get("before")
            warm = (
                before["weibull"].shape_by(carry["at"])
                if before is not None and "weibull" in before
                else self._last_shape
            )
            fits = carry["weibull"] = _Fits(warm)
        out = np.full(lengths.size, np.nan)
        cap = self.max_history
        j = int(np.searchsorted(lengths, 10))
        if cap < 10 or j == lengths.size:
            return out
        logs = np.log(waits[: int(lengths[-1])] + self.shift)
        with np.errstate(over="ignore", invalid="ignore"):
            self._walk(fits, logs, lengths, j, out)
        return out

    def _walk(
        self, fits: _Fits, logs: np.ndarray, lengths: np.ndarray, j: int,
        out: np.ndarray,
    ) -> None:
        """Quote ``lengths[j:]`` into ``out``, resync by resync."""
        cap = self.max_history
        span = _MIN_SPAN
        at = lengths.tolist()
        while j < len(at):
            sums = None
            if fits.gp is not None and at[j] < fits.base[0] + cap:
                end = fits.base[0] + min(span, cap)
                j_end = max(j + 1, bisect_left(at, end, j))
                passed, sums = self._gate_run(
                    fits, logs, lengths[j:j_end], at[j_end - 1], out[j:j_end]
                )
                if j + passed == j_end:
                    j = j_end
                    span *= 2
                    continue
                j += passed
            m = at[j]
            last = fits.base[0]
            k, scale, window_sums, fits.gp, resynced = _fit_window(
                logs[max(0, m - cap):m], fits.k, fits.gp, sums
            )
            fits.base = (m,) + window_sums
            out[j] = self._quote(k, scale)
            if resynced:
                fits.k = k
                fits.at.append(m)
                fits.shapes.append(k)
                span = max(_MIN_SPAN, 2 * (m - last))
            j += 1

    def _gate_run(
        self, fits: _Fits, logs: np.ndarray, run: np.ndarray, top: int,
        out: np.ndarray,
    ) -> Tuple[int, Optional[Tuple[float, float, float]]]:
        """Gate the refits at lengths ``run`` (the last is ``top``) on the
        running sums.

        Quotes the passing prefix into ``out`` and returns its size, with
        ``(S0, S1, S2)`` at the first failing refit — or ``None`` when
        its sums overflowed, and only a fresh pass can gate it.  Every
        length is below ``base + max_history``, so no wait both enters
        and leaves the window inside the run.  Runs under the caller's
        ``np.errstate``.
        """
        k, gp = fits.k, fits.gp
        base, s0, s1, s2, slog = fits.base
        cap = self.max_history
        entering = logs[base:top]
        leaving = logs[max(0, base - cap):max(0, top - cap)]
        # Rows: the terms of S0, S1 and Σ l, column 0 holding the resync's
        # sums; from column ``off`` on, each entering wait pushes one out.
        off = 1 + entering.size - leaving.size
        sums = np.empty((3, entering.size + 1))
        sums[0, 0], sums[1, 0], sums[2, 0] = s0, s1, slog
        p_in = np.exp(k * entering)
        sums[0, 1:] = p_in
        np.multiply(entering, p_in, out=sums[1, 1:])
        sums[2, 1:] = entering
        if leaving.size:
            p_out = np.exp(k * leaving)
            sums[0, off:] -= p_out
            sums[1, off:] -= leaving * p_out
            sums[2, off:] -= leaving
        np.cumsum(sums, axis=1, out=sums)
        c0, c1, cl = sums[:, run - base]
        full = int(run[0]) >= cap
        n = cap if full else np.minimum(run, cap)
        g = c1 / c0 - 1.0 / k - cl / n
        # An overflowed term leaves g NaN from there on.
        ok = (np.abs(g) <= _STREAM_STEP_TOL * k * gp) & (c0 > 0.0)
        passed = int(ok.argmin())  # the first failing refit, if any
        passed = run.size if ok[passed] else passed
        if passed:
            factor = (-math.log(1.0 - self.quantile)) ** (1.0 / k)
            scale = (c0[:passed] / (n if full else n[:passed])) ** (1.0 / k)
            out[:passed] = np.maximum(0.0, scale * factor - self.shift)
        if passed == run.size or not (
            math.isfinite(g[passed]) and 0.0 < c0[passed] < math.inf
        ):
            return passed, None
        i = int(run[passed]) - base
        lost = max(0, i + 1 - off)
        s2 += float(np.dot(entering[:i] * entering[:i], p_in[:i]))
        if lost:
            s2 -= float(np.dot(leaving[:lost] * leaving[:lost], p_out[:lost]))
        return passed, (float(c0[passed]), float(c1[passed]), s2)
