"""Observation history for predictors.

``HistoryWindow`` stores wait-time observations in arrival order (needed for
change-point trimming, which keeps the *most recent* k observations) while
also maintaining an ascending-sorted view (needed for order-statistic
bounds).  Appends are O(1) amortized in every mode:

* Observations live in one growable numpy buffer with ``[start, end)``
  window offsets.  Appending writes one slot; bounded windows
  (``max_size``) evict by advancing ``start`` — no per-append copy, resort,
  or trim.  Dead space in front of ``start`` is reclaimed in bulk when the
  buffer fills, so the cost of keeping the window bounded is amortized over
  at least ``max_size`` appends.
* The sorted view is maintained *incrementally* in a second capacity
  buffer: values appended since the last read are folded in with in-place
  gap shifts (one ``searchsorted`` + one ``memmove`` each, no allocation),
  medium batches use a single vectorized merge, and only a batch larger
  than the measured merge-vs-resort crossover (or a change-point trim,
  which moves most of the window at once) re-sorts wholesale.  Evictions
  from a bounded window are folded the same way — a pending-deletion list
  of the evicted values, removed by in-place shifts at the next read — so
  a sliding window no longer pays a full resort per read.

This matches the predictors' access pattern — many appends between epoch
refits, one sorted read per refit — and keeps full-trace replays linear-ish
instead of quadratic.  In the sparse-trace regime (one or two observations
per refit epoch) a refit's sorted-view maintenance is one or two scalar
inserts, which is what makes the order-statistic predictors' refits
incremental rather than O(n log n).

**Rank subscriptions** let the order-statistic predictors (BMBP,
point-quantile, bootstrap) declare which ranks they will ask for as a
function of the window size: :meth:`subscribe_rank` registers a
``n -> rank`` resolver under a key, and :meth:`rank_value` answers it from
the shared maintained view, memoizing the resolved rank per window size.
All subscriptions on a window share one sorted structure and one flush
decision.  Every
value produced this way is *bit-identical* to ``sorted(history)[rank-1]``
(property-tested in ``tests/core/test_history_properties.py``).

The arrival-order window is also exposed as a **zero-copy numpy view**
(:meth:`arrival_view`) so consumers that scan the whole history — the
log-normal running-sum rebuild after a trim, the training autocorrelation
— never materialize a Python list of floats.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["HistoryWindow"]

#: Starting buffer capacity for unbounded windows.
_MIN_CAPACITY = 64

#: Largest number of staged evictions (bounded-window evictions and small
#: trims) folded into the sorted view by in-place deletion; past this the
#: next flush re-sorts wholesale instead.
_MAX_PENDING_EVICTS = 32

#: Pending batches at or below this size are merged with per-value in-place
#: gap shifts (no allocation); larger ones use one vectorized merge pass.
_SCALAR_MERGE_MAX = 8

#: ``_flush`` merges incrementally while the pending batch is smaller than
#: ``sorted_size // _MERGE_CROSSOVER_DENOM`` and re-sorts wholesale above
#: it.  Measured by the ``history_flush`` microbenchmark that the retired
#: ``bmbp bench-core`` verb ran (its ``BENCH_refit.json`` is in git
#: history at commit 1247272): the in-place merge cost crosses the
#: wholesale ``np.sort`` cost at a batch of roughly 1/32 of the sorted
#: size — into 20 000 merged values, a 625-value batch measures ~128 µs
#: either way, while at 1/8 the merge is already ~2× slower (312 µs vs
#: 152 µs; ``np.sort`` on nearly-sorted input is cheap, so the resort
#: side grows much flatter than intuition suggests).
_MERGE_CROSSOVER_DENOM = 32


class HistoryWindow:
    """Arrival-ordered observation buffer with an incrementally maintained
    sorted view and rank subscriptions."""

    def __init__(
        self,
        values: Iterable[float] = (),
        max_size: Optional[int] = None,
    ):
        """Create a window, optionally bounded to the most recent ``max_size``.

        ``max_size=None`` (the default, and the paper's configuration) keeps
        the full history until a change point trims it.
        """
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self._max_size = max_size
        # Twice max_size guarantees at least max_size appends between
        # compactions, making eviction O(1) amortized.
        capacity = _MIN_CAPACITY if max_size is None else max(2 * max_size, _MIN_CAPACITY)
        self._buf = np.empty(capacity, dtype=float)
        self._start = 0
        self._end = 0
        # Sorted view: the first _sorted_n slots of a capacity buffer, so
        # scalar inserts/deletes are in-place shifts, not reallocations.
        self._sorted_buf = np.empty(0, dtype=float)
        self._sorted_n = 0
        self._merged_end = 0  # buffer index up to which the view is current
        self._resort = False  # too much moved at once: resort wholesale
        self._evicted: List[float] = []  # merged values awaiting deletion
        # Cached result of sorted_values(): identical object returned while
        # no mutation intervenes, so repeat readers don't re-slice.
        self._sorted_view: Optional[np.ndarray] = None
        # Rank subscriptions: key -> resolver(n) -> rank, with a per-key
        # (n, rank) memo so a stable window size skips re-resolving.
        self._rank_subs: Dict[str, Callable[[int], Optional[int]]] = {}
        self._rank_memo: Dict[str, Tuple[int, Optional[int]]] = {}
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        return self._end - self._start

    def __bool__(self) -> bool:
        return self._end > self._start

    @property
    def max_size(self) -> Optional[int]:
        return self._max_size

    @property
    def values(self) -> List[float]:
        """Observations in arrival order (most recent last).  Copy."""
        return self._buf[self._start:self._end].tolist()

    def arrival_view(self) -> np.ndarray:
        """Observations in arrival order as a zero-copy numpy view.

        The returned array aliases the window's internal buffer: callers
        must not mutate it, and must not hold it across a later ``append``
        /``trim_to_recent``/``clear`` (the buffer may be compacted or
        reallocated underneath it).
        """
        return self._buf[self._start:self._end]

    # ------------------------------------------------------------- mutation

    def append(self, value: float) -> None:
        """Record one observation.  O(1) amortized, bounded or not."""
        value = float(value)
        if self._end == self._buf.size:
            self._compact_or_grow()
        self._buf[self._end] = value
        self._end += 1
        self._sorted_view = None
        if self._max_size is not None and self._end - self._start > self._max_size:
            self._stage_evictions(self._start + 1)
            self._start += 1

    def extend(self, values: Iterable[float]) -> None:
        """Append many observations in one vectorized pass.

        Equivalent to ``append`` in a loop but O(n) with a single buffer
        copy, which is what makes daemon restarts with months of history
        fast: state loading goes through here, not through per-observation
        appends.
        """
        if isinstance(values, np.ndarray):
            batch = values.astype(float, copy=False).ravel()
        else:
            batch = np.asarray(list(values), dtype=float)
        n = batch.size
        if n == 0:
            return
        size = self._end - self._start
        if self._end + n > self._buf.size:
            need = size + n
            if need <= self._buf.size:
                # Enough dead space in front of the window: compact in place.
                target = self._buf
            else:
                target = np.empty(max(_MIN_CAPACITY, 2 * need), dtype=float)
            target[:size] = self._buf[self._start:self._end]
            self._buf = target
            self._merged_end -= self._start
            self._start = 0
            self._end = size
        self._buf[self._end:self._end + n] = batch
        self._end += n
        self._sorted_view = None
        if self._max_size is not None and self._end - self._start > self._max_size:
            new_start = self._end - self._max_size
            self._stage_evictions(new_start)
            self._start = new_start

    def trim_to_recent(self, k: int) -> None:
        """Keep only the most recent ``k`` observations (arrival order).

        This is the paper's change-point response: "trim the history as much
        as we are able to while still producing meaningful confidence
        bounds".  Trimming to more than the current length is a no-op.
        """
        if k < 0:
            raise ValueError(f"cannot trim to negative length {k}")
        if k >= self._end - self._start:
            return
        new_start = self._end - k
        self._stage_evictions(new_start)
        self._start = new_start
        self._sorted_view = None

    def clear(self) -> None:
        self._start = 0
        self._end = 0
        self._merged_end = 0
        self._resort = False
        self._evicted.clear()
        self._sorted_view = None
        self._sorted_buf = np.empty(0, dtype=float)
        self._sorted_n = 0
        self._rank_memo.clear()

    # ------------------------------------------------------------- queries

    def sorted_values(self) -> np.ndarray:
        """Ascending-sorted observations.

        The returned array is a view of the window's internal buffer;
        callers must not mutate it and must not hold it across a later
        mutation.  (Returning the live buffer avoids a copy per refit.)
        """
        if self._sorted_view is None:
            self._flush()
            self._sorted_view = self._sorted_buf[:self._sorted_n]
        return self._sorted_view

    def order_statistic(self, rank: int) -> float:
        """The ``rank``-th smallest observation (1-indexed).

        Equivalent to ``sorted_values()[rank - 1]``: the pending append
        batch is folded into the maintained view first (scalar gap-shift
        inserts for the one-or-two-observations-per-epoch refit cadence,
        one merge or resort for larger batches — see :meth:`_flush`), so a
        steady stream of refits pays O(new observations) of maintenance per
        epoch rather than a fresh O(n log n) sort.  Selecting from the
        (sorted ∪ pending) union *without* merging sounds cheaper still,
        but measures slower: the pending region grows between flushes, so
        repeated refits re-search an ever-longer batch and the per-call
        numpy overhead of the union select exceeds the memmove the fold
        costs once.
        """
        size = self._end - self._start
        if not 1 <= rank <= size:
            raise IndexError(f"rank {rank} out of range for {size} observations")
        if self._resort or self._evicted or self._end > max(self._merged_end, self._start):
            self._flush()
        return float(self._sorted_buf[rank - 1])

    # --------------------------------------------------- rank subscriptions

    def subscribe_rank(
        self, key: str, rank_for: Callable[[int], Optional[int]]
    ) -> str:
        """Register a rank resolver under ``key`` and return the key.

        ``rank_for(n)`` maps the current window size to the 1-indexed rank
        the subscriber needs (or ``None`` when no order statistic of ``n``
        observations can serve it — e.g. a sample too small for the
        requested confidence).  Subscribing the same key again replaces the
        resolver (predictors re-subscribe on reconfiguration).
        """
        self._rank_subs[key] = rank_for
        self._rank_memo.pop(key, None)
        return key

    def rank_value(self, key: str) -> Optional[float]:
        """The subscribed order statistic for the current window, or None.

        Resolves the subscription's rank for the current size (memoized per
        size — a window that did not grow between refits skips the resolver
        entirely) and selects it through :meth:`order_statistic`, so the
        result is bit-identical to ``sorted(history)[rank - 1]`` and every
        subscription shares the same maintained sorted view.
        """
        rank_for = self._rank_subs[key]
        n = self._end - self._start
        if n == 0:
            return None
        memo = self._rank_memo.get(key)
        if memo is not None and memo[0] == n:
            rank = memo[1]
        else:
            rank = rank_for(n)
            self._rank_memo[key] = (n, rank)
        if rank is None:
            return None
        return self.order_statistic(rank)

    def subscriptions(self) -> Tuple[str, ...]:
        """Keys of the registered rank subscriptions (reporting/tests)."""
        return tuple(self._rank_subs)

    # ------------------------------------------------------------- internals

    def _stage_evictions(self, new_start: int) -> None:
        """Record values dropped from the window front for incremental
        deletion from the sorted view.

        Only values already folded into the sorted view need deleting;
        values that were still pending simply never get merged (the pending
        region starts at ``max(_merged_end, start)``).  Past
        ``_MAX_PENDING_EVICTS`` staged deletions the next flush re-sorts
        wholesale instead.
        """
        if self._resort:
            return
        merged_hi = min(self._merged_end, new_start)
        count = merged_hi - self._start
        if count <= 0:
            return
        if len(self._evicted) + count > _MAX_PENDING_EVICTS:
            self._resort = True
            self._evicted.clear()
            return
        self._evicted.extend(self._buf[self._start:merged_hi].tolist())

    def _apply_evictions(self) -> None:
        """Delete staged evicted values from the sorted view, in place."""
        if not self._evicted:
            return
        buf = self._sorted_buf
        n = self._sorted_n
        for value in self._evicted:
            # The ndarray method skips np.searchsorted's dispatch wrapper —
            # measurable at the one-insert-per-epoch refit cadence.
            pos = int(buf[:n].searchsorted(value))
            buf[pos:n - 1] = buf[pos + 1:n]
            n -= 1
        self._sorted_n = n
        self._evicted.clear()

    def _adopt_sorted(self, arr: np.ndarray) -> None:
        """Install ``arr`` (ascending, exactly the window) as the sorted view."""
        # Keep headroom so subsequent scalar inserts shift in place instead
        # of growing immediately.
        capacity = max(_MIN_CAPACITY, arr.size + (arr.size >> 2))
        if self._sorted_buf.size >= arr.size:
            self._sorted_buf[:arr.size] = arr
        else:
            buf = np.empty(capacity, dtype=float)
            buf[:arr.size] = arr
            self._sorted_buf = buf
        self._sorted_n = arr.size

    def _insert_sorted_scalar(self, value: float) -> None:
        """In-place gap-shift insert: one searchsorted, one memmove."""
        n = self._sorted_n
        if n == self._sorted_buf.size:
            grown = np.empty(max(_MIN_CAPACITY, 2 * n), dtype=float)
            grown[:n] = self._sorted_buf[:n]
            self._sorted_buf = grown
        buf = self._sorted_buf
        pos = int(buf[:n].searchsorted(value, side="right"))
        buf[pos + 1:n + 1] = buf[pos:n]
        buf[pos] = value
        self._sorted_n = n + 1

    def _compact_or_grow(self) -> None:
        """Reclaim evicted slots in front of the window, or grow the buffer."""
        size = self._end - self._start
        if self._start >= max(size, self._buf.size // 2):
            # At least half the buffer is dead space: slide the live window
            # to the front.  Runs at most once per start-offset's worth of
            # appends, so each append pays O(1) amortized.
            target = self._buf
        else:
            target = np.empty(max(_MIN_CAPACITY, 2 * self._buf.size), dtype=float)
        target[:size] = self._buf[self._start:self._end]
        self._buf = target
        self._merged_end -= self._start
        self._start = 0
        self._end = size

    def _flush(self) -> None:
        """Bring the sorted view up to date.

        Wholesale resort when a trim moved most of the window (or staged
        work overflowed); otherwise fold staged evictions by in-place
        deletion and the pending append batch by in-place scalar inserts
        (small batches), one vectorized merge (medium), or — past the
        measured crossover — a wholesale resort after all.
        """
        window = self._buf[self._start:self._end]
        if self._resort:
            self._adopt_sorted(np.sort(window))
            self._resort = False
            self._evicted.clear()
            self._merged_end = self._end
            return
        lo = max(self._merged_end, self._start)
        pending = self._end - lo
        if pending > self._sorted_n // _MERGE_CROSSOVER_DENOM and pending > _SCALAR_MERGE_MAX:
            # Large batch relative to the sorted view: one wholesale sort
            # of the window is cheaper than merging (measured crossover —
            # see ``_MERGE_CROSSOVER_DENOM``).
            self._adopt_sorted(np.sort(window))
            self._evicted.clear()
            self._merged_end = self._end
            return
        self._apply_evictions()
        if pending > 0:
            if pending <= _SCALAR_MERGE_MAX:
                for i in range(lo, self._end):
                    self._insert_sorted_scalar(float(self._buf[i]))
            else:
                batch = np.sort(self._buf[lo:self._end])
                sorted_view = self._sorted_buf[:self._sorted_n]
                positions = np.searchsorted(sorted_view, batch)
                self._adopt_sorted(np.insert(sorted_view, positions, batch))
        self._merged_end = self._end
