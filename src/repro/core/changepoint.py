"""Consecutive-miss change-point detection.

BMBP treats a sufficiently long run of consecutive incorrect predictions
(observations beyond the predicted bound) as evidence that the series has
changed in some fundamental way, at which point old history is discarded.
The run length that triggers this is the "rare event" threshold computed in
:mod:`repro.core.rare_event` from the training data's lag-1 autocorrelation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["ConsecutiveMissDetector", "first_fire_index", "trailing_run"]


def first_fire_index(miss: np.ndarray, carry: int, threshold: int) -> Optional[int]:
    """Index of the first observation whose miss-run reaches ``threshold``.

    ``miss`` is the hit/miss outcome sequence (True = miss) that *would* be
    fed to a :class:`ConsecutiveMissDetector` currently ``carry`` misses
    into a run.  Returns the index (into ``miss``) of the observation at
    which the detector would fire, or ``None``.  One vectorized pass — this
    is how the batched replay engine scans a whole drain batch at once
    while firing at the identical observation a sequential feed would.
    """
    n = int(miss.size)
    if n == 0:
        return None
    if n <= 64:
        # Small batches (the typical epoch segment) are faster to scan as
        # a plain loop than with the array machinery below.
        run = carry
        for i, m in enumerate(miss.tolist()):
            if m:
                run += 1
                if run >= threshold:
                    return i
            else:
                run = 0
        return None
    if not miss.any():
        return None
    idx = np.arange(n)
    # Index of the most recent hit at or before each position (-1: none).
    last_hit = np.maximum.accumulate(np.where(miss, -1, idx))
    run = idx - last_hit
    if carry > 0:
        run = np.where(last_hit < 0, run + carry, run)
    fired = run >= threshold
    if not fired.any():
        return None
    return int(np.argmax(fired))


def trailing_run(miss: np.ndarray, carry: int) -> int:
    """Detector run length after feeding the whole ``miss`` sequence.

    Companion to :func:`first_fire_index` for the no-fire case: the number
    of consecutive misses at the tail (plus ``carry`` if the sequence
    contains no hit at all).
    """
    n = int(miss.size)
    if n == 0:
        return carry
    if n <= 64:
        run = carry
        for m in miss.tolist():
            run = run + 1 if m else 0
        return run
    hits = np.nonzero(~miss)[0]
    if hits.size == 0:
        return carry + n
    return n - 1 - int(hits[-1])


class ConsecutiveMissDetector:
    """Counts consecutive misses and fires when a run reaches the threshold."""

    def __init__(self, threshold: int):
        if threshold < 1:
            raise ValueError(f"threshold must be at least 1, got {threshold}")
        self._threshold = threshold
        self._run = 0
        self._change_points = 0

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def current_run(self) -> int:
        """Length of the in-progress run of consecutive misses."""
        return self._run

    @property
    def change_points_seen(self) -> int:
        """How many times the detector has fired."""
        return self._change_points

    def record(self, miss: bool) -> bool:
        """Record one prediction outcome; return True when a change point fires.

        A hit resets the run.  When the run reaches the threshold the
        detector fires, resets the run (the history trim that follows makes
        the old run irrelevant), and returns True.
        """
        if not miss:
            self._run = 0
            return False
        self._run += 1
        if self._run >= self._threshold:
            self._run = 0
            self._change_points += 1
            return True
        return False

    def mark_change_point(self) -> None:
        """Record a fire established externally (the vectorized batch scan).

        Equivalent to the terminal :meth:`record` call of a miss run: the
        run resets and the change-point counter advances.  Used by
        ``QuantilePredictor.observe_batch`` after :func:`first_fire_index`
        locates the firing observation without replaying the run one call
        at a time.
        """
        self._run = 0
        self._change_points += 1

    def count_change_points(self, fires: int) -> None:
        """Add ``fires`` fires established outside the detector.

        The replay's prefix-kernel driver scans a whole replay's miss runs
        itself and settles the count once, instead of one
        :meth:`mark_change_point` per fire.
        """
        if fires < 0:
            raise ValueError(f"fire count must be non-negative, got {fires}")
        self._change_points += fires

    def reset(self) -> None:
        self._run = 0

    def restore_run(self, run: int) -> None:
        """Restore an in-progress miss run (state-restore path)."""
        if run < 0:
            raise ValueError(f"run length must be non-negative, got {run}")
        self._run = int(run)

    def retune(self, threshold: int) -> None:
        """Change the threshold (e.g. after retraining); keeps run state."""
        if threshold < 1:
            raise ValueError(f"threshold must be at least 1, got {threshold}")
        self._threshold = threshold
