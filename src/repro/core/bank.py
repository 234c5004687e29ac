"""The method registry: every predictor the experiments compare, by name.

The paper's comparison holds only if every caller builds each method the
same way, so the experiments, the corpus replay, the conformance sweep
and the goldens all build theirs with :func:`make_bank`.

* :data:`HEADLINE` — the 9-method bank.
* :data:`SKETCHES` — the empirical q-quantile served from a P² or
  t-digest sketch (``core/sketch.py``): approximate by contract, NOT
  subject to the (0.95, 0.95) claim, and kept out of the headline bank.

Not :class:`repro.core.interval.QuantileBank`, which is one two-sided
interval over several quantile levels.  ``repro.core`` does not import
this module: it imports :mod:`repro.baselines`, which imports
``repro.core``.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.baselines import (
    BootstrapQuantilePredictor,
    DowneyLogUniformPredictor,
    MaxObservedPredictor,
    MeanWaitPredictor,
    P2QuantilePredictor,
    PointQuantilePredictor,
    TDigestQuantilePredictor,
    WeibullPredictor,
)
from repro.core.bmbp import BMBPPredictor
from repro.core.lognormal import LogNormalPredictor
from repro.core.predictor import QuantilePredictor

__all__ = ["CONFIDENCE", "HEADLINE", "QUANTILE", "SKETCHES", "make_bank"]

#: The paper's headline guarantee: the 0.95 quantile at 95 % confidence.
QUANTILE = 0.95
CONFIDENCE = 0.95

_FACTORIES: Dict[str, Callable[[float, float], QuantilePredictor]] = {
    "bmbp": BMBPPredictor,
    "logn-trim": lambda q, c: LogNormalPredictor(q, c, trim=True),
    "logn-notrim": lambda q, c: LogNormalPredictor(q, c, trim=False),
    "bootstrap": BootstrapQuantilePredictor,
    "downey": DowneyLogUniformPredictor,
    "weibull": WeibullPredictor,
    "max-observed": MaxObservedPredictor,
    "mean-wait": MeanWaitPredictor,
    "point-quantile": PointQuantilePredictor,
    "p2-quantile": P2QuantilePredictor,
    "tdigest-quantile": TDigestQuantilePredictor,
}

SKETCHES: Tuple[str, ...] = ("p2-quantile", "tdigest-quantile")
HEADLINE: Tuple[str, ...] = tuple(n for n in _FACTORIES if n not in SKETCHES)


def make_bank(
    names: Sequence[str] = HEADLINE,
    quantile: float = QUANTILE,
    confidence: float = CONFIDENCE,
) -> Dict[str, QuantilePredictor]:
    """Fresh predictors for ``names``, in that order, at (quantile, confidence)."""
    unknown = [name for name in names if name not in _FACTORIES]
    if unknown:
        raise KeyError(f"unknown method(s) {unknown}; known: {sorted(_FACTORIES)}")
    return {name: _FACTORIES[name](quantile, confidence) for name in names}
