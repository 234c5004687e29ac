"""Baseline predictors the paper discusses or implies.

* :class:`DowneyLogUniformPredictor` — Downey's log-uniform model (the
  related-work comparison point).
* :class:`PointQuantilePredictor` — the raw empirical quantile with no
  confidence margin; shows why the margin matters.
* :class:`P2QuantilePredictor`, :class:`TDigestQuantilePredictor` — the
  same quantile streamed through a sketch (approximate by contract).
* :class:`MaxObservedPredictor` — the "astronomically large" strawman from
  Section 5: trivially correct, uselessly inaccurate.
* :class:`MeanWaitPredictor` — predicting the historical mean, the naive
  single-value forecast users might do by hand.
"""

from repro.baselines.bootstrap import BootstrapQuantilePredictor
from repro.baselines.downey import DowneyLogUniformPredictor
from repro.baselines.naive import (
    MaxObservedPredictor,
    MeanWaitPredictor,
    P2QuantilePredictor,
    PointQuantilePredictor,
    TDigestQuantilePredictor,
)
from repro.baselines.weibull import WeibullPredictor

__all__ = [
    "BootstrapQuantilePredictor",
    "DowneyLogUniformPredictor",
    "MaxObservedPredictor",
    "MeanWaitPredictor",
    "P2QuantilePredictor",
    "PointQuantilePredictor",
    "TDigestQuantilePredictor",
    "WeibullPredictor",
]
