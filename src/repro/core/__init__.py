"""Core BMBP machinery: quantile bounds, history, change points, predictors."""

from repro.core.binomial import (
    binomial_cdf,
    lower_bound_rank,
    minimum_sample_size,
    minimum_sample_size_lower,
    normal_approx_lower_rank,
    normal_approx_upper_rank,
    upper_bound_rank,
)
from repro.core.bmbp import BMBPPredictor
from repro.core.changepoint import ConsecutiveMissDetector
from repro.core.clustering import AttributeClusterer, ClusteredPredictor
from repro.core.history import HistoryWindow
from repro.core.interval import IntervalPredictor, QuantileBank
from repro.core.lognormal import LogNormalPredictor
from repro.core.predictor import BoundKind, Prediction, QuantilePredictor
from repro.core.quantile import (
    QuantileBound,
    bound_rank,
    lower_confidence_bound,
    two_sided_confidence_interval,
    upper_confidence_bound,
)
from repro.core.sketch import P2Quantile, TDigest
from repro.core.rare_event import (
    RareEventTable,
    default_rare_event_table,
    generate_rare_event_table,
)

__all__ = [
    "AttributeClusterer",
    "BMBPPredictor",
    "ClusteredPredictor",
    "BoundKind",
    "ConsecutiveMissDetector",
    "HistoryWindow",
    "IntervalPredictor",
    "LogNormalPredictor",
    "P2Quantile",
    "Prediction",
    "QuantileBank",
    "QuantileBound",
    "QuantilePredictor",
    "RareEventTable",
    "TDigest",
    "binomial_cdf",
    "bound_rank",
    "default_rare_event_table",
    "generate_rare_event_table",
    "lower_bound_rank",
    "lower_confidence_bound",
    "minimum_sample_size",
    "minimum_sample_size_lower",
    "normal_approx_lower_rank",
    "normal_approx_upper_rank",
    "two_sided_confidence_interval",
    "upper_bound_rank",
    "upper_confidence_bound",
]
