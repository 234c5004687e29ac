"""Statistical substrate for BMBP.

This subpackage contains the low-level statistical machinery the predictors
are built on: descriptive statistics, autocorrelation estimation, parametric
distribution fits (log-normal, log-uniform), normal tolerance factors,
order-statistic helpers, and the Wilson interval coverage is scored by.
"""

from repro.stats.autocorrelation import (
    autocorrelation,
    autocorrelation_function,
    first_autocorrelation,
)
from repro.stats.descriptive import (
    DescriptiveSummary,
    heavy_tail_ratio,
    summarize,
)
from repro.stats.distributions import (
    EmpiricalDistribution,
    LogNormalDistribution,
    LogUniformDistribution,
    fit_lognormal,
    fit_loguniform,
)
from repro.stats.order_stats import (
    order_statistic,
    quantile_index,
    rank_of_value,
)
from repro.stats.proportion import wilson_interval
from repro.stats.weibull import WeibullDistribution, fit_weibull
from repro.stats.tolerance import (
    minimum_sample_size_normal,
    normal_quantile_lower_factor,
    normal_quantile_upper_factor,
)

__all__ = [
    "DescriptiveSummary",
    "EmpiricalDistribution",
    "LogNormalDistribution",
    "LogUniformDistribution",
    "autocorrelation",
    "autocorrelation_function",
    "first_autocorrelation",
    "fit_lognormal",
    "fit_loguniform",
    "heavy_tail_ratio",
    "minimum_sample_size_normal",
    "normal_quantile_lower_factor",
    "normal_quantile_upper_factor",
    "order_statistic",
    "quantile_index",
    "rank_of_value",
    "summarize",
    "WeibullDistribution",
    "fit_weibull",
    "wilson_interval",
]
