"""repro.stats — the lab's one statistics package.

Everything a defensible performance conclusion needs, in layers:

- :mod:`repro.stats.base` — the primitives: distribution functions,
  summaries, the Student-t interval, skewness, the geometric mean and
  violin densities,
- :mod:`repro.stats.inference` — Wilcoxon signed-rank and Mann-Whitney
  U tests, rank-biserial / Cliff's delta effect sizes, Hodges–Lehmann
  location estimates,
- :mod:`repro.stats.bootstrap` — BCa (bias-corrected, accelerated)
  bootstrap intervals,
- :mod:`repro.stats.samplesize` — sequential required-sample-size
  estimation for the F8 randomized protocol,
- :mod:`repro.stats.speedup` — :func:`analyze_speedups`, the one-call
  work-up whose output feeds reports, manifests, and ``repro audit``.

Everything is dependency-free and deterministic (LCG resampling, no
:mod:`random`); degenerate inputs raise the typed
:class:`~repro.core.errors.StatsError`.  See docs/statistics.md for
method choices and operator recipes.
"""

from repro.stats.base import (
    ConfidenceInterval,
    SummaryStats,
    ViolinSummary,
    geometric_mean,
    incomplete_beta,
    kernel_density,
    normal_cdf,
    normal_ppf,
    quantile,
    skewness,
    t_cdf,
    t_confidence_interval,
    t_ppf,
)
from repro.stats.bootstrap import bca_confidence_interval, jackknife_acceleration
from repro.stats.inference import (
    RankTestResult,
    cliffs_delta,
    hodges_lehmann,
    mann_whitney_u,
    paired_speedup_test,
    rank_biserial,
    rankdata,
    wilcoxon_signed_rank,
)
from repro.stats.samplesize import (
    SampleSizeEstimate,
    convergence_trajectory,
    required_setups,
)
from repro.stats.speedup import (
    SKEW_THRESHOLD,
    SpeedupAnalysis,
    analyze_speedups,
)

__all__ = [
    "ConfidenceInterval",
    "RankTestResult",
    "SKEW_THRESHOLD",
    "SampleSizeEstimate",
    "SpeedupAnalysis",
    "SummaryStats",
    "ViolinSummary",
    "analyze_speedups",
    "bca_confidence_interval",
    "cliffs_delta",
    "convergence_trajectory",
    "geometric_mean",
    "hodges_lehmann",
    "incomplete_beta",
    "jackknife_acceleration",
    "kernel_density",
    "mann_whitney_u",
    "normal_cdf",
    "normal_ppf",
    "paired_speedup_test",
    "quantile",
    "rank_biserial",
    "rankdata",
    "required_setups",
    "skewness",
    "t_cdf",
    "t_confidence_interval",
    "t_ppf",
    "wilcoxon_signed_rank",
]
