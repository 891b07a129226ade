"""Bias-corrected and accelerated (BCa) bootstrap intervals.

A plain percentile bootstrap is distribution-free, but it inherits two
finite-sample defects: the interval is biased when the bootstrap
distribution is not centred on the estimate, and it ignores how fast
the statistic's variance changes with the data (skew).  Efron's BCa
interval corrects both — a bias correction ``z0`` read off the
bootstrap distribution and an acceleration ``a`` estimated by the
jackknife — and is the interval Touati (2009) recommends for speedup
reporting.  It is the only bootstrap interval the lab reports.

Everything here is deterministic given ``seed``: resampling uses the
suite's LCG, never :mod:`random`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Sequence

from repro._errors import StatsError
from repro.stats.base import (
    ConfidenceInterval,
    check_sample,
    normal_cdf,
    normal_ppf,
    quantile,
)


def _bootstrap_estimates(
    values: Sequence[float],
    stat: Callable[[Sequence[float]], float],
    n_resamples: int,
    seed: int,
) -> List[float]:
    """``stat`` of ``n_resamples`` resamples of ``values``, sorted.

    Each resample draws ``len(values)`` indices from the suite's LCG
    seeded with ``seed + 7919``, read a round of 256 values at a time
    from :func:`~repro.workloads.base.lcg_rounds`.  Each round is mapped
    to sample values in one pass, and resamples are sliced out of a
    buffer of fewer than ``256 + len(values)`` values, so the draws are
    never all held at once.  Raises :class:`StatsError` unless
    ``n_resamples`` is at least 1.
    """
    if n_resamples < 1:
        raise StatsError(f"n_resamples must be at least 1, got {n_resamples}")
    from repro.workloads.base import lcg_rounds

    n = len(values)
    left = n_resamples * n
    buffer: List[float] = []
    estimates: List[float] = []
    for rnd in lcg_rounds(seed + 7919):
        if left < len(rnd):
            rnd = rnd[:left]
        left -= len(rnd)
        buffer += [values[r % n] for r in rnd]
        whole = len(buffer) - len(buffer) % n
        estimates += [stat(buffer[i:i + n]) for i in range(0, whole, n)]
        del buffer[:whole]
        if not left:
            break
    estimates.sort()
    return estimates


def jackknife_acceleration(
    values: Sequence[float], statistic: Callable[[Sequence[float]], float]
) -> float:
    """The BCa acceleration constant ``a`` via the jackknife.

    ``a = sum(d^3) / (6 * sum(d^2)^1.5)`` where ``d_i`` is the
    deviation of the leave-one-out statistic from the jackknife mean.
    Returns 0.0 (no acceleration) when the leave-one-out statistics do
    not vary — the interval then degrades gracefully to the
    bias-corrected percentile interval.
    """
    n = len(values)
    loo = [
        statistic([v for j, v in enumerate(values) if j != i])
        for i in range(n)
    ]
    loo_mean = sum(loo) / n
    d = [loo_mean - v for v in loo]
    d2 = sum(x * x for x in d)
    if d2 == 0.0:
        return 0.0
    d3 = sum(x * x * x for x in d)
    return d3 / (6.0 * d2 ** 1.5)


def bca_confidence_interval(
    values: Sequence[float],
    level: float = 0.95,
    n_resamples: int = 2000,
    statistic: Optional[Callable[[Sequence[float]], float]] = None,
    seed: int = 0,
) -> ConfidenceInterval:
    """Efron's BCa bootstrap CI (default statistic: mean).

    The bias correction ``z0`` is the normal quantile of the fraction
    of bootstrap estimates below the observed statistic (ties counted
    half, and the fraction clamped away from 0 and 1 so ``z0`` stays
    finite); the acceleration comes from
    :func:`jackknife_acceleration`.  Degenerate samples (n < 2, zero
    variance), out-of-range levels and ``n_resamples < 1`` raise
    :class:`~repro.core.errors.StatsError`, like
    :func:`~repro.stats.t_confidence_interval`.
    """
    check_sample(values, level, "BCa interval")
    stat = statistic if statistic is not None else (lambda xs: sum(xs) / len(xs))
    estimates = _bootstrap_estimates(values, stat, n_resamples, seed)
    theta = stat(list(values))

    # The estimates come sorted, so two binary searches count them.
    below = bisect_left(estimates, theta)
    ties = bisect_right(estimates, theta, below) - below
    fraction = (below + 0.5 * ties) / n_resamples
    fraction = min(max(fraction, 0.5 / n_resamples), 1.0 - 0.5 / n_resamples)
    z0 = normal_ppf(fraction)
    a = jackknife_acceleration(values, stat)

    alpha = (1.0 - level) / 2.0

    def adjusted(q: float) -> float:
        z = normal_ppf(q)
        denom = 1.0 - a * (z0 + z)
        if denom <= 0.0:
            raise StatsError(
                f"BCa acceleration degenerated (a={a:.4f}, z0={z0:.4f}): "
                "the jackknife says the statistic's variance changes too "
                "fast for this sample size — measure more setups"
            )
        return normal_cdf(z0 + (z0 + z) / denom)

    lo_q, hi_q = adjusted(alpha), adjusted(1.0 - alpha)
    return ConfidenceInterval(
        lo=quantile(estimates, lo_q),
        hi=quantile(estimates, hi_q),
        level=level,
        mean=theta,
        method="BCa",
    )
