"""Nonparametric inference for performance comparisons.

Touati (2009) makes the case that speedup statistics should not lean on
normality: performance samples over randomized setups are routinely
skewed, heavy-tailed, and small.  This module implements the
distribution-free machinery the suite's reports use:

- :func:`wilcoxon_signed_rank` — the paired test (base vs treatment
  measured under the *same* randomized setup, the F8 protocol's shape),
- :func:`mann_whitney_u` — the unpaired two-sample test (two independent
  pools of setups),
- :func:`rank_biserial` / :func:`cliffs_delta` — the matching effect
  sizes, so "significant" is always accompanied by "how big",
- :func:`hodges_lehmann` — the robust location estimate (median of
  Walsh averages) to report alongside the mean.

Both tests use the normal approximation with midrank tie handling and
the standard tie variance correction; the unit suite cross-checks the
p-values against scipy's ``method='approx'`` / ``'asymptotic'`` modes.
Degenerate inputs (empty samples, all-zero differences, all-tied pools)
raise :class:`~repro.core.errors.StatsError` instead of emitting a
meaningless p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro._errors import StatsError
from repro.stats.base import normal_cdf


def rankdata(values: Sequence[float]) -> List[float]:
    """Midrank ranking (ties share the average of their rank range).

    The 1-based ranks scipy's ``rankdata(method='average')`` would
    assign, implemented here so the inference layer stays
    dependency-free.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _tie_counts(values: Sequence[float]) -> List[int]:
    """Sizes of every tie group (groups of equal values), size >= 1."""
    counts: Dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return list(counts.values())


@dataclass(frozen=True)
class RankTestResult:
    """Outcome of a rank test: statistic, normal deviate, p-value.

    ``statistic`` is the raw rank statistic (W+ for the signed-rank
    test, U1 for Mann-Whitney); ``z`` its standardized form under the
    null; ``p_value`` the two-sided tail probability; ``n`` the
    effective sample size (zero differences are dropped by the
    signed-rank test); ``method`` the test's name for report rows.
    """

    statistic: float
    z: float
    p_value: float
    n: int
    method: str

    def significant(self, level: float = 0.95) -> bool:
        """True when the two-sided p-value rejects at ``level``."""
        return self.p_value < (1.0 - level)

    def summary(self) -> str:
        """One report line: method, statistic, z, p."""
        return (
            f"{self.method}: statistic={self.statistic:g} z={self.z:+.3f} "
            f"p={self.p_value:.4f} (n={self.n})"
        )


def _two_sided_p(z: float) -> float:
    """Two-sided normal tail probability for a deviate ``z``."""
    return min(1.0, 2.0 * (1.0 - normal_cdf(abs(z))))


def wilcoxon_signed_rank(
    x: Sequence[float], y: Optional[Sequence[float]] = None
) -> RankTestResult:
    """Wilcoxon signed-rank test (paired; null: symmetric about zero).

    With ``y`` given, tests the paired differences ``x - y``; alone,
    tests ``x`` against zero — pass log-speedups to test "speedup != 1"
    over matched setups.  Zero differences are dropped (Wilcoxon's
    original treatment); ties among the absolute differences get
    midranks and the tie-corrected variance.  Uses the two-sided normal
    approximation (no continuity correction) and reports W+ as the
    statistic.

    Raises :class:`StatsError` when no nonzero differences remain or
    the paired samples have different lengths.
    """
    if y is not None:
        if len(x) != len(y):
            raise StatsError(
                f"paired samples differ in length ({len(x)} vs {len(y)})"
            )
        diffs = [a - b for a, b in zip(x, y)]
    else:
        diffs = list(x)
    diffs = [d for d in diffs if d != 0.0]
    n = len(diffs)
    if n == 0:
        raise StatsError(
            "wilcoxon signed-rank needs at least one nonzero difference"
        )
    magnitudes = [abs(d) for d in diffs]
    ranks = rankdata(magnitudes)
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    variance -= sum(t ** 3 - t for t in _tie_counts(magnitudes)) / 48.0
    if variance <= 0.0:
        raise StatsError(
            "wilcoxon signed-rank variance degenerated to zero "
            f"(n={n}, all magnitudes tied)"
        )
    z = (w_plus - mean) / math.sqrt(variance)
    return RankTestResult(
        statistic=w_plus,
        z=z,
        p_value=_two_sided_p(z),
        n=n,
        method="wilcoxon-signed-rank",
    )


def mann_whitney_u(
    x: Sequence[float], y: Sequence[float]
) -> RankTestResult:
    """Mann-Whitney U test (unpaired; null: equal distributions).

    The two-sample rank test for *independent* pools of measurements —
    e.g. cycle samples from two machine models.  Midranks for ties, the
    standard tie-corrected variance, two-sided normal approximation, no
    continuity correction; reports U for the first sample.

    Raises :class:`StatsError` on an empty sample or when every value
    in both pools is identical (the variance degenerates to zero).
    """
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise StatsError(
            f"mann-whitney needs two non-empty samples, got {n1} and {n2}"
        )
    combined = list(x) + list(y)
    ranks = rankdata(combined)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    total = n1 + n2
    mean = n1 * n2 / 2.0
    tie_term = sum(t ** 3 - t for t in _tie_counts(combined))
    variance = (
        n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    )
    if variance <= 0.0:
        raise StatsError(
            "mann-whitney variance degenerated to zero "
            f"(all {total} values tied)"
        )
    z = (u1 - mean) / math.sqrt(variance)
    return RankTestResult(
        statistic=u1,
        z=z,
        p_value=_two_sided_p(z),
        n=total,
        method="mann-whitney-u",
    )


def rank_biserial(diffs: Sequence[float]) -> float:
    """Matched-pairs rank-biserial correlation — the effect size that
    accompanies the signed-rank test.

    ``(W+ - W-) / (n(n+1)/2)`` over the nonzero differences: +1 when
    every difference is positive, -1 when every one is negative, near 0
    when positives and negatives balance in rank mass.
    """
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    if n == 0:
        return 0.0
    ranks = rankdata([abs(d) for d in nonzero])
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, nonzero) if d < 0)
    return (w_plus - w_minus) / (n * (n + 1) / 2.0)


def cliffs_delta(x: Sequence[float], y: Sequence[float]) -> float:
    """Cliff's delta — the unpaired ordinal effect size for two pools.

    ``(#{x > y} - #{x < y}) / (n1 * n2)`` over all cross pairs: +1 when
    every x exceeds every y, -1 for the reverse, 0 for full overlap.
    """
    if not x or not y:
        raise StatsError("cliffs delta needs two non-empty samples")
    gt = lt = 0
    for a in x:
        for b in y:
            if a > b:
                gt += 1
            elif a < b:
                lt += 1
    return (gt - lt) / (len(x) * len(y))


def hodges_lehmann(values: Sequence[float]) -> float:
    """One-sample Hodges-Lehmann estimator: the median of all Walsh
    averages ``(x_i + x_j)/2`` (i <= j).

    The location estimate paired with the signed-rank test — robust to
    the outliers and skew that drag an arithmetic mean around.
    """
    n = len(values)
    if n == 0:
        raise StatsError("hodges-lehmann needs a non-empty sample")
    walsh = sorted(
        (values[i] + values[j]) / 2.0
        for i in range(n)
        for j in range(i, n)
    )
    m = len(walsh)
    if m % 2 == 1:
        return walsh[m // 2]
    return 0.5 * (walsh[m // 2 - 1] + walsh[m // 2])


def paired_speedup_test(
    speedups: Sequence[float],
) -> Tuple[RankTestResult, float]:
    """The F8 protocol's paired nonparametric test: is the treatment's
    speedup distinguishable from 1.0 over matched random setups?

    Each speedup is a base/treatment ratio measured under one shared
    randomized setup, so the pairs are matched by construction; the
    test is the signed-rank test on log-speedups against zero (ratios
    compose multiplicatively, so the symmetric-under-null scale is the
    log scale).  Returns the test result and the matched-pairs
    rank-biserial effect size.

    Raises :class:`StatsError` for empty input, non-positive ratios, or
    all-exactly-1.0 samples (no evidence either way).
    """
    if not speedups:
        raise StatsError("paired speedup test needs a non-empty sample")
    if any(s <= 0.0 for s in speedups):
        raise StatsError("speedups must be positive ratios")
    logs = [math.log(s) for s in speedups]
    result = wilcoxon_signed_rank(logs)
    return result, rank_biserial(logs)
