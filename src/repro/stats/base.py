"""Statistical primitives: distributions, summaries, the t interval.

The base layer of :mod:`repro.stats`: summary statistics, Student-t
confidence intervals over randomized setups, skewness, the geometric
mean, and kernel-density summaries (the data behind the paper's violin
plots).  The rest of the package (rank tests, BCa intervals, sample
sizes, the speedup work-up) builds on these.

Distribution functions are implemented from first principles (incomplete
beta continued fraction, bisection inversion) so the library has no
third-party dependencies; the test suite cross-checks them against scipy.

Degenerate samples (fewer than two observations, zero variance) raise a
typed :class:`~repro.core.errors.StatsError` rather than producing a
zero-width "confidence" interval: lending false certainty to a sample
with no observed variance is one of the benchmarking crimes
``repro audit`` exists to flag (see docs/statistics.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro._errors import StatsError

# --------------------------------------------------------------------------
# Distribution functions


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _bisect_quantile(
    cdf: Callable[[float], float], p: float, lo: float, hi: float, steps: int
) -> float:
    """Invert ``cdf`` at ``p`` by bisecting ``(lo, hi)`` at most
    ``steps`` times.

    Stops at the first halving that leaves ``(lo, hi)`` unchanged.  The
    halving is a deterministic map of ``(lo, hi)``, so that state is a
    fixed point: every remaining halving would leave it unchanged too,
    and the returned midpoint is bit-identical to running all ``steps``.
    Once the bracket spans adjacent floats, this skips every further
    evaluation of ``cdf``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    for __ in range(steps):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def normal_ppf(p: float) -> float:
    """Standard normal quantile via bisection on :func:`normal_cdf`."""
    return _bisect_quantile(normal_cdf, p, -40.0, 40.0, 200)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function
    (Numerical-Recipes-style Lentz iteration)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student-t CDF with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = df / (df + t * t)
    p = 0.5 * incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - p if t > 0 else p


#: :func:`t_ppf` bisects ``(-_T_LIMIT, _T_LIMIT)``.
_T_LIMIT = 1e6


def t_ppf(p: float, df: float) -> float:
    """Student-t quantile via bisection on :func:`t_cdf`."""
    return _bisect_quantile(lambda t: t_cdf(t, df), p, -_T_LIMIT, _T_LIMIT, 400)


#: The margin ``M`` by which a certified bracket's ends must clear
#: ``p``: 1000 times the largest error of :func:`t_cdf` against scipy
#: that tests/unit/test_stats.py allows near the quantiles.
BRACKET_MARGIN = 1e-7

#: Newton steps :func:`t_ppf_bracket` takes before it gives up.
_NEWTON_STEPS = 8


def t_ppf_bracket(
    p: float, df: float, start: float
) -> Optional[Tuple[float, float]]:
    """A certified bracket ``(a, b)`` around ``t_ppf(p, df)``, or None.

    Newton steps on :func:`t_cdf`, from ``start`` (a caller's
    ``normal_ppf(p)``), with the density from :func:`math.lgamma`, stop
    once ``t_cdf`` is within ``M / 8`` of ``p`` (``M`` is
    :data:`BRACKET_MARGIN`); the bracket is that estimate plus or minus
    ``4 M`` over the density there, so both ends clear ``p`` by about
    ``4 M``.  It is returned only when two more :func:`t_cdf` calls
    certify it, ``t_cdf(a) < p - M`` and ``t_cdf(b) > p + M``, and only
    inside ``[1, 1e6)``; None when Newton does not converge in
    a few steps or certification fails.

    Why ``t_ppf(p, df)`` then lies in ``[a, b]``: suppose the computed
    CDF is within ``M / 2`` of the true CDF ``F`` everywhere (the scipy
    test bounds its error near the quantiles by ``M / 1000``).  Then
    ``F(a) < p - M / 2``, so every ``x <= a`` has a computed CDF below
    ``F(x) + M / 2 <= F(a) + M / 2 < p``, and a step of
    :func:`_bisect_quantile` whose midpoint lies at or below ``a``
    raises the lower end.  Likewise every ``x >= b`` has a computed CDF
    above ``p``, and a step whose midpoint lies at or above ``b`` lowers
    the upper end.  So the bisection, which starts outside ``[a, b]``,
    keeps its lower end below ``b`` and its upper end above ``a``.  Its
    first midpoint, 0, raises the lower end to 0; once the ends are
    less than 1/2 apart the lower end is above ``a - 1/2 >= 1/2``, where
    floats are at least ``2**-53`` apart, so about 75 of its 400
    halvings bring the ends to equal or adjacent floats.  Such ends,
    one below ``b`` and one above ``a``, both lie in ``[a, b]``, and the
    midpoint returned is one of them.
    """
    scale = (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    t = start
    for __ in range(_NEWTON_STEPS):
        density = math.exp(scale - (df + 1.0) / 2.0 * math.log1p(t * t / df))
        miss = t_cdf(t, df) - p
        if abs(miss) <= BRACKET_MARGIN / 8.0:
            break
        t -= miss / density
    else:
        return None
    half = 4.0 * BRACKET_MARGIN / density
    a, b = t - half, t + half
    if not 1.0 <= a < b < _T_LIMIT:
        return None
    if t_cdf(a, df) < p - BRACKET_MARGIN and t_cdf(b, df) > p + BRACKET_MARGIN:
        return a, b
    return None


# --------------------------------------------------------------------------
# Summaries and intervals


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float  # sample standard deviation (n-1)
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "SummaryStats":
        if not values:
            raise ValueError("cannot summarize an empty sample")
        xs = sorted(float(v) for v in values)
        n = len(xs)
        mean = sum(xs) / n
        var = sum((v - mean) ** 2 for v in xs) / (n - 1) if n > 1 else 0.0
        return cls(
            n=n,
            mean=mean,
            std=math.sqrt(var),
            minimum=xs[0],
            q1=quantile(xs, 0.25),
            median=quantile(xs, 0.5),
            q3=quantile(xs, 0.75),
            maximum=xs[-1],
        )

    @property
    def spread(self) -> float:
        """max / min — the paper's bias-magnitude measure."""
        if self.minimum == 0:
            return math.inf
        return self.maximum / self.minimum


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    a, b = sorted_values[lo], sorted_values[hi]
    # a + frac*(b-a) is exact when a == b, unlike the two-product lerp.
    return a + frac * (b - a)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval.

    ``method`` names the procedure that produced the interval ("t" or
    "BCa"), so every report row built from one is self-describing — an
    auditor reading an archived table can tell a normal-theory interval
    from a distribution-free one.
    """

    lo: float
    hi: float
    level: float
    mean: float
    method: str = "t"

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __str__(self) -> str:
        return (
            f"[{self.lo:.4f}, {self.hi:.4f}] "
            f"({self.level:.0%}, {self.method})"
        )


def check_sample(
    values: Sequence[float], level: float, what: str
) -> SummaryStats:
    """Common degenerate-sample gate for interval constructors.

    Returns the sample summary; raises :class:`StatsError` for samples
    no interval procedure can answer for — fewer than two observations
    (no variance estimate exists) or zero variance (the interval would
    collapse to a zero-width point, false certainty) — and for a
    confidence level outside (0, 1).
    """
    if len(values) < 2:
        raise StatsError(
            f"need at least 2 observations for a {what}, got {len(values)}"
        )
    if not 0.0 < level < 1.0:
        raise StatsError(f"level must be in (0, 1), got {level}")
    stats = SummaryStats.from_values(values)
    if stats.std == 0.0:
        raise StatsError(
            f"zero-variance sample (all {stats.n} observations equal "
            f"{stats.mean:g}): a {what} would be a zero-width point, "
            "which states certainty the data cannot support"
        )
    return stats


def t_confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t CI for the mean — the interval the paper recommends
    reporting over randomized experimental setups.

    Raises :class:`StatsError` on degenerate samples (n < 2, zero
    variance) and out-of-range levels; see :func:`check_sample`.
    """
    stats = check_sample(values, level, "t interval")
    se = stats.std / math.sqrt(stats.n)
    crit = t_ppf(0.5 + level / 2.0, stats.n - 1)
    return ConfidenceInterval(
        lo=stats.mean - crit * se,
        hi=stats.mean + crit * se,
        level=level,
        mean=stats.mean,
        method="t",
    )


def skewness(values: Sequence[float]) -> float:
    """Adjusted Fisher–Pearson sample skewness (g1 with the n-bias
    correction) — the asymmetry measure the auditor uses to decide
    whether a normal-theory interval is defensible for a sample.

    Zero for perfectly symmetric data, positive when the right tail is
    long.  Degenerate samples (n < 3 or zero variance) return 0.0 —
    there is no asymmetry evidence to report.
    """
    n = len(values)
    if n < 3:
        return 0.0
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    if m2 == 0.0:
        return 0.0
    m3 = sum((v - mean) ** 3 for v in values) / n
    g1 = m3 / m2 ** 1.5
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the conventional aggregate for speedups)."""
    if not values:
        raise ValueError("empty sample")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------------
# Kernel density (violin-plot data)


@dataclass(frozen=True)
class ViolinSummary:
    """Density estimate + quartiles — the data behind a violin plot."""

    grid: Tuple[float, ...]
    density: Tuple[float, ...]
    stats: SummaryStats


def kernel_density(
    values: Sequence[float], points: int = 64, max_points: int = 4096
) -> ViolinSummary:
    """Gaussian KDE with Silverman's bandwidth on an even grid.

    The grid is refined (up to ``max_points``) until its step resolves
    the bandwidth, so the returned density integrates to ~1 except for
    pathologically outlier-dominated samples.  Degenerate (constant)
    samples get a single spike at the value.
    """
    if not values:
        raise ValueError("empty sample")
    stats = SummaryStats.from_values(values)
    if stats.std == 0.0 or len(values) == 1:
        return ViolinSummary(
            grid=(stats.mean,), density=(1.0,), stats=stats
        )
    n = len(values)
    iqr = stats.q3 - stats.q1
    sigma = min(stats.std, iqr / 1.349) if iqr > 0 else stats.std
    bandwidth = 0.9 * sigma * n ** (-0.2)
    if bandwidth <= 0:
        bandwidth = stats.std * n ** (-0.2)
    lo = stats.minimum - 3 * bandwidth
    hi = stats.maximum + 3 * bandwidth
    needed = int((hi - lo) / (bandwidth / 2.0)) + 1
    points = max(points, min(max_points, needed))
    step = (hi - lo) / (points - 1)
    grid = [lo + i * step for i in range(points)]
    norm = 1.0 / (n * bandwidth * math.sqrt(2 * math.pi))
    density = []
    for g in grid:
        acc = 0.0
        for v in values:
            z = (g - v) / bandwidth
            acc += math.exp(-0.5 * z * z)
        density.append(acc * norm)
    return ViolinSummary(grid=tuple(grid), density=tuple(density), stats=stats)
