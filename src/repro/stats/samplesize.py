"""Required-sample-size estimation: "how many random setups until the
confidence interval stabilizes?".

The F8 protocol answers "is the treatment beneficial?" with a mean and
a confidence interval over randomized setups.  The natural follow-up —
*have I sampled enough setups, or should I keep going?* — is a
sample-size question: find the smallest n whose t interval half-width
falls below a target fraction of the estimate.  This module implements
the sequential version of that estimate (Touati 2009's stopping rule):
after every batch of setups, re-estimate the dispersion and project the
n that would reach the target width.

The projection is honest about its own standing: it is itself an
estimate from the observed dispersion, so the report line says
"recommend ~N setups", and :func:`convergence_trajectory` exposes the
raw width-vs-n curve so an operator can see the interval stabilize (or
fail to) rather than trust a single number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro._errors import StatsError
from repro.core.stats import SummaryStats, normal_ppf, t_ppf

#: Upper bound on the projected recommendation: past this, the honest
#: advice is "the dispersion is too large for this target", not a number.
MAX_PROJECTED_N = 100_000


@dataclass(frozen=True)
class SampleSizeEstimate:
    """The sequential estimator's verdict after ``n_observed`` setups.

    ``half_width`` / ``rel_half_width`` describe the current t interval;
    ``recommended_n`` is the projected total number of setups needed to
    bring the relative half-width under ``target_rel_width`` (never less
    than ``n_observed`` when already converged); ``converged`` says
    whether the current sample already meets the target.
    """

    n_observed: int
    half_width: float
    rel_half_width: float
    target_rel_width: float
    level: float
    recommended_n: int
    converged: bool
    method: str = "t-width projection"

    def summary_line(self) -> str:
        """One report line, e.g. for the F8 tables and ``repro randomized``."""
        state = (
            "converged"
            if self.converged
            else f"recommend ~{self.recommended_n} setups"
        )
        return (
            f"sample size: {self.n_observed} setups, CI half-width "
            f"{self.rel_half_width:.2%} of mean "
            f"(target {self.target_rel_width:.2%} at {self.level:.0%}) "
            f"-> {state}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for the manifest ``stats`` section."""
        return {
            "n_observed": self.n_observed,
            "half_width": self.half_width,
            "rel_half_width": self.rel_half_width,
            "target_rel_width": self.target_rel_width,
            "level": self.level,
            "recommended_n": self.recommended_n,
            "converged": self.converged,
            "method": self.method,
        }


def _half_width(std: float, n: int, level: float) -> float:
    """Half-width of the t interval for dispersion ``std`` at size ``n``."""
    if n < 2 or std == 0.0:
        return 0.0
    return t_ppf(0.5 + level / 2.0, n - 1) * std / math.sqrt(n)


def required_setups(
    speedups: Sequence[float],
    level: float = 0.95,
    target_rel_width: float = 0.01,
) -> SampleSizeEstimate:
    """Project how many random setups the protocol needs in total.

    Finds the smallest n with ``t_{n-1} * s / sqrt(n) <=
    target_rel_width * |mean|``, treating the observed sample standard
    deviation ``s`` as the dispersion estimate.  A zero-variance sample
    is already converged (the data show no dispersion to narrow); a
    sample whose mean is zero has no meaningful *relative* width and
    raises :class:`StatsError`, as do samples with fewer than two
    observations and out-of-range levels or targets.
    """
    if len(speedups) < 2:
        raise StatsError(
            "sample-size estimation needs at least 2 observed setups, "
            f"got {len(speedups)}"
        )
    if not 0.0 < level < 1.0:
        raise StatsError(f"level must be in (0, 1), got {level}")
    if target_rel_width <= 0.0:
        raise StatsError(
            f"target relative width must be positive, got {target_rel_width}"
        )
    stats = SummaryStats.from_values(speedups)
    if stats.mean == 0.0:
        raise StatsError(
            "relative interval width is undefined for a zero-mean sample"
        )
    n = stats.n
    if stats.std == 0.0:
        return SampleSizeEstimate(
            n_observed=n,
            half_width=0.0,
            rel_half_width=0.0,
            target_rel_width=target_rel_width,
            level=level,
            recommended_n=n,
            converged=True,
        )
    q = 0.5 + level / 2.0
    # t_{m-1} at each size m, computed at most once per call: the
    # half-width, the fixed point and the final scan share these values.
    crit: Dict[int, float] = {}

    def t_crit(m: int) -> float:
        if m not in crit:
            crit[m] = t_ppf(q, m - 1)
        return crit[m]

    half = t_crit(n) * stats.std / math.sqrt(n)
    rel = half / abs(stats.mean)
    target_half = target_rel_width * abs(stats.mean)
    recommended = n
    if half > target_half:
        # Solve t_{m-1} * s / sqrt(m) <= target by fixed point: seed with
        # the normal-quantile solution (a lower bound, since t_crit >= z)
        # and re-solve with the t quantile at the current guess until it
        # stabilizes — a handful of t_ppf calls instead of one per
        # candidate m.
        z = normal_ppf(q)
        m = max(n + 1, int(math.ceil((z * stats.std / target_half) ** 2)))
        for __ in range(16):
            if m >= MAX_PROJECTED_N:
                m = MAX_PROJECTED_N
                break
            needed = max(
                n + 1,
                int(math.ceil((t_crit(m) * stats.std / target_half) ** 2)),
            )
            if needed <= m:
                break
            m = needed
        while (
            m < MAX_PROJECTED_N
            and t_crit(m) * stats.std / math.sqrt(m) > target_half
        ):
            m += 1
        recommended = m
    return SampleSizeEstimate(
        n_observed=n,
        half_width=half,
        rel_half_width=rel,
        target_rel_width=target_rel_width,
        level=level,
        recommended_n=recommended,
        converged=half <= target_half,
    )


def convergence_trajectory(
    speedups: Sequence[float], level: float = 0.95
) -> List[Tuple[int, float]]:
    """The raw stabilization curve: ``(n, relative half-width)`` for
    every prefix of the sampled speedups (n >= 2).

    Prefixes, not resamples, so the curve is exactly what a sequential
    experimenter would have seen after each additional setup.
    Zero-variance and zero-mean prefixes contribute width 0.0 (nothing
    to narrow) rather than raising, so a curve can be drawn for any
    sample the estimator itself accepts.
    """
    if len(speedups) < 2:
        raise StatsError(
            "a convergence trajectory needs at least 2 observed setups, "
            f"got {len(speedups)}"
        )
    if not 0.0 < level < 1.0:
        raise StatsError(f"level must be in (0, 1), got {level}")
    out: List[Tuple[int, float]] = []
    for n in range(2, len(speedups) + 1):
        stats = SummaryStats.from_values(speedups[:n])
        half = _half_width(stats.std, n, level)
        rel = half / abs(stats.mean) if stats.mean != 0.0 else 0.0
        out.append((n, rel))
    return out
