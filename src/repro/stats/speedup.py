"""One-call statistical work-up of a paired speedup sample.

:func:`analyze_speedups` takes the per-setup speedup ratios an F8-style
randomized evaluation produces and returns everything an honest report
needs in one bundle: normal-theory and BCa intervals (each labeled with
its method), the paired Wilcoxon verdict with its effect size, robust
and conventional aggregates (Hodges–Lehmann, geometric mean), the
sample's skewness, and the sequential sample-size recommendation.

The bundle's :meth:`SpeedupAnalysis.to_dict` is the manifest ``stats``
section ``repro audit`` reads: it records the *raw* speedups alongside
every derived claim, so an auditor can recompute rather than trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro._errors import StatsError
from repro.stats.base import (
    ConfidenceInterval,
    geometric_mean,
    skewness,
    t_confidence_interval,
)
from repro.stats.bootstrap import bca_confidence_interval
from repro.stats.inference import (
    RankTestResult,
    hodges_lehmann,
    paired_speedup_test,
)
from repro.stats.samplesize import SampleSizeEstimate, required_setups

#: |skewness| above which a normal-theory (t) interval alone is suspect
#: and the BCa interval should carry the conclusion.  Shared with the
#: auditor's ``weak-ci`` rule so reports and audits apply one standard.
SKEW_THRESHOLD = 1.0


@dataclass(frozen=True)
class SpeedupAnalysis:
    """Full inference bundle for one paired speedup sample.

    ``distinct_setups`` is the number of *different* randomized setups
    behind the sample — equal to ``n`` in a clean F8 run, smaller when
    measurements were replicated under a shared setup (the
    pseudoreplication the auditor flags).
    """

    speedups: Tuple[float, ...]
    distinct_setups: int
    level: float
    t_interval: ConfidenceInterval
    bca_interval: ConfidenceInterval
    test: RankTestResult
    effect_size: float
    hl_speedup: float
    geomean: float
    skew: float
    sample_size: SampleSizeEstimate

    @property
    def n(self) -> int:
        """Number of speedup observations."""
        return len(self.speedups)

    @property
    def significant(self) -> bool:
        """True when the paired Wilcoxon test rejects "speedup == 1"."""
        return self.test.significant(self.level)

    @property
    def direction(self) -> str:
        """``"speedup"``, ``"slowdown"``, or ``"inconclusive"`` — the
        signed-rank verdict combined with the effect-size sign."""
        if not self.significant:
            return "inconclusive"
        return "speedup" if self.effect_size > 0 else "slowdown"

    def summary_lines(self) -> List[str]:
        """Report block for ``repro randomized`` and the F8 benchmark."""
        lines = [
            f"t interval:    {self.t_interval}",
            f"BCa interval:  {self.bca_interval}",
            f"{self.test.summary()} -> {self.direction}",
            f"effect size (rank-biserial): {self.effect_size:+.3f}",
            (
                f"geometric mean {self.geomean:.4f}x, "
                f"Hodges-Lehmann {self.hl_speedup:.4f}x, "
                f"skewness {self.skew:+.2f}"
            ),
            self.sample_size.summary_line(),
        ]
        if abs(self.skew) > SKEW_THRESHOLD:
            lines.append(
                f"note: |skewness| > {SKEW_THRESHOLD:g} — prefer the BCa "
                "interval over the t interval for this sample"
            )
        return lines

    def to_dict(self) -> Dict[str, Any]:
        """The manifest ``stats`` section (see docs/statistics.md)."""
        return {
            "n": self.n,
            "distinct_setups": self.distinct_setups,
            "level": self.level,
            "speedups": list(self.speedups),
            "skewness": self.skew,
            "aggregate": {"method": "geometric-mean", "value": self.geomean},
            "hodges_lehmann": self.hl_speedup,
            "intervals": [
                _interval_dict(self.t_interval),
                _interval_dict(self.bca_interval),
            ],
            "tests": [
                {
                    "method": self.test.method,
                    "statistic": self.test.statistic,
                    "z": self.test.z,
                    "p_value": self.test.p_value,
                    "n": self.test.n,
                    "effect_size": self.effect_size,
                }
            ],
            "sample_size": self.sample_size.to_dict(),
            "verdict": {
                "significant": self.significant,
                "direction": self.direction,
            },
        }


def _interval_dict(ci: ConfidenceInterval) -> Dict[str, Any]:
    """JSON form of one labeled confidence interval."""
    return {
        "method": ci.method,
        "lo": ci.lo,
        "hi": ci.hi,
        "mean": ci.mean,
        "level": ci.level,
    }


def analyze_speedups(
    speedups: Sequence[float],
    distinct_setups: Optional[int] = None,
    level: float = 0.95,
    target_rel_width: float = 0.01,
    seed: int = 0,
    t_interval: Optional[ConfidenceInterval] = None,
) -> SpeedupAnalysis:
    """Run the full inference battery over a paired speedup sample.

    ``distinct_setups`` defaults to ``len(speedups)`` — pass the true
    count when measurements share setups so the recorded sample is
    honest about its replication structure.  ``t_interval`` is the
    sample's ``level`` t interval when the caller already has it (a
    randomized evaluation does); an interval of another method or level
    raises :class:`StatsError`.  Deterministic given
    ``seed`` (bootstrap resampling uses the suite's LCG).  Raises
    :class:`StatsError` for samples no interval can answer for (n < 2,
    zero variance, non-positive ratios) — callers that cannot guarantee
    a healthy sample should catch it and omit the stats block rather
    than fabricate one.
    """
    if any(s <= 0.0 for s in speedups):
        raise StatsError("speedups must be positive ratios")
    n = len(speedups)
    distinct = distinct_setups if distinct_setups is not None else n
    if distinct > n:
        raise StatsError(
            f"distinct_setups ({distinct}) cannot exceed the number of "
            f"observations ({n})"
        )
    if t_interval is None:
        t_interval = t_confidence_interval(speedups, level=level)
    elif t_interval.method != "t" or t_interval.level != level:
        raise StatsError(
            f"a {t_interval.method} interval at level {t_interval.level} "
            f"is not this sample's t interval at level {level}"
        )
    bca_ci = bca_confidence_interval(speedups, level=level, seed=seed)
    test, effect = paired_speedup_test(speedups)
    hl = math.exp(hodges_lehmann([math.log(s) for s in speedups]))
    return SpeedupAnalysis(
        speedups=tuple(float(s) for s in speedups),
        distinct_setups=distinct,
        level=level,
        t_interval=t_interval,
        bca_interval=bca_ci,
        test=test,
        effect_size=effect,
        hl_speedup=hl,
        geomean=geometric_mean(speedups),
        skew=skewness(speedups),
        sample_size=required_setups(
            speedups, level=level, target_rel_width=target_rel_width
        ),
    )
