"""The benchmarking-crime rule set behind ``repro audit``.

Each rule recognizes one of the statistical crimes van der Kouwe et
al. (2018) catalogue and the source paper demonstrates, and emits a
:class:`Finding` with a stable machine-readable code:

======================  ====================================================
code                    crime
======================  ====================================================
``single-setup``        a conclusion drawn from one experimental setup —
                        the exact mistake the source paper measures
``pseudoreplication``   repeated measurements under a shared setup counted
                        as independent observations
``weak-ci``             a conclusion with no confidence interval, or with
                        only a normal-theory interval on a visibly skewed
                        sample
``selective-reporting`` claims built from fewer observations than the
                        document says were measured
``ratio-aggregation``   speedup ratios aggregated with an arithmetic mean
                        (or an aggregate *labeled* geometric that is
                        arithmetic when recomputed)
======================  ====================================================

The auditor's stance is *recompute, don't trust*: wherever the document
carries the raw speedup sample, derived quantities (skewness, the
aggregate) are recomputed from it and compared against what the
document claims.  Codes are part of the CLI contract — CI greps for
them — so they never change spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.stats import SKEW_THRESHOLD, geometric_mean, skewness

#: Relative tolerance when recomputing aggregates from raw samples.
AGGREGATE_RTOL = 1e-6

#: Every stable finding code, in report order.
CRIME_CODES = (
    "single-setup",
    "pseudoreplication",
    "weak-ci",
    "selective-reporting",
    "ratio-aggregation",
)


@dataclass(frozen=True)
class Finding:
    """One flagged crime: stable code, severity, evidence, remedy."""

    code: str
    severity: str  # "high" | "medium"
    message: str
    advice: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "advice": self.advice,
        }

    def summary_line(self) -> str:
        return f"[{self.severity.upper():6s}] {self.code}: {self.message}"


@dataclass
class AuditResult:
    """Outcome of auditing one document.

    ``findings`` are crimes; ``notes`` are informational context (what
    was audited, what could not be checked).  ``clean`` means no
    findings — the exit-0 condition for the CLI.
    """

    source: str
    kind: str  # "manifest" | "archive" | "report"
    findings: List[Finding] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def codes(self) -> List[str]:
        """Stable codes of all findings, in emission order."""
        return [f.code for f in self.findings]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "kind": self.kind,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "notes": list(self.notes),
        }

    def summary_lines(self) -> List[str]:
        lines = [f"audit: {self.source} ({self.kind})"]
        lines += [f"  {note}" for note in self.notes]
        if self.clean:
            lines.append("  clean: no benchmarking crimes detected")
        else:
            lines += [
                "  " + f.summary_line() + f"\n    fix: {f.advice}"
                for f in self.findings
            ]
        return lines


def _stats_sample(stats: Dict[str, Any]) -> List[float]:
    """The raw speedup sample a stats section must carry."""
    speedups = stats.get("speedups")
    return [float(s) for s in speedups] if isinstance(speedups, list) else []


def _has_conclusion(stats: Dict[str, Any]) -> bool:
    """Does the stats section state a verdict (a claim to audit)?"""
    verdict = stats.get("verdict")
    return isinstance(verdict, dict) and bool(verdict)


def check_single_setup(
    stats: Dict[str, Any], findings: List[Finding]
) -> None:
    """``single-setup``: a verdict resting on one experimental setup."""
    if not _has_conclusion(stats):
        return
    distinct = stats.get("distinct_setups")
    if distinct is None:
        return
    if int(distinct) <= 1:
        findings.append(
            Finding(
                code="single-setup",
                severity="high",
                message=(
                    "a verdict is claimed from a single experimental "
                    f"setup (distinct_setups={distinct}); the source "
                    "paper shows one setup can bias conclusions by more "
                    "than the effect being measured"
                ),
                advice=(
                    "randomize the setup (repro randomized) and report "
                    "an interval over many sampled setups"
                ),
            )
        )


def check_pseudoreplication(
    stats: Dict[str, Any], findings: List[Finding]
) -> None:
    """``pseudoreplication``: sample size inflated by shared setups."""
    sample = _stats_sample(stats)
    n = int(stats.get("n", len(sample)) or len(sample))
    distinct = stats.get("distinct_setups")
    if distinct is None or n <= 1:
        return
    distinct = int(distinct)
    if 1 <= distinct < n:
        findings.append(
            Finding(
                code="pseudoreplication",
                severity="high",
                message=(
                    f"{n} observations but only {distinct} distinct "
                    "setups: repeated measurements under a shared setup "
                    "are not independent samples, so every interval and "
                    "p-value computed from them is too narrow"
                ),
                advice=(
                    "aggregate replicates per setup first, or sample "
                    "one measurement per randomized setup"
                ),
            )
        )


def check_weak_ci(stats: Dict[str, Any], findings: List[Finding]) -> None:
    """``weak-ci``: no interval behind a verdict, or a normal-only
    interval on a sample whose recomputed skewness disqualifies it."""
    if not _has_conclusion(stats):
        return
    intervals = stats.get("intervals") or []
    methods = {
        str(iv.get("method", "")).lower()
        for iv in intervals
        if isinstance(iv, dict)
    }
    if not methods:
        findings.append(
            Finding(
                code="weak-ci",
                severity="medium",
                message=(
                    "a verdict is claimed with no confidence interval "
                    "at all — a point estimate cannot distinguish an "
                    "effect from setup noise"
                ),
                advice=(
                    "report a confidence interval (t for symmetric "
                    "samples, BCa bootstrap otherwise) with the verdict"
                ),
            )
        )
        return
    normal_only = methods <= {"t", "normal"}
    if not normal_only:
        return
    sample = _stats_sample(stats)
    if len(sample) < 3:
        return
    skew = skewness(sample)
    if abs(skew) > SKEW_THRESHOLD:
        findings.append(
            Finding(
                code="weak-ci",
                severity="medium",
                message=(
                    "only normal-theory (t) intervals are reported, but "
                    f"the raw sample's skewness is {skew:+.2f} "
                    f"(|threshold| {SKEW_THRESHOLD:g}): the t interval's "
                    "symmetry assumption does not hold"
                ),
                advice=(
                    "add a BCa bootstrap interval "
                    "(repro.stats.bca_confidence_interval) and let it "
                    "carry the conclusion"
                ),
            )
        )


def check_selective_reporting(
    stats: Optional[Dict[str, Any]],
    report: Optional[Dict[str, Any]],
    n_setups: Optional[int],
    findings: List[Finding],
) -> None:
    """``selective-reporting``: fewer observations behind the claim
    than the document says were measured."""
    if stats is not None and _has_conclusion(stats) and n_setups:
        sample = _stats_sample(stats)
        n = int(stats.get("n", len(sample)) or len(sample))
        # A paired protocol measures 2 setups (base + treatment) per
        # speedup observation; an unpaired record is 1:1.  Either way,
        # claiming from fewer pairs than the document records is the
        # crime — test the generous (paired) reading so unpaired
        # documents don't false-positive.
        if 0 < 2 * n < n_setups:
            findings.append(
                Finding(
                    code="selective-reporting",
                    severity="high",
                    message=(
                        f"the verdict is built from {n} observations "
                        f"but the document records {n_setups} measured "
                        "setups — a subset of the data was selected "
                        "for the conclusion"
                    ),
                    advice=(
                        "include every measured setup in the analysis, "
                        "or document and justify each exclusion"
                    ),
                )
            )
            return
    if (
        stats is not None
        and _has_conclusion(stats)
        and isinstance(report, dict)
    ):
        requested = report.get("requested", 0)
        covered = report.get("measured", 0) + report.get("resumed", 0)
        if isinstance(requested, int) and covered < requested:
            findings.append(
                Finding(
                    code="selective-reporting",
                    severity="high",
                    message=(
                        f"the sweep covered {covered} of {requested} "
                        "requested setups (the rest quarantined) yet a "
                        "verdict is claimed without acknowledging the "
                        "missing measurements"
                    ),
                    advice=(
                        "re-measure the quarantined setups or state the "
                        "coverage gap next to the conclusion"
                    ),
                )
            )


def check_ratio_aggregation(
    stats: Dict[str, Any], findings: List[Finding]
) -> None:
    """``ratio-aggregation``: arithmetic-mean aggregation of ratios,
    declared or detected by recomputation."""
    aggregate = stats.get("aggregate")
    if not isinstance(aggregate, dict):
        return
    method = str(aggregate.get("method", "")).lower()
    value = aggregate.get("value")
    sample = _stats_sample(stats)
    if method in ("arithmetic-mean", "mean", "average"):
        findings.append(
            Finding(
                code="ratio-aggregation",
                severity="medium",
                message=(
                    f"speedup ratios are aggregated with an "
                    f"{method.replace('-', ' ')}: the arithmetic mean "
                    "of ratios overweights large speedups and depends "
                    "on the choice of baseline"
                ),
                advice=(
                    "aggregate ratios with the geometric mean "
                    "(repro.stats.geometric_mean)"
                ),
            )
        )
        return
    if (
        method == "geometric-mean"
        and isinstance(value, (int, float))
        and len(sample) >= 2
        and all(s > 0 for s in sample)
    ):
        gmean = geometric_mean(sample)
        amean = sum(sample) / len(sample)
        tol = AGGREGATE_RTOL * max(abs(gmean), abs(amean), 1e-12)
        if abs(value - gmean) > tol and abs(value - amean) <= tol:
            findings.append(
                Finding(
                    code="ratio-aggregation",
                    severity="medium",
                    message=(
                        f"the aggregate is labeled geometric-mean but "
                        f"its value {value:.6f} is the arithmetic mean "
                        f"of the raw speedups (geometric mean: "
                        f"{gmean:.6f}) — the label misrepresents the "
                        "computation"
                    ),
                    advice=(
                        "recompute the aggregate with "
                        "repro.stats.geometric_mean"
                    ),
                )
            )


def run_stats_checks(
    stats: Optional[Dict[str, Any]],
    report: Optional[Dict[str, Any]] = None,
    n_setups: Optional[int] = None,
) -> List[Finding]:
    """Run every crime rule over one stats section (possibly absent)
    and its surrounding document context.  Returns findings in stable
    :data:`CRIME_CODES` order."""
    findings: List[Finding] = []
    if isinstance(stats, dict):
        check_single_setup(stats, findings)
        check_pseudoreplication(stats, findings)
        check_weak_ci(stats, findings)
    check_selective_reporting(stats, report, n_setups, findings)
    if isinstance(stats, dict):
        check_ratio_aggregation(stats, findings)
    order = {code: i for i, code in enumerate(CRIME_CODES)}
    findings.sort(key=lambda f: order.get(f.code, len(order)))
    return findings


def duplicate_setup_count(setups: Sequence[Dict[str, Any]]) -> int:
    """How many setup entries in a manifest/archive repeat an earlier
    one (identity ignores the human-facing ``describe`` string)."""
    import json as _json

    seen = set()
    dupes = 0
    for entry in setups:
        payload = {k: v for k, v in entry.items() if k != "describe"}
        key = _json.dumps(payload, sort_keys=True, default=str)
        if key in seen:
            dupes += 1
        else:
            seen.add(key)
    return dupes
