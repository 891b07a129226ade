"""Inspection of observability artifacts: traces and manifests.

Backs the ``repro obs`` CLI and ``tools/validate_trace.py``:

- :func:`validate_trace` / :func:`validate_manifest` — schema checks
  (hand-rolled; the package has no dependencies to lean on);
- :func:`summarize_trace` / :func:`summarize_manifest` — human-facing
  tables;
- :func:`merge_traces` — combine traces from several runs into one
  Perfetto-loadable file (each input becomes its own process row);
- :func:`diff_traces` / :func:`diff_manifests` — where did the time (or
  the setup) change between two runs?
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.manifest import MANIFEST_FORMAT, validate_manifest
from repro.obs.trace import TRACE_FORMAT

__all__ = [
    "diff_manifests",
    "diff_traces",
    "is_journal",
    "is_manifest",
    "is_timeline",
    "is_trace",
    "load_json_artifact",
    "merge_traces",
    "summarize_journal",
    "summarize_manifest",
    "summarize_trace",
    "validate_journal",
    "validate_manifest",
    "validate_trace",
]


def load_json_artifact(path: str) -> Dict[str, Any]:
    """Load a trace, manifest, or checkpoint-journal file, raising
    ArchiveCorruption on junk.

    Journals and metrics timelines are JSON *Lines*, not one JSON
    document; they are detected by their header line and wrapped as
    ``{"journal": {...}}`` / ``{"timeline": {...}}`` so the same
    dispatch (``is_trace``/``is_manifest``/``is_journal``/
    ``is_timeline``) covers every artifact family.
    """
    from repro._errors import ArchiveCorruption
    from repro.obs.perf import TIMELINE_FORMAT

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ArchiveCorruption(f"unreadable artifact: {exc}", path=path) from exc
    first, _, _ = text.partition("\n")
    try:
        head = json.loads(first) if first.strip() else None
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and isinstance(head.get("format"), str):
        if head["format"].endswith("-journal"):
            return {
                "journal": {
                    "path": path,
                    "header": head,
                    "lines": text.splitlines()[1:],
                }
            }
        if head["format"] == TIMELINE_FORMAT:
            return {
                "timeline": {
                    "path": path,
                    "header": head,
                    "lines": text.splitlines()[1:],
                }
            }
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchiveCorruption(
            f"not valid JSON: {exc}", path=path
        ) from exc
    if not isinstance(data, dict):
        raise ArchiveCorruption("artifact root is not an object", path=path)
    return data


def is_trace(data: Dict[str, Any]) -> bool:
    return "traceEvents" in data


def is_manifest(data: Dict[str, Any]) -> bool:
    return data.get("format") == MANIFEST_FORMAT


def is_journal(data: Dict[str, Any]) -> bool:
    return "journal" in data


def is_timeline(data: Dict[str, Any]) -> bool:
    return "timeline" in data


# -- traces ------------------------------------------------------------------


def validate_trace(data: Any) -> List[str]:
    """Chrome-trace schema check; returns problems (empty == valid)."""
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["trace root is not an object (array-format traces are not emitted by repro)"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no 'traceEvents' list"]
    other = data.get("otherData")
    if not (isinstance(other, dict) and other.get("format") == TRACE_FORMAT):
        errors.append(f"otherData.format is not {TRACE_FORMAT!r}")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i} is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "B", "E", "C"):
            errors.append(f"event {i} has unknown phase {ph!r}")
            continue
        if "name" not in ev or "pid" not in ev:
            errors.append(f"event {i} lacks name/pid")
            continue
        if ph == "X":
            for key in ("ts", "dur"):
                if not isinstance(ev.get(key), (int, float)):
                    errors.append(f"event {i} ({ev['name']}) {key} is not a number")
            args = ev.get("args")
            if not (isinstance(args, dict) and "id" in args and "path" in args):
                errors.append(
                    f"event {i} ({ev['name']}) lacks deterministic id/path args"
                )
        if ph == "i" and "ts" not in ev:
            errors.append(f"event {i} ({ev['name']}) instant lacks ts")
    return errors


def _span_events(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [
        ev
        for ev in data.get("traceEvents", ())
        if isinstance(ev, dict) and ev.get("ph") == "X"
    ]


def _totals_by_name(
    events: Sequence[Dict[str, Any]]
) -> Dict[str, Tuple[int, float]]:
    """name -> (count, total duration in microseconds)."""
    totals: Dict[str, Tuple[int, float]] = {}
    for ev in events:
        count, total = totals.get(ev["name"], (0, 0.0))
        totals[ev["name"]] = (count + 1, total + float(ev.get("dur", 0.0)))
    return totals


def summarize_trace(data: Dict[str, Any], top: int = 20) -> str:
    """Per-span-name totals, largest first, plus the trace's envelope."""
    from repro.core.report import render_table

    events = _span_events(data)
    instants = [
        ev for ev in data.get("traceEvents", ()) if ev.get("ph") == "i"
    ]
    totals = _totals_by_name(events)
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])[:top]
    rows = [
        [name, count, f"{total / 1e3:.3f}", f"{total / count / 1e3:.3f}"]
        for name, (count, total) in ranked
    ]
    end = max(
        (float(ev["ts"]) + float(ev.get("dur", 0.0)) for ev in events),
        default=0.0,
    )
    label = (data.get("otherData") or {}).get("label", "?")
    title = (
        f"trace {label!r}: {len(events)} spans, {len(instants)} instants, "
        f"{end / 1e3:.3f} ms wall"
    )
    return render_table(
        ["span", "count", "total ms", "mean ms"], rows, title=title
    )


def merge_traces(
    traces: Sequence[Dict[str, Any]], labels: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Combine traces into one file; input *k* becomes process ``k+1``."""
    events: List[Dict[str, Any]] = []
    for k, trace in enumerate(traces):
        pid = k + 1
        label = (
            labels[k]
            if labels is not None
            else (trace.get("otherData") or {}).get("label", f"trace-{pid}")
        )
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 1,
                "args": {"name": label},
            }
        )
        for ev in trace.get("traceEvents", ()):
            if not isinstance(ev, dict) or ev.get("ph") == "M":
                continue
            merged = dict(ev)
            merged["pid"] = pid
            events.append(merged)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": TRACE_FORMAT, "label": "merged"},
    }


def diff_traces(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Per-span-name wall-time comparison of two traces."""
    from repro.core.report import render_table

    ta = _totals_by_name(_span_events(a))
    tb = _totals_by_name(_span_events(b))
    rows = []
    for name in sorted(set(ta) | set(tb)):
        ca, da = ta.get(name, (0, 0.0))
        cb, db = tb.get(name, (0, 0.0))
        rows.append((abs(db - da), [
            name,
            ca,
            cb,
            f"{da / 1e3:.3f}",
            f"{db / 1e3:.3f}",
            f"{(db - da) / 1e3:+.3f}",
        ]))
    rows.sort(key=lambda r: -r[0])
    return render_table(
        ["span", "count A", "count B", "total ms A", "total ms B", "delta ms"],
        [row for _, row in rows],
        title="trace diff (A -> B)",
    )


# -- manifests ---------------------------------------------------------------


def summarize_manifest(data: Dict[str, Any]) -> str:
    """The provenance story of one manifest as a property table."""
    from repro.core.report import render_table

    exp = data.get("experiment") or {}
    env = data.get("environment") or {}
    pkg = data.get("package") or {}
    setups = data.get("setups") or []
    report = data.get("report") or {}
    env_sizes = sorted(
        {s.get("env_bytes") for s in setups if s.get("env_bytes") is not None}
    )
    env_range = (
        f"{env_sizes[0]}..{env_sizes[-1]} ({len(env_sizes)} distinct)"
        if env_sizes
        else "baseline only"
    )
    link_orders = sum(1 for s in setups if s.get("link_order"))
    rows = [
        ["package", f"{pkg.get('name')} {pkg.get('version')}"],
        ["host", f"{env.get('platform')} / python {env.get('python')}"],
        [
            "experiment",
            f"{exp.get('workload')}/{exp.get('size')} seed={exp.get('seed')}"
            if exp
            else "(none)",
        ],
        ["setups", len(setups)],
        ["toolchain profiles", ", ".join((data.get("toolchain") or {}).get("profiles", []))],
        ["machines", ", ".join(data.get("machines", []))],
        ["env sizes", env_range],
        ["explicit link orders", link_orders],
        ["seeds", ", ".join(f"{k}={v}" for k, v in (data.get("seeds") or {}).items())],
        ["fault plan", "yes" if data.get("fault_plan") else "none"],
        [
            "sweep report",
            (
                f"{report.get('measured')} measured + {report.get('resumed')} "
                f"resumed + {len(report.get('quarantined', []))} quarantined"
            )
            if report
            else "(none)",
        ],
        ["artifacts", len(data.get("artifacts") or {})],
        [
            "store",
            (
                f"{store.get('hits')} hits / {store.get('misses')} misses "
                f"({store.get('scheme')})"
            )
            if (store := data.get("store"))
            else "none",
        ],
    ]
    runner = data.get("runner") or {}
    if runner.get("trace_sample", 1) > 1:
        rows.append(["trace sampling", f"1 in {runner['trace_sample']}"])
    if (perf := data.get("perf")) and isinstance(perf.get("engine"), dict):
        eng = perf["engine"]
        classes = eng.get("opcode_classes") or {}
        dispatched = sum(classes.values())
        blocks = eng.get("blocks") or {}
        rows.append(
            [
                "engine profile",
                f"{eng.get('runs')} runs, {dispatched} dispatches, "
                f"block replay ×{blocks.get('replay_ratio', 0):.1f}",
            ]
        )
    if isinstance(stats := data.get("stats"), dict):
        intervals = [
            iv for iv in stats.get("intervals") or [] if isinstance(iv, dict)
        ]
        methods = ", ".join(
            str(iv.get("method", "?")) for iv in intervals
        ) or "none"
        rows.append(
            [
                "stats",
                f"{stats.get('n')} speedups over "
                f"{stats.get('distinct_setups')} setups, "
                f"CI methods: {methods}",
            ]
        )
        for iv in intervals:
            rows.append(
                [
                    f"CI ({iv.get('method', '?')})",
                    f"[{iv.get('lo', 0.0):.4f}, {iv.get('hi', 0.0):.4f}] "
                    f"at {iv.get('level', 0.0):.0%}",
                ]
            )
        if isinstance(size := stats.get("sample_size"), dict):
            rows.append(
                [
                    "sample size",
                    "converged"
                    if size.get("converged")
                    else f"recommend ~{size.get('recommended_n')} setups",
                ]
            )
    if isinstance(audit := data.get("audit"), dict):
        findings = audit.get("findings") or []
        rows.append(
            [
                "audit",
                "clean"
                if not findings
                else ", ".join(
                    str(f.get("code", "?")) for f in findings
                ),
            ]
        )
    return render_table(
        ["property", "value"], rows, title=f"manifest ({data.get('note') or 'no note'})"
    )


def _manifest_facets(data: Dict[str, Any]) -> Dict[str, Any]:
    setups = data.get("setups") or []
    return {
        "package version": (data.get("package") or {}).get("version"),
        "python": (data.get("environment") or {}).get("python"),
        "platform": (data.get("environment") or {}).get("platform"),
        "workload": (data.get("experiment") or {}).get("workload"),
        "input size": (data.get("experiment") or {}).get("size"),
        "setups": len(setups),
        "machines": ",".join(data.get("machines", [])),
        "toolchain profiles": ",".join(
            (data.get("toolchain") or {}).get("profiles", [])
        ),
        "env sizes": ",".join(
            str(s.get("env_bytes")) for s in setups
        ),
        "seeds": json.dumps(data.get("seeds") or {}, sort_keys=True),
        "fault plan": json.dumps(data.get("fault_plan"), sort_keys=True),
        "store scheme": (data.get("store") or {}).get("scheme"),
        "sweep id": data.get("sweep_id"),
    }


def diff_manifests(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Field-by-field provenance comparison (the "what changed between
    these two measurement campaigns?" question)."""
    from repro.core.report import render_table

    fa = _manifest_facets(a)
    fb = _manifest_facets(b)
    rows = []
    for key in fa:
        va, vb = fa[key], fb[key]
        marker = "" if va == vb else "***"
        rows.append([key, _short(va), _short(vb), marker])
    return render_table(
        ["facet", "A", "B", "differs"], rows, title="manifest diff (A vs B)"
    )


def _short(value: Any, limit: int = 48) -> str:
    text = str(value)
    return text if len(text) <= limit else text[: limit - 1] + "…"


# -- checkpoint journals -----------------------------------------------------


def validate_journal(data: Dict[str, Any]) -> List[str]:
    """Integrity check of a sweep checkpoint journal (empty == valid).

    Flags torn/corrupt lines and *stale* duplicates (superseded records
    that ``repro journal compact`` would fold away); both are recoverable
    — resume drops them — but a clean journal has neither.
    """
    from repro.core.checklog import parse_line
    from repro.core.runner import JOURNAL_FORMAT, JOURNAL_LOG

    j = data.get("journal") or {}
    header = j.get("header") or {}
    errors: List[str] = []
    if header.get("format") != JOURNAL_FORMAT:
        errors.append(
            f"journal header format is {header.get('format')!r}, "
            f"expected {JOURNAL_FORMAT!r}"
        )
    if not isinstance(header.get("sweep"), str) or not header.get("sweep"):
        errors.append("journal header lacks a sweep id")
    parsed = [
        (lineno, parse_line(line))
        for lineno, line in enumerate(j.get("lines") or [], start=2)
        if line.strip()
    ]
    # A stale line is one compaction drops: the journal's own keep rule.
    valid = [r for __, r in parsed if r is not None]
    kept = {id(r) for r in JOURNAL_LOG.keep(valid)}
    for lineno, rec in parsed:
        if rec is None:
            errors.append(
                f"line {lineno}: torn or corrupt record (dropped on resume)"
            )
        elif id(rec) not in kept:
            what = (
                f"record for setup {rec.index}" if rec.index is not None
                else f"{rec.kind!r} aux record"
            )
            errors.append(
                f"line {lineno}: stale duplicate {what} "
                "(run `repro journal compact`)"
            )
    return errors


def summarize_journal(data: Dict[str, Any]) -> str:
    """One checkpoint journal's contents as a property table."""
    from repro.core.checklog import parse_line
    from repro.core.report import render_table
    from repro.core.runner import JOURNAL_LOG

    j = data.get("journal") or {}
    header = j.get("header") or {}
    parsed = [parse_line(l) for l in j.get("lines") or [] if l.strip()]
    records = [r for r in parsed if r is not None]
    indices = [r.index for r in records if r.index is not None]
    aux_kinds = Counter(r.kind for r in records if r.index is None)
    corrupt = len(parsed) - len(records)
    stale = len(records) - len(JOURNAL_LOG.keep(records))
    rows = [
        ["sweep", str(header.get("sweep", "?"))[:12]],
        ["note", header.get("note") or "(none)"],
        ["measurement records", len(indices)],
        ["distinct setups", len(set(indices))],
        [
            "aux records",
            ", ".join(f"{k}×{n}" for k, n in sorted(aux_kinds.items()))
            or "none",
        ],
        ["torn/corrupt lines", corrupt],
        ["torn writes recovered", header.get("torn_recovered", 0)],
        ["stale lines (compactable)", stale],
    ]
    return render_table(
        ["property", "value"], rows, title=f"journal ({j.get('path', '?')})"
    )
