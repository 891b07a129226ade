"""``repro fsck``: audit — and optionally heal — every on-disk artifact.

The robustness layer leaves five artifact classes on disk: checkpoint
journals (:class:`repro.core.runner.Journal`), measurement archives
(:mod:`repro.core.session`), content-addressed store entries
(:mod:`repro.store`), provenance manifests
(:mod:`repro.obs.manifest`) and the sweep service's study-queue WAL
(:mod:`repro.core.servicewal`).  Each already *detects* its own damage
at read time; what an operator recovering from a crash (or a chaos run)
needs is one doctor that walks all of them, says exactly what is wrong,
and — with ``--repair`` — applies each class's safe recovery action:

===========  =====================================  ====================
artifact     damage detected                        repair action
===========  =====================================  ====================
journal      torn/corrupt lines, stale duplicates   verified atomic
                                                    compaction
archive      per-record checksum failures           atomic rewrite
                                                    dropping the damaged
                                                    records
store        entries that fail deep verification,   purge the corrupt
             stale ``.tmp-`` debris                 keys (the store is a
                                                    cache; deletion is
                                                    full repair)
manifest     schema violations, artifact checksum   none — provenance is
             mismatches                             evidence, never
                                                    forged
service-wal  torn/corrupt lines, stale lease and    verified atomic
             requeue records from dead              compaction
             coordinator incarnations, completions  (:func:`repro.core.
             subsumed by a study's ``done``         servicewal.
                                                    compact_wal`)
===========  =====================================  ====================

Anything fsck cannot repair (a journal with a destroyed header, a
truncated archive that no longer parses, any manifest damage) is
reported as *unrepaired* and drives a nonzero exit code, so CI and
operators can gate on ``repro fsck`` the way they gate on tests.  The
``--json`` report is machine-readable for exactly that use.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    from repro.core.checklog import LogSpec

__all__ = [
    "FSCK_FORMAT",
    "FsckFinding",
    "FsckReport",
    "fsck_paths",
    "fsck_journal",
    "fsck_archive",
    "fsck_store",
    "fsck_manifest",
    "fsck_wal",
    "classify",
]

#: Format marker for the machine-readable ``--json`` report.
FSCK_FORMAT = "repro-fsck-v1"

#: A finding that threatens data (drives the exit code when unrepaired).
DAMAGE = "damage"
#: A finding that is hygiene only (stale duplicates, swept tmp debris).
HYGIENE = "hygiene"


@dataclass
class FsckFinding:
    """One problem found in one artifact.

    ``severity`` is :data:`DAMAGE` (lost or unreadable data) or
    :data:`HYGIENE` (recoverable clutter).  ``repaired`` records whether
    this run fixed it; ``repairable`` whether ``--repair`` *could* —
    manifest damage, for example, is deliberately never repairable.
    """

    path: str
    kind: str
    problem: str
    severity: str = DAMAGE
    repaired: bool = False
    repairable: bool = True

    def to_dict(self) -> Dict[str, Any]:
        """The finding as a JSON-ready dict."""
        return {
            "path": self.path,
            "kind": self.kind,
            "problem": self.problem,
            "severity": self.severity,
            "repaired": self.repaired,
            "repairable": self.repairable,
        }


@dataclass
class FsckReport:
    """Everything one ``repro fsck`` invocation saw and did."""

    repair: bool
    audited: List[Dict[str, str]] = field(default_factory=list)
    findings: List[FsckFinding] = field(default_factory=list)

    @property
    def unrepaired_damage(self) -> List[FsckFinding]:
        """Damage still standing after this run (drives the exit code)."""
        return [
            f
            for f in self.findings
            if f.severity == DAMAGE and not f.repaired
        ]

    @property
    def exit_code(self) -> int:
        """0 when every artifact is clean or fully healed, else 1."""
        return 1 if self.unrepaired_damage else 0

    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-ready dict (machine-readable output)."""
        return {
            "format": FSCK_FORMAT,
            "repair": self.repair,
            "audited": list(self.audited),
            "findings": [f.to_dict() for f in self.findings],
            "unrepaired_damage": len(self.unrepaired_damage),
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        """The report serialized as deterministic, sorted JSON."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def summary_lines(self) -> List[str]:
        """Human-readable audit log, one line per artifact or finding."""
        lines: List[str] = []
        by_path: Dict[str, List[FsckFinding]] = {}
        for f in self.findings:
            by_path.setdefault(f.path, []).append(f)
        for entry in self.audited:
            path, kind = entry["path"], entry["kind"]
            found = by_path.get(path, [])
            if not found:
                lines.append(f"{kind} {path}: clean")
                continue
            for f in found:
                state = (
                    "repaired"
                    if f.repaired
                    else ("UNREPAIRED" if f.severity == DAMAGE else "noted")
                )
                lines.append(f"{f.kind} {f.path}: {state}: {f.problem}")
        damage = self.unrepaired_damage
        verdict = (
            f"fsck: {len(damage)} unrepaired problem(s)"
            if damage
            else "fsck: clean"
        )
        lines.append(verdict)
        return lines


# -- classification ---------------------------------------------------------


def classify(path: str) -> Optional[str]:
    """Which artifact class lives at ``path`` — or None if unrecognized.

    Directories are store roots.  Files are sniffed by their format
    markers (journal first: its marker embeds the archive one), scanning
    the *head* rather than parsing the whole file so that truncated —
    i.e. exactly the damaged — artifacts still classify.
    """
    if os.path.isdir(path):
        return "store"
    from repro.core.runner import JOURNAL_FORMAT
    from repro.core.servicewal import WAL_FORMAT
    from repro.core.session import FORMAT_V1, FORMAT_V2
    from repro.obs.manifest import MANIFEST_FORMAT

    try:
        with open(path, errors="replace") as fh:
            head = fh.read(4096)
    except OSError:
        return None
    first_line = head.splitlines()[0] if head.splitlines() else ""
    if WAL_FORMAT in first_line:
        return "service-wal"
    if JOURNAL_FORMAT in first_line:
        return "journal"
    # An archive can *embed* a manifest (and vice versa never), so the
    # marker appearing earliest in the head decides the class.
    positions = {
        kind: min(p for p in (head.find(m) for m in markers) if p >= 0)
        for kind, markers in (
            ("manifest", (MANIFEST_FORMAT,)),
            ("archive", (FORMAT_V1, FORMAT_V2)),
        )
        if any(head.find(m) >= 0 for m in markers)
    }
    if not positions:
        return None
    return min(positions, key=positions.get)


# -- per-artifact audits ----------------------------------------------------


def fsck_journal(path: str, repair: bool) -> List[FsckFinding]:
    """Audit one checkpoint journal: torn/corrupt lines and stale
    duplicates.  Repair is the runner's own verified atomic compaction,
    so a healed journal is bit-for-bit what
    :func:`repro.core.runner.compact_journal` would have produced."""
    from repro.core.runner import JOURNAL_LOG

    return _fsck_log(path, repair, "journal", JOURNAL_LOG)


def fsck_archive(path: str, repair: bool) -> List[FsckFinding]:
    """Audit one measurement archive record by record.

    A record whose checksum or schema fails is damage; repair rewrites
    the archive atomically *without* those records (every surviving
    record is re-verified by construction).  An archive that no longer
    parses as JSON at all is unrepairable — there is no record boundary
    left to salvage along.
    """
    from repro import storageio
    from repro._errors import ArchiveCorruption
    from repro.core.session import (
        FORMAT_V1,
        FORMAT_V2,
        load_measurement_record,
        record_checksum,
    )

    findings: List[FsckFinding] = []
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        findings.append(
            FsckFinding(
                path,
                "archive",
                f"not parseable as JSON ({exc}); no records can be "
                "salvaged",
                repairable=False,
            )
        )
        return findings
    fmt = payload.get("format") if isinstance(payload, dict) else None
    records = (
        payload.get("measurements") if isinstance(payload, dict) else None
    )
    if fmt not in (FORMAT_V1, FORMAT_V2) or not isinstance(records, list):
        findings.append(
            FsckFinding(
                path,
                "archive",
                f"not a {FORMAT_V1}/{FORMAT_V2} archive (format "
                f"{fmt!r})",
                repairable=False,
            )
        )
        return findings
    good: List[Any] = []
    bad: List[int] = []
    for i, rec in enumerate(records):
        try:
            if fmt == FORMAT_V1:
                load_measurement_record(rec, path=path, record=i)
            else:
                data = (
                    rec.get("measurement") if isinstance(rec, dict) else None
                )
                if not isinstance(data, dict):
                    raise ArchiveCorruption(
                        "record lacks a measurement payload", path=path
                    )
                if rec.get("sha256") != record_checksum(data):
                    raise ArchiveCorruption(
                        "record checksum mismatch", path=path
                    )
                load_measurement_record(data, path=path, record=i)
        except ArchiveCorruption as exc:
            bad.append(i)
            findings.append(
                FsckFinding(
                    path,
                    "archive",
                    f"record {i}: {exc.args[0] if exc.args else exc}",
                )
            )
            continue
        good.append(rec)
    if bad and repair:
        payload["measurements"] = good
        storageio.atomic_write_text(
            path,
            json.dumps(payload, indent=1),
            key=f"fsck:{os.path.basename(path)}",
        )
        for f in findings:
            f.repaired = True
        findings.append(
            FsckFinding(
                path,
                "archive",
                f"rewrote archive without {len(bad)} damaged record(s); "
                f"{len(good)} verified record(s) kept",
                severity=HYGIENE,
                repaired=True,
            )
        )
    return findings


def fsck_store(root: str, repair: bool) -> List[FsckFinding]:
    """Deep-verify every store entry; repair purges the corrupt keys.

    Uses :meth:`repro.store.MeasurementStore.verify`, which goes beyond
    the backend's payload checksum: measurement entries must deserialize
    into valid records and artifact entries must unpickle under the
    restricted loader.  Purging is full repair — the store is a cache,
    and a missing entry is merely re-measured.  Stale ``.tmp-`` debris
    (a crash mid-put) is swept on open and reported as hygiene.
    """
    from repro.store import open_store

    findings: List[FsckFinding] = []
    store = open_store(root)
    swept = getattr(store.backend, "swept_tmp", 0)
    if swept:
        findings.append(
            FsckFinding(
                root,
                "store",
                f"swept {swept} stale .tmp- file(s) left by an "
                "interrupted put",
                severity=HYGIENE,
                repaired=True,
            )
        )
    ok, corrupt = store.verify()
    for key in corrupt:
        purged = repair and store.backend.delete(key)
        findings.append(
            FsckFinding(
                root,
                "store",
                f"entry {key} fails deep verification"
                + ("; purged (will re-measure)" if purged else ""),
                repaired=purged,
            )
        )
    return findings


def fsck_manifest(path: str, repair: bool) -> List[FsckFinding]:
    """Validate a provenance manifest and cross-check its artifact
    checksums against the files on disk.

    Never repairs anything: a manifest is *evidence* about how results
    were produced, and rewriting it to match changed artifacts would be
    forging provenance — the one thing this tool must never do.
    Artifact paths are resolved as written, then relative to the
    manifest's own directory.
    """
    from repro.obs.manifest import file_checksum, validate_manifest

    findings: List[FsckFinding] = []
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        findings.append(
            FsckFinding(
                path,
                "manifest",
                f"not parseable as JSON ({exc})",
                repairable=False,
            )
        )
        return findings
    for problem in validate_manifest(data):
        findings.append(
            FsckFinding(
                path, "manifest", f"schema: {problem}", repairable=False
            )
        )
    artifacts = data.get("artifacts") if isinstance(data, dict) else None
    base = os.path.dirname(os.path.abspath(path))
    for art_path, expected in (
        artifacts.items() if isinstance(artifacts, dict) else ()
    ):
        candidates = [art_path, os.path.join(base, art_path)]
        resolved = next(
            (c for c in candidates if os.path.isfile(c)), None
        )
        if resolved is None:
            findings.append(
                FsckFinding(
                    path,
                    "manifest",
                    f"artifact {art_path!r} is missing on disk",
                    repairable=False,
                )
            )
            continue
        actual = file_checksum(resolved)
        if actual != expected:
            findings.append(
                FsckFinding(
                    path,
                    "manifest",
                    f"artifact {art_path!r} checksum mismatch (manifest "
                    f"{str(expected)[:12]}…, file {actual[:12]}…) — the "
                    "artifact changed after the manifest was written",
                    repairable=False,
                )
            )
    return findings


def fsck_wal(path: str, repair: bool) -> List[FsckFinding]:
    """Audit one sweep-service study-queue WAL.

    Torn or corrupt lines (a coordinator SIGKILLed mid-append) are
    damage — each one is a single lost queue transition the service's
    at-least-once dispatch re-derives, but an operator should still see
    it.  Stale records are hygiene: lease and requeue records are
    dispatch state of coordinator incarnations that no longer exist (a
    restart re-derives every lease), and a finished study's completions
    are subsumed by its ``done`` record.  Repair is the service's own
    verified atomic compaction
    (:func:`repro.core.servicewal.compact_wal`), which keeps exactly
    the replay-relevant records: each study's submission, then its
    ``done`` record or latest per-setup completions.
    """
    from repro.core.servicewal import WAL_LOG

    return _fsck_log(path, repair, "service-wal", WAL_LOG)


def _fsck_log(
    path: str, repair: bool, kind: str, spec: "LogSpec"
) -> List[FsckFinding]:
    """The one audit of a journal or WAL (:mod:`repro.core.checklog`):
    torn lines are damage; stale records — exactly what the repair's
    verified compaction drops — are hygiene.  A failed repair leaves the
    log as it was and is unrepaired damage on this path."""
    from repro._errors import ReproError
    from repro.core import checklog

    audit = checklog.audit(path, spec)
    if audit is None:
        return [
            FsckFinding(
                path,
                kind,
                f"header is damaged; the {spec.noun} cannot be replayed, "
                "resumed or compacted",
                repairable=False,
            )
        ]
    torn, stale = audit
    findings: List[FsckFinding] = []
    if torn:
        findings.append(
            FsckFinding(
                path,
                kind,
                f"{torn} torn/corrupt line(s) (crash or power loss "
                "mid-append); the affected records are lost",
            )
        )
    if stale:
        findings.append(
            FsckFinding(
                path,
                kind,
                f"{stale} stale record(s) that compaction drops: "
                f"{spec.stale}",
                severity=HYGIENE,
            )
        )
    if repair and findings:
        try:
            done = checklog.compact(path, spec)
        except ReproError as exc:
            findings.append(FsckFinding(path, kind, f"repair failed: {exc}"))
            return findings
        for f in findings:
            f.repaired = True
        findings.append(
            FsckFinding(
                path,
                kind,
                f"compacted: {len(done.before.records)} -> "
                f"{len(done.kept)} records, dropped {done.before.torn} "
                "corrupt line(s)",
                severity=HYGIENE,
                repaired=True,
            )
        )
    return findings


# -- driver -----------------------------------------------------------------

_AUDITS = {
    "journal": fsck_journal,
    "archive": fsck_archive,
    "store": fsck_store,
    "manifest": fsck_manifest,
    "service-wal": fsck_wal,
}


def fsck_paths(paths: List[str], repair: bool = False) -> FsckReport:
    """Audit every path (file or store directory) and return the report.

    Each path is classified by content (:func:`classify`) and handed to
    its artifact-class audit.  Unrecognized or missing paths are
    unrepairable damage: an operator pointing fsck at the wrong thing
    should hear about it, loudly, through the exit code.
    """
    report = FsckReport(repair=repair)
    for path in paths:
        if not os.path.exists(path):
            report.audited.append({"path": path, "kind": "missing"})
            report.findings.append(
                FsckFinding(
                    path, "missing", "path does not exist", repairable=False
                )
            )
            continue
        kind = classify(path)
        if kind is None:
            report.audited.append({"path": path, "kind": "unknown"})
            report.findings.append(
                FsckFinding(
                    path,
                    "unknown",
                    "not a recognizable repro artifact (journal, archive, "
                    "store directory, or manifest)",
                    repairable=False,
                )
            )
            continue
        report.audited.append({"path": path, "kind": kind})
        report.findings.extend(_AUDITS[kind](path, repair))
    return report
