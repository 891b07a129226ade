"""The checksummed append-only log under the journal and the service WAL.

The sweep checkpoint journal (:class:`repro.core.runner.Journal`) and
the service's study-queue WAL (:class:`repro.core.servicewal.ServiceWAL`)
are one kind of file: a plain-JSON header line with a format marker and
a running ``torn_recovered`` count, then one checksummed canonical-JSON
record per line.  This module owns every rule about it — durable
(group-committed) appends and their storage fault draws, dropping torn
lines on load, the one verified rewrite, keep-policy compaction and
fsck's classification — so an owner states only its :class:`LogSpec`
and, at load time, its identity check.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from typing import (
    IO, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
    Union,
)

from repro import faults, storageio
from repro._errors import ArchiveCorruption, JournalWriteError
from repro.core.session import canonical_json, record_checksum


class Record(NamedTuple):
    """One valid log line, kept verbatim so rewrites re-emit its bytes;
    an indexed (measurement) record has ``index`` set, else ``kind``."""

    line: str
    data: Dict
    sha256: str
    index: Optional[int] = None
    kind: Optional[str] = None


@dataclass(frozen=True)
class LogSpec:
    """What one owner states about its checksummed log."""

    #: Header ``format`` marker; a log without it is refused.
    format: str
    #: What the log is called in messages ("journal", "service WAL").
    noun: str
    #: Compaction keep policy: the records a rewrite keeps, in order.
    keep: Callable[[List[Record]], List[Record]]
    #: What the keep policy drops, in words (fsck's hygiene finding).
    stale: str
    #: Do indexed measurement records belong to this log?
    indexed: bool = False


class Contents(NamedTuple):
    """A parsed log: header, valid records in file order, torn lines."""

    header: Dict
    records: List[Record]
    torn: int


class Compaction(NamedTuple):
    """What one :func:`compact` pass did; owners adapt it to their stats."""

    before: Contents
    kept: List[Record]
    bytes_before: int
    bytes_after: int


def encode(
    data: Union[Dict, str],
    *,
    index: Optional[int] = None,
    kind: Optional[str] = None,
) -> Tuple[str, str]:
    """The line for one record (indexed when ``index`` is given, else of
    ``kind``) and its checksum.  The payload is serialized once: the
    checksum hashes that text and the line is built around it, byte for
    byte the ``canonical_json`` of the whole record (canonical JSON sorts
    keys at every level, and the record's own keys sort as written).
    ``data`` may already be that canonical JSON text, as a store hit's
    payload is; it is then used as it stands."""
    payload = data if isinstance(data, str) else canonical_json(data)
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    if index is not None:
        line = (
            f'{{"index":{json.dumps(index)},"measurement":{payload},'
            f'"sha256":"{checksum}"}}'
        )
    else:
        line = (
            f'{{"data":{payload},"kind":{json.dumps(kind)},'
            f'"sha256":"{checksum}"}}'
        )
    return line, checksum


def parse_line(line: str, indexed: bool = True) -> Optional[Record]:
    """The record on one line — None for a torn, corrupt or blank line,
    or for an indexed record when ``indexed`` is False."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(rec, dict):
        return None
    index, kind = rec.get("index"), rec.get("kind")
    if indexed and isinstance(index, int) and isinstance(
        rec.get("measurement"), dict
    ):
        data, kind = rec["measurement"], None
    elif isinstance(kind, str) and isinstance(rec.get("data"), dict):
        data, index = rec["data"], None
    else:
        return None
    if rec.get("sha256") != record_checksum(data):
        return None
    return Record(line, data, rec["sha256"], index, kind)


def read(path: str, spec: LogSpec, verb: str = "load") -> Optional[Contents]:
    """Parse a log without changing it; None for a missing or empty file.
    A foreign or damaged header raises :class:`ArchiveCorruption` rather
    than read as an empty log, which would silently drop records.  The
    returned header's ``torn_recovered`` is always a count."""
    if not os.path.exists(path):
        return None
    with open(path, errors="replace") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return None
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ArchiveCorruption(
            f"{spec.noun} header is not valid JSON: {exc}", path=path
        ) from exc
    if not isinstance(header, dict) or header.get("format") != spec.format:
        got = header.get("format") if isinstance(header, dict) else header
        raise ArchiveCorruption(
            f"not a {spec.format} {spec.noun} (got {got!r}); "
            f"refusing to {verb}",
            path=path,
        )
    try:
        torn_before = max(0, int(header.get("torn_recovered") or 0))
    except (TypeError, ValueError):
        torn_before = 0
    header["torn_recovered"] = torn_before
    records: List[Record] = []
    torn = 0
    for line in lines[1:]:
        rec = parse_line(line, spec.indexed)
        if rec is not None:
            records.append(rec)
        elif line.strip():
            torn += 1
    return Contents(header, records, torn)


def load(
    path: str, spec: LogSpec, check: Optional[Callable[[Dict], None]] = None
) -> Optional[Contents]:
    """:func:`read`, then the owner's identity ``check`` on the header,
    then torn-line recovery: a log with torn lines is rewritten without
    them (the returned header is the rewritten one).  A failed rewrite
    raises and leaves the log byte-identical."""
    contents = read(path, spec)
    if contents is None:
        return None
    if check is not None:
        check(contents.header)
    if contents.torn:
        rewrite(path, spec, contents, contents.records)
    return contents


def audit(path: str, spec: LogSpec) -> Optional[Tuple[int, int]]:
    """fsck's classification: ``(torn lines, stale records)``, where the
    stale records are the valid ones :func:`compact` drops.  None when
    the header is damaged, so nothing can be replayed or repaired."""
    try:
        contents = read(path, spec, "audit")
    except ArchiveCorruption:
        return None
    if contents is None:
        return None
    kept = spec.keep(contents.records)
    return contents.torn, len(contents.records) - len(kept)


class Line(NamedTuple):
    """One line for :func:`append`: its text, the fault ``key`` that opts
    it into the storage fault draws and names its ``journal_fsync_stall``
    draw (without one the path does), and its record index for errors."""

    text: str
    key: Optional[str] = None
    record: Optional[int] = None


def append(
    fh: IO, lines: Sequence[Line], *, path: str, tear: Optional[int] = None
) -> None:
    """Append ``lines`` durably before returning, as one group commit:
    one write, one flush, one fsync (a single line is a batch of one).

    Each keyed line keeps its own fault draws, in order, as if it were
    appended alone.  With a ``tear`` attempt, ``journal_torn_write``
    syncs half the line and unwinds with :class:`~repro.faults.TornWrite`,
    as a crash mid-append would, and ``journal_torn_tail`` flushes a
    truncated line without syncing it (a power cut after the page-cache
    write) and carries on as if it landed.  Then ``disk_full`` fails the
    line with ENOSPC before any of its bytes land.  Every line before a
    fault is durable when the fault surfaces.  Failures surface as
    :class:`JournalWriteError` naming the first record not known durable.
    """
    pending: List[Line] = []
    for line in lines:
        key = line.key
        if key is not None and tear is not None:
            if faults.should_inject_at("journal_torn_write", key, tear):
                commit(fh, pending, path)
                fh.write(line.text[: len(line.text) // 2])
                fh.flush()
                os.fsync(fh.fileno())
                raise faults.TornWrite(
                    f"injected torn journal write at setup {line.record}"
                )
            if storageio.torn_tail_fires(key, tear):
                commit(fh, pending, path)
                pending = []
                fh.write(line.text[: len(line.text) // 2] + "\n")
                fh.flush()
                continue
        if key is not None:
            try:
                storageio.check_disk_full(key, path=path)
            except OSError as exc:
                commit(fh, pending, path)
                raise JournalWriteError(
                    str(exc), path=path, record=line.record
                ) from exc
        pending.append(line)
    commit(fh, pending, path)


def commit(fh: IO, lines: Sequence[Line], path: str) -> None:
    """Make ``lines`` durable with one write, one flush and one fsync.
    Each line still pays its own ``journal_fsync_stall`` draw, so a
    batch stalls exactly as long as its lines would one by one."""
    if not lines:
        return
    try:
        fh.write("".join(line.text + "\n" for line in lines))
        fh.flush()
        for line in lines[1:]:
            storageio.fsync_stall(line.key or path)
        storageio.fsync(fh, lines[0].key or path)
    except OSError as exc:
        raise JournalWriteError(
            str(exc), path=path, record=lines[0].record
        ) from exc


def open_append(
    path: str,
    spec: LogSpec,
    note: str,
    torn: int,
    key: Optional[str] = None,
    **identity: Any,
) -> IO:
    """Open a log for appending.  A new or empty file first gets its
    header: the format marker, ``note``, the running ``torn`` count and
    the owner's ``identity`` fields (``key`` as in :class:`Line`)."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    fh = open(path, "a")
    if fresh:
        header = {"format": spec.format, "note": note, "torn_recovered": torn}
        try:
            line = json.dumps(dict(header, **identity), sort_keys=True)
            append(fh, [Line(line, key)], path=path)
        except JournalWriteError:
            fh.close()
            raise
    return fh


def rewrite(
    path: str, spec: LogSpec, contents: Contents, records: List[Record]
) -> None:
    """Atomically replace a log with its header and ``records``, raising
    the header's ``torn_recovered`` by the ``contents.torn`` lines left
    out.  Temp file, shim fsync (drawn on ``compact:<basename>``), then a
    full re-read with every checksum checked, so a rewrite whose sync
    lost its tail is never published.  On any failure the temp file is
    removed, the original is untouched, and the error is typed."""
    header = contents.header
    header["torn_recovered"] += contents.torn
    tmp = path + ".compact"
    lines = [json.dumps(header, sort_keys=True)] + [r.line for r in records]
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            storageio.fsync(fh, f"compact:{os.path.basename(path)}")
        try:
            back = read(tmp, spec, "verify")
        except ArchiveCorruption:
            back = None
        if back is None or back.torn or len(back.records) != len(records):
            raise ArchiveCorruption(
                f"{spec.noun} rewrite failed verification (the re-read "
                f"lost some of its {len(records)} records); original left "
                "untouched",
                path=path,
            )
        os.replace(tmp, path)
    except OSError as exc:
        raise JournalWriteError(
            f"{spec.noun} rewrite failed ({exc}); original left untouched",
            path=path,
        ) from exc
    finally:
        # Renamed away on success; debris from a failure otherwise.
        with contextlib.suppress(OSError):
            os.remove(tmp)


def compact(path: str, spec: LogSpec) -> Compaction:
    """Rewrite a log down to what ``spec.keep`` keeps, dropping every
    torn line and raising ``torn_recovered`` by their number."""
    if not os.path.exists(path):
        raise ArchiveCorruption(f"{spec.noun} does not exist", path=path)
    size = os.path.getsize(path)
    contents = read(path, spec, "compact")
    if contents is None:
        raise ArchiveCorruption(f"{spec.noun} is empty", path=path)
    kept = spec.keep(contents.records)
    rewrite(path, spec, contents, kept)
    return Compaction(contents, kept, size, os.path.getsize(path))
