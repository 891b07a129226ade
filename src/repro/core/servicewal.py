"""Durable study queue: the sweep service's write-ahead log.

The service coordinator (:mod:`repro.core.service`) promises that a
SIGKILL at *any* instant loses no submitted study and double-counts no
setup.  That promise is only as good as its persistence layer, so every
queue state transition is appended here **before** it is acted on:

``submit``
    a client's study entered the queue (``{"study", "spec"}``);
``lease``
    one setup was leased to an agent
    (``{"study", "index", "attempt", "agent"}``);
``requeue``
    a lease was released without a result — expiry, agent loss, or an
    injected fault — and the setup went back to the queue **at the same
    attempt** (``{"study", "index", "attempt", "reason"}``);
``complete``
    a setup reached a final measurement
    (``{"study", "index"}``);
``done``
    the study finished and its result document was published
    (``{"study", "report_sha256"}``).

On restart, :meth:`ServiceWAL.load` replays the log: studies with a
``done`` record are served from their result documents, everything else
re-enters the queue.  Outstanding leases are *not* resurrected — a
lease is a promise by the dead coordinator, and the new one simply
re-dispatches (the content-addressed store makes the re-run free for
every setup that already completed, which is what keeps the recovered
report byte-identical to an uninterrupted run).

File format: a :mod:`repro.core.checklog` log like the checkpoint
journal — a plain-JSON header carrying :data:`WAL_FORMAT`, then one
checksummed ``{"kind", "data", "sha256"}`` record per line — so its
durable appends (fsynced before :meth:`ServiceWAL.append` returns),
torn-tail recovery, verified compaction and fsck audit are the
journal's own: a torn tail from a crash mid-append is detected by its
checksum, dropped, counted in the header, and rewritten away.

Chaos: the ``coordinator_crash`` fault kind fires *after* a record's
durable append and SIGKILLs the process — the WAL's whole recovery
story, exercised deterministically.  The per-record attempt for the
draw counts how many times that exact record content has ever been
appended (replayed from the log itself), so a transient crash clears
when the restarted coordinator re-appends the same transition.
"""

from __future__ import annotations

import collections
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro import faults
from repro.core import checklog

#: WAL header marker (first line of the file); the fsck classifier and
#: :func:`compact_wal` both key on it.
WAL_FORMAT = "repro-service-wal-v1"

#: Every record kind a service WAL may carry, in lifecycle order.
WAL_KINDS = ("submit", "lease", "requeue", "complete", "done")


@dataclass
class StudyRecord:
    """Replayed queue state for one submitted study."""

    study: str
    spec: Dict
    done: bool = False
    report_sha256: str = ""
    #: Setup indices with a ``complete`` record (informational — the
    #: store, not this set, is what makes re-runs free).
    completed: Set[int] = field(default_factory=set)
    leases: int = 0
    requeues: int = 0


@dataclass
class WalState:
    """Everything :meth:`ServiceWAL.load` recovered from disk."""

    #: Studies in first-submission order (the restart re-enqueue order).
    studies: "collections.OrderedDict[str, StudyRecord]"
    #: Record counts by kind — the chaos-soak tests assert on these
    #: (every requested setup completes exactly once, ever).
    counts: Dict[str, int]
    #: Torn/corrupt lines dropped during this load.
    torn_dropped: int

    def pending(self) -> List[StudyRecord]:
        """Studies that still need to run, in submission order."""
        return [rec for rec in self.studies.values() if not rec.done]


class ServiceWAL:
    """Append-only, checksummed, crash-recoverable study queue log.

    Thread-safe: the coordinator appends from both its HTTP thread
    (submissions) and its study-executor thread (leases, completions),
    serialized by one lock.  Every append is durable before it returns,
    and every append is a *prefix* property — replay never needs the
    tail to make sense of the head, so a torn final line costs exactly
    one transition, which the at-least-once dispatch re-derives.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = None
        self._lock = threading.Lock()
        #: Torn lines dropped across the file's lifetime (header field).
        self.recovered_torn = 0
        #: How many times each exact record content has been appended —
        #: the durable attempt dimension for ``coordinator_crash`` draws.
        self._appends: "collections.Counter[str]" = collections.Counter()

    # -- reading ----------------------------------------------------------

    def load(self) -> WalState:
        """Replay the log into queue state, dropping torn lines.

        Missing file = empty state (a fresh service).  A present file
        with a foreign or damaged header is refused loudly — silently
        treating someone else's file as an empty queue would *drop*
        studies, the exact failure this log exists to prevent.
        """
        state = WalState(
            studies=collections.OrderedDict(),
            counts={kind: 0 for kind in WAL_KINDS},
            torn_dropped=0,
        )
        contents = checklog.load(self.path, WAL_LOG)
        if contents is None:
            return state
        self.recovered_torn = contents.header["torn_recovered"]
        state.torn_dropped = contents.torn
        for rec in contents.records:
            self._appends[rec.sha256] += 1
            _apply(state, rec.kind, rec.data)
        return state

    # -- writing ----------------------------------------------------------

    def open_for_append(self, note: str = "") -> None:
        """Open (creating the header if the file is fresh)."""
        self._fh = checklog.open_append(
            self.path, WAL_LOG, note, self.recovered_torn, key=self.path
        )

    def append(self, kind: str, data: Dict) -> None:
        """Durably log one queue transition (fsynced before returning).

        After the record is durable, the ``coordinator_crash`` chaos
        kind draws on ``(kind, checksum(data))`` at the record's
        cumulative append count and — when it fires — SIGKILLs the
        process, exactly the power cut the recovery path must survive.
        """
        if kind not in WAL_KINDS:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        line, checksum = checklog.encode(data, kind=kind)
        with self._lock:
            assert self._fh is not None, "WAL not opened for append"
            checklog.append(
                self._fh, [checklog.Line(line, f"wal:{kind}")], path=self.path
            )
            self._appends[checksum] += 1
            attempt = self._appends[checksum]
        if faults.should_inject_at(
            "coordinator_crash", f"{kind}:{checksum}", attempt
        ):
            # Die the way a power cut would: no atexit, no flushing.
            os.kill(os.getpid(), signal.SIGKILL)

    def close(self) -> None:
        """Close the append handle (the file stays valid at any point)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# -- replay internals --------------------------------------------------------


def _apply(state: WalState, kind: str, data: Dict) -> None:
    """Fold one record into the replayed state (unknown kinds and
    records for unknown studies are skipped, forward-compatibly)."""
    if kind not in state.counts:
        return
    study = data.get("study")
    if not isinstance(study, str):
        return
    if kind == "submit":
        state.counts[kind] += 1
        spec = data.get("spec")
        if study not in state.studies and isinstance(spec, dict):
            state.studies[study] = StudyRecord(study=study, spec=spec)
        return
    rec = state.studies.get(study)
    if rec is None:
        return  # orphaned record (submit line lost to a tear): skip
    state.counts[kind] += 1
    if kind == "lease":
        rec.leases += 1
    elif kind == "requeue":
        rec.requeues += 1
    elif kind == "complete":
        index = data.get("index")
        if isinstance(index, int):
            rec.completed.add(index)
    elif kind == "done":
        rec.done = True
        rec.report_sha256 = str(data.get("report_sha256", ""))


# -- compaction --------------------------------------------------------------


def _replayable(rec: checklog.Record) -> bool:
    """Could compaction keep this record?  Never for lease and requeue
    records (resolved promises), unknown kinds or malformed records."""
    if not isinstance(rec.data.get("study"), str):
        return False
    if rec.kind == "complete":
        return isinstance(rec.data.get("index"), int)
    return rec.kind in ("submit", "done")


def _keep_replay(records: List[checklog.Record]) -> List[checklog.Record]:
    """The WAL's keep policy: per study in submission order, the first
    ``submit`` record, then its last ``done`` record or — while the
    study is unfinished — the latest ``complete`` record per index."""
    submits: Dict[str, checklog.Record] = {}
    dones: Dict[str, checklog.Record] = {}
    completes: Dict[str, Dict[int, checklog.Record]] = {}
    for rec in filter(_replayable, records):
        study = rec.data["study"]
        if rec.kind == "submit":
            submits.setdefault(study, rec)
        elif rec.kind == "done":
            dones[study] = rec
        else:
            completes.setdefault(study, {})[rec.data["index"]] = rec
    kept: List[checklog.Record] = []
    for study, submit in submits.items():
        by_index = completes.get(study, {})
        ends = [by_index[i] for i in sorted(by_index)]
        kept += [submit] + ([dones[study]] if study in dones else ends)
    return kept


#: The WAL as a :mod:`repro.core.checklog` log (fsck and compaction).
WAL_LOG = checklog.LogSpec(
    format=WAL_FORMAT,
    noun="service WAL",
    keep=_keep_replay,
    stale="lease/requeue records of past coordinator incarnations and "
    "completions subsumed by a done record",
)


@dataclass(frozen=True)
class WalCompactionStats:
    """What one :func:`compact_wal` pass did."""

    path: str
    bytes_before: int
    bytes_after: int
    records_before: int
    records_after: int
    stale_leases_dropped: int
    dropped_corrupt: int

    def summary_line(self) -> str:
        line = (
            f"compacted {self.path}: "
            f"{self.records_before} -> {self.records_after} records, "
            f"dropped {self.stale_leases_dropped} stale lease record(s), "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )
        if self.dropped_corrupt:
            line += f", dropped {self.dropped_corrupt} corrupt line(s)"
        return line


def compact_wal(path: str) -> WalCompactionStats:
    """Atomically rewrite a service WAL down to its replay-relevant
    content (the journal's verified compaction, reused).

    A long-lived queue log accumulates stale state: lease and requeue
    records are promises of a coordinator that has since resolved them,
    and a finished study's per-setup ``complete`` records are subsumed
    by its ``done`` record.  Compaction keeps, per study in submission
    order, the ``submit`` record, then either the ``done`` record or
    (for unfinished studies) the latest ``complete`` record per index —
    and drops every lease/requeue line and everything corrupt, bumping
    the header's ``torn_recovered`` by the corrupt lines dropped.

    Crash-safe and verified (:func:`repro.core.checklog.rewrite`): temp
    file, shim fsync, full re-read with every checksum re-verified, then
    an atomic rename; on any failure the original is left untouched.
    """
    done = checklog.compact(path, WAL_LOG)
    return WalCompactionStats(
        path=path,
        bytes_before=done.bytes_before,
        bytes_after=done.bytes_after,
        records_before=len(done.before.records),
        records_after=len(done.kept),
        stale_leases_dropped=sum(
            1 for r in done.before.records if not _replayable(r)
        ),
        dropped_corrupt=done.before.torn,
    )
