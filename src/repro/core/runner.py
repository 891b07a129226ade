"""Fault-tolerant sweep execution: parallel, retried, checkpointed.

The paper's remedy for measurement bias is *setup randomization* —
sample many experimental setups and report distributions — which makes
long many-setup sweeps the lab's hot path.  :class:`SweepRunner` turns
the serial, in-process :meth:`Experiment.sweep` into a production run:

- **parallel & supervised** — setups are measured across a
  :class:`~repro.core.supervisor.SupervisedPool` of long-lived worker
  processes (``jobs=N``) with heartbeat liveness tracking: a crashed
  worker (dead PID, broken pipe) or a hung one (missed-heartbeat past
  ``hang_timeout``) is detected, killed, and replaced within a bounded
  respawn budget, and its in-flight setup fails over to another worker
  *at the same attempt* — infrastructure failure never consumes a
  measurement's retry budget.  Result order is the *request* order,
  independent of completion order, so parallel and serial sweeps are
  byte-identical — even under injected worker crashes and hangs;
- **distributed** — with ``hosts`` set, the same event loop leases
  setups to remote agents over TCP through
  :class:`~repro.core.service.LeasePool`, the pool ``repro serve``
  uses, instead of local processes; both pools implement
  :class:`~repro.core.supervisor.DispatchPool`, so every supervision
  guarantee above (failover at the same attempt, bounded recovery,
  honest degradation, byte-identical reports) holds across machines
  exactly as it does across processes;
- **bounded** — every run is armed with the engine's cycle-budget
  watchdog (``max_cycles``) and a per-measurement wall-clock deadline
  (``timeout``), so a hung run becomes a :class:`RunTimeout`, not a
  hung sweep;
- **retried** — retryable faults (timeouts, transient corruption,
  verification flakes, injected compiler crashes) are re-attempted with
  seeded exponential backoff; setups that exhaust their retries are
  **quarantined** with their final error;
- **checkpointed** — every completed measurement is appended to an
  on-disk journal (format v2 records with per-record SHA-256 checksums)
  the moment it lands, so an interrupted sweep re-run with the same
  journal resumes with **zero re-measurement**; very large or
  much-resumed journals are compacted (:func:`compact_journal`) to one
  record per setup via an atomic, integrity-verified rewrite;
- **accounted** — the :class:`SweepReport` enumerates every requested
  setup as measured, resumed-from-journal, or quarantined; partial
  coverage is never silent (van der Kouwe et al.'s "benchmarking
  crimes" include silently dropped results).  If the pool exhausts its
  respawn budget, the remaining setups are finished serially in-process
  — through the same loop, on the
  :class:`~repro.core.supervisor.InlinePool` a ``jobs=1`` sweep runs on
  — and the report is marked **degraded**, naming each of them.

Fault injection (:mod:`repro.faults`) rides behind the substrate, so
every recovery path here is itself testable and deterministic —
including the supervision paths, via the process-level chaos kinds
(``worker_crash``, ``worker_hang``, ``journal_torn_write``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import faults, storageio, workloads
from repro._errors import (
    ArchiveCorruption,
    JournalWriteError,
    ReproError,
    RunTimeout,
    classify,
    is_retryable,
)
from repro.core.experiment import Experiment, Measurement
from repro.core.session import (
    FORMAT_V2,
    canonical_json,
    load_measurement_record,
    measurement_to_dict,
    record_checksum,
    setup_to_dict,
)
from repro.core.setup import ExperimentalSetup
from repro.core import checklog, supervisor
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace

#: Journal header marker: a v2 archive streamed as JSON Lines.
JOURNAL_FORMAT = FORMAT_V2 + "-journal"


# -- configuration ----------------------------------------------------------


def seeded_backoff(
    base: float,
    seed: int,
    key: str,
    attempt: int,
    cap: Optional[float] = None,
) -> float:
    """Seeded exponential backoff with deterministic jitter.

    The delay before (1-based) ``attempt`` is
    ``base * 2**(attempt-2) * (0.5 + U)`` where ``U`` is the
    deterministic :func:`repro.faults._uniform` draw on
    ``(seed, "backoff:attempt", key)`` — so two runs of the same faulted
    sweep (or two restarts of the same reconnecting agent) back off on
    exactly the same schedule, and the jitter still de-synchronizes
    *different* keys so a fleet never stampedes in lockstep.  The first
    attempt (and a non-positive ``base``) waits nothing; ``cap`` bounds
    the delay so an exponent never waits unboundedly long.

    This is the one backoff policy shared by measurement retries
    (:meth:`RunnerConfig.backoff_delay`), a ``--hosts`` roster redialing
    its lost agents (:class:`~repro.core.service.HostRoster`), and
    dial-in agents re-registering with a restarted service coordinator
    (:meth:`~repro.core.distributed.AgentServer.serve_connect`).
    """
    if attempt <= 1 or base <= 0:
        return 0.0
    jitter = 0.5 + faults._uniform(seed, f"backoff:{attempt}", key)
    delay = base * (2 ** (attempt - 2)) * jitter
    if cap is not None:
        delay = min(cap, delay)
    return delay


@dataclass(frozen=True)
class RunnerConfig:
    """Execution policy for one sweep.

    Attributes:
        jobs: worker processes; 1 runs serially in-process (reusing the
            experiment's memoized builds directly).
        timeout: wall-clock seconds allowed per measurement attempt
            (None: unlimited).
        max_cycles: simulated-cycle budget per run (None: unlimited);
            the engine's own watchdog enforces it.
        max_retries: re-attempts allowed *after* the first try of a
            retryable fault before the setup is quarantined.
        backoff_base: first retry delay in seconds; attempt *k* waits
            ``backoff_base * 2**(k-1)``, jittered.
        backoff_seed: seed for the deterministic backoff jitter.
        heartbeat_interval: seconds between worker heartbeat stamps
            (parallel mode only).
        hang_timeout: a busy worker whose heartbeat is staler than this
            is declared hung, killed, and its setup failed over.  None
            (the default) lets the supervised pool *adapt* the threshold
            to observed task durations — a clamped multiple of the
            rolling p95 (see
            :meth:`~repro.core.supervisor.SupervisedPool.effective_hang_timeout`).
            With ``hosts`` set it is the lease deadline: a setup leased
            to an agent longer than this (or to an agent silent that
            long) is requeued at the same attempt, and None adapts the
            deadline to observed lease durations the same way; each
            agent's local pool also receives it as its hang threshold.
        max_respawns: replacement workers the supervised pool may start
            before the sweep degrades to in-process execution; with
            ``hosts`` set it is also each lost agent's *redial* budget:
            the agent is dropped once this many dials in a row fail.
        journal_max_records: auto-compact the checkpoint journal after a
            completed sweep when it holds more than this many
            (measurement + aux) records; None disables.
        journal_max_bytes: likewise, by file size; None disables.
        hosts: ``"host1:port1,host2:port2"`` roster of remote sweep
            agents (``repro agent --listen``); when set the sweep is
            leased to them over TCP and ``jobs`` is ignored (each
            agent's capacity is its own ``--jobs``).  At-least-once: a
            setup whose lease expires, or that an idle agent steals,
            can run twice, and the first result wins.  None (the
            default) runs locally.
        connect_timeout: TCP connect + handshake deadline per agent
            connection attempt (distributed mode only).
        secret: shared secret for the agent hello handshake (distributed
            mode only); must match each agent's ``--secret`` /
            ``REPRO_AGENT_SECRET``.  None connects unauthenticated,
            which secret-requiring agents reject.
        trace_sample: keep per-setup trace spans for 1 in N setups
            (deterministic by setup fault key —
            :func:`repro.obs.perf.trace_sampled`); 1 (the default) keeps
            every span.  Sampling bounds trace volume on very large
            sweeps without touching measurements: canonical report JSON
            is byte-identical at any rate, and the rate is recorded in
            the manifest's runner section.
        timeline_interval: seconds between metrics-timeline samples when
            the sweep is given a timeline path (see
            :class:`~repro.obs.perf.TimelineRecorder`).
    """

    jobs: int = 1
    timeout: Optional[float] = None
    max_cycles: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_seed: int = 0
    heartbeat_interval: float = 0.2
    hang_timeout: Optional[float] = None
    max_respawns: int = 8
    journal_max_records: Optional[int] = None
    journal_max_bytes: Optional[int] = None
    hosts: Optional[str] = None
    connect_timeout: float = 10.0
    secret: Optional[str] = None
    trace_sample: int = 1
    timeline_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.hosts is not None:
            from repro.core import distributed

            distributed.parse_hosts(self.hosts)  # fail loudly, early
        if self.connect_timeout <= 0:
            raise ValueError("connect_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if (
            self.hang_timeout is not None
            and self.hang_timeout <= self.heartbeat_interval
        ):
            raise ValueError(
                "hang_timeout must exceed heartbeat_interval "
                f"({self.hang_timeout} <= {self.heartbeat_interval})"
            )
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        for name in ("journal_max_records", "journal_max_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None")
        if self.trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.timeline_interval <= 0:
            raise ValueError(
                f"timeline_interval must be > 0, got {self.timeline_interval}"
            )

    def backoff_delay(self, key: str, attempt: int) -> float:
        """Seeded exponential backoff before (1-based) ``attempt``.

        Deterministic in (seed, key, attempt) so two runs of the same
        faulted sweep retry on the same schedule.
        """
        return seeded_backoff(self.backoff_base, self.backoff_seed, key, attempt)


# -- accounting -------------------------------------------------------------


@dataclass(frozen=True)
class QuarantineEntry:
    """One setup that exhausted its retries (or failed fatally)."""

    index: int
    setup: str  # describe() string — human-facing, stable
    error_type: str
    message: str
    fate: str  # "retryable" (exhausted) | "fatal"
    attempts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "setup": self.setup,
            "error_type": self.error_type,
            "message": self.message,
            "fate": self.fate,
            "attempts": self.attempts,
        }


@dataclass
class SweepReport:
    """Full accounting of one sweep: every requested setup has a fate.

    ``measured + resumed + quarantined == requested`` always holds
    (asserted by :meth:`accounted`); ``statuses[i]`` names setup *i*'s
    fate so partial coverage is attributable, not just countable.
    """

    requested: int = 0
    measured: int = 0
    resumed: int = 0
    retries: int = 0
    quarantined: List[QuarantineEntry] = field(default_factory=list)
    statuses: List[str] = field(default_factory=list)
    #: Sweep-scoped metrics snapshot (deterministic event counters only —
    #: accounted in the parent process, so serial and parallel sweeps of
    #: the same plan snapshot identically; wall-clock metrics live in the
    #: provenance manifest instead).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: True when the sweep finished in a degraded mode — the supervised
    #: pool exhausted its respawn budget (``degraded_setups`` names each
    #: setup finished serially in-process) and/or the storage layer
    #: failed underneath the sweep (``degraded_storage`` names each
    #: durability loss: journal writes stopped, store writes
    #: disabled).  Never silent: the measurements are still complete and
    #: correct, but their persistence guarantees are not.
    degraded: bool = False
    degraded_setups: List[str] = field(default_factory=list)
    degraded_storage: List[str] = field(default_factory=list)

    def accounted(self) -> bool:
        return (
            self.measured + self.resumed + len(self.quarantined)
            == self.requested
            == len(self.statuses)
        )

    @property
    def complete(self) -> bool:
        """Every requested setup has a measurement."""
        return self.measured + self.resumed == self.requested

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requested": self.requested,
            "measured": self.measured,
            "resumed": self.resumed,
            "retries": self.retries,
            "quarantined": [q.to_dict() for q in self.quarantined],
            "statuses": list(self.statuses),
            "metrics": dict(self.metrics),
            "degraded": self.degraded,
            "degraded_setups": list(self.degraded_setups),
            "degraded_storage": list(self.degraded_storage),
        }

    def to_json(self) -> str:
        """Canonical serialization — byte-identical across runs of the
        same (setups, fault plan, config), whatever the completion
        order, which is what the determinism tests assert."""
        return canonical_json(self.to_dict())

    def summary_line(self) -> str:
        line = (
            f"sweep: {self.requested} requested = {self.measured} measured "
            f"+ {self.resumed} resumed + {len(self.quarantined)} quarantined "
            f"({self.retries} retries)"
        )
        for q in self.quarantined:
            line += (
                f"\n  QUARANTINED [{q.index}] {q.setup}: {q.error_type} "
                f"({q.fate}, {q.attempts} attempts): {q.message}"
            )
        if self.degraded_setups:
            line += (
                f"\n  DEGRADED: worker respawn budget exhausted; "
                f"{len(self.degraded_setups)} setup(s) finished serially "
                "in-process:"
            )
            for setup in self.degraded_setups:
                line += f"\n    {setup}"
        if self.degraded_storage:
            line += "\n  STORAGE DEGRADED:"
            for loss in self.degraded_storage:
                line += f"\n    {loss}"
        return line


@dataclass
class SweepResult:
    """Measurements in request order (None where quarantined) + report.

    Every measurement is decoded from its record form (a pool's result,
    a journal line or a store entry): equal to the experiment's cached
    run, not the same object."""

    measurements: List[Optional[Measurement]]
    report: SweepReport

    @property
    def ok(self) -> List[Measurement]:
        return [m for m in self.measurements if m is not None]


# -- checkpoint journal -----------------------------------------------------


def sweep_id(
    workload: str, size: str, seed: int, setups: Sequence[ExperimentalSetup]
) -> str:
    """Identity of a sweep: workload, input, and the full setup list.

    A journal records measurements *for one sweep*; resuming with a
    different setup list must be rejected, not silently misapplied.
    """
    payload = {
        "workload": workload,
        "size": size,
        "seed": seed,
        "setups": [setup_to_dict(s) for s in setups],
    }
    return record_checksum(payload)


class Journal:
    """Append-only JSONL checkpoint for one sweep.

    Line 1 is a header (format marker + sweep id); each further line is
    one measurement record — the v2 archive record schema (payload +
    per-record SHA-256) plus the setup's index in the sweep.  Records
    are flushed and fsynced as they land, so a killed sweep loses at
    most the record being written; a truncated trailing line is detected
    by its checksum and dropped on resume.  The format, its recovery and
    its compaction live in :mod:`repro.core.checklog`.
    """

    def __init__(self, path: str, sweep: str) -> None:
        self.path = path
        self.sweep = sweep
        self._fh = None  # type: Optional[Any]
        #: Auxiliary (non-measurement) records found by :meth:`load`,
        #: e.g. metrics snapshots appended at the end of each run.
        self.aux: List[Dict] = []
        #: Cumulative count of torn/corrupt lines this journal has ever
        #: dropped, persisted in the header across rewrites.  Also the
        #: attempt dimension for ``journal_torn_write`` fault draws, so
        #: a *transient* injected tear stops re-firing once recovered.
        self.recovered_torn = 0

    # -- reading ----------------------------------------------------------

    def load(self) -> Dict[int, Dict]:
        """Measurement dicts by sweep index from an existing journal.

        Returns {} when the journal does not exist yet.  Raises
        :class:`ArchiveCorruption` when the journal belongs to a
        different sweep or its header is damaged; a corrupt *record*
        (torn final write) is dropped and the file rewritten without it
        (:func:`repro.core.checklog.load`).
        """
        contents = checklog.load(self.path, JOURNAL_LOG, self._check_sweep)
        if contents is None:
            return {}
        self.recovered_torn = contents.header["torn_recovered"]
        self.aux = [
            {"kind": r.kind, "data": r.data}
            for r in contents.records
            if r.index is None
        ]
        return {
            r.index: r.data for r in contents.records if r.index is not None
        }

    def _check_sweep(self, header: Dict) -> None:
        if header.get("sweep") != self.sweep:
            raise ArchiveCorruption(
                "journal belongs to a different sweep (workload/input/"
                "setup list changed); refusing to resume from it",
                path=self.path,
            )

    # -- writing ----------------------------------------------------------

    def open_for_append(self, note: str = "") -> None:
        self._fh = checklog.open_append(
            self.path, JOURNAL_LOG, note, self.recovered_torn, sweep=self.sweep
        )

    def append(
        self, index: int, data: Dict, fault_key: Optional[str] = None
    ) -> None:
        """Journal one completed measurement (durable before returning).

        ``fault_key`` opts the append into storage fault injection:

        - ``journal_torn_write`` — half the record reaches disk and
          :class:`~repro.faults.TornWrite` unwinds the sweep, exactly
          what a crash mid-append does;
        - ``journal_torn_tail`` — a truncated line lands *silently*
          (flushed, never fsynced — a power cut after the page-cache
          write) and the sweep continues believing the record durable;
        - ``disk_full`` — the write fails with a deterministic ENOSPC
          before any bytes land, surfaced as
          :class:`~repro._errors.JournalWriteError`.

        Both tear kinds draw on the journal's cumulative recovery count,
        so a transient tear fires once and clears on the resumed run.
        """
        assert self._fh is not None, "journal not opened for append"
        line, _ = checklog.encode(data, index=index)
        if fault_key is not None and faults.should_inject_at(
            "journal_torn_write", fault_key, self.recovered_torn + 1
        ):
            self._fh.write(line[: len(line) // 2])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise faults.TornWrite(
                f"injected torn journal write at setup {index}"
            )
        if fault_key is not None and storageio.torn_tail_fires(
            fault_key, self.recovered_torn + 1
        ):
            # Truncated line, flushed but never synced: the record is
            # lost to a later crash, and nothing tells the sweep so.
            self._fh.write(line[: len(line) // 2] + "\n")
            self._fh.flush()
            return
        checklog.append_line(
            self._fh, line, path=self.path, key=fault_key, record=index
        )

    def append_aux(self, kind: str, data: Dict) -> None:
        """Journal a checksummed non-measurement record (e.g. the
        sweep's closing metrics snapshot).  Aux records are preserved
        across resumes and ignored by measurement loading."""
        assert self._fh is not None, "journal not opened for append"
        line, _ = checklog.encode(data, kind=kind)
        checklog.append_line(self._fh, line, path=self.path)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ResilientJournal:
    """Journal facade that degrades instead of crashing the sweep.

    Wraps a :class:`Journal`; the first
    :class:`~repro._errors.JournalWriteError` (ENOSPC, I/O error —
    injected or real) stops journalling for the rest of the sweep and
    reports the loss once via ``on_degrade`` — the same rule as the
    service's queue WAL.  Measurements keep landing; only their
    durability is gone.  :class:`TornWrite` is *not* caught — an
    injected crash must unwind the sweep exactly like a real one.
    """

    def __init__(
        self,
        journal: Journal,
        on_degrade: Optional[Callable[[JournalWriteError], None]] = None,
    ) -> None:
        self._disk = journal
        self._on_degrade = on_degrade
        #: The write error that stopped journalling, or None.
        self.failure: Optional[JournalWriteError] = None

    # Delegated identity: callers treat this exactly like a Journal.
    @property
    def path(self) -> str:
        """The on-disk journal path (even after a write failure)."""
        return self._disk.path

    @property
    def sweep(self) -> str:
        """The sweep id the journal belongs to."""
        return self._disk.sweep

    @property
    def recovered_torn(self) -> int:
        """Torn lines dropped when the journal was last loaded."""
        return self._disk.recovered_torn

    @property
    def aux(self) -> List[Dict]:
        """Auxiliary records parsed from the on-disk journal."""
        return self._disk.aux

    @property
    def degraded(self) -> bool:
        """Has a write failure stopped journalling?"""
        return self.failure is not None

    def load(self) -> Dict[int, Dict]:
        """Load prior records from disk (resume path; never degraded)."""
        return self._disk.load()

    def open_for_append(self, note: str = "") -> None:
        """Open the disk journal; a write failure stops journalling."""
        self._write(self._disk.open_for_append, note=note)

    def append(
        self, index: int, data: Dict, fault_key: Optional[str] = None
    ) -> None:
        """Append a record unless a write failure stopped journalling."""
        self._write(self._disk.append, index, data, fault_key=fault_key)

    def append_aux(self, kind: str, data: Dict) -> None:
        """Append an aux record unless journalling stopped."""
        self._write(self._disk.append_aux, kind, data)

    def close(self) -> None:
        """Close the disk journal, swallowing late I/O errors."""
        try:
            self._disk.close()
        except OSError:
            pass

    def _write(self, write: Callable[..., None], *args, **kwargs) -> None:
        if self.failure is not None:
            return
        try:
            write(*args, **kwargs)
        except JournalWriteError as exc:
            self._degrade(exc)

    def _degrade(self, exc: JournalWriteError) -> None:
        self.failure = exc
        self.close()
        obs_metrics.counter("storage.journal_fallbacks").inc()
        obs_trace.instant(
            "journal_degraded",
            category="runner",
            path=self._disk.path,
            record=exc.record,
        )
        if self._on_degrade is not None:
            self._on_degrade(exc)


# -- journal compaction -----------------------------------------------------


@dataclass(frozen=True)
class CompactionStats:
    """What one :func:`compact_journal` pass did."""

    path: str
    bytes_before: int
    bytes_after: int
    records_before: int
    records_after: int
    aux_before: int
    aux_after: int
    dropped_corrupt: int

    def summary_line(self) -> str:
        line = (
            f"compacted {self.path}: "
            f"{self.records_before} -> {self.records_after} records, "
            f"{self.aux_before} -> {self.aux_after} aux, "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )
        if self.dropped_corrupt:
            line += f", dropped {self.dropped_corrupt} corrupt line(s)"
        return line


def journal_needs_compaction(
    path: str,
    max_records: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> bool:
    """Does the journal at ``path`` exceed either growth threshold?"""
    if not os.path.exists(path):
        return False
    if max_bytes is not None and os.path.getsize(path) > max_bytes:
        return True
    if max_records is not None:
        with open(path) as fh:
            lines = sum(1 for line in fh if line.strip())
        return lines - 1 > max_records  # header excluded
    return False


def _keep_latest(records: List[checklog.Record]) -> List[checklog.Record]:
    """The journal's keep policy: the latest record per setup index (by
    index), then the latest aux record per kind (by kind)."""
    latest = {r.index: r for r in records if r.index is not None}
    aux = {r.kind: r for r in records if r.index is None}
    return [latest[i] for i in sorted(latest)] + [aux[k] for k in sorted(aux)]


#: The journal as a :mod:`repro.core.checklog` log.
JOURNAL_LOG = checklog.LogSpec(
    format=JOURNAL_FORMAT,
    noun="journal",
    keep=_keep_latest,
    stale="superseded duplicates from earlier resumed runs",
    indexed=True,
)


def compact_journal(path: str) -> CompactionStats:
    """Atomically rewrite a journal down to its resume-relevant content.

    A much-resumed (or fault-ridden) journal accumulates stale lines:
    one metrics aux record per completed run, superseded duplicates,
    torn fragments.  Compaction keeps the **latest** valid measurement
    record per setup index (sorted by index) and the latest aux record
    per kind, drops everything corrupt, and bumps the header's
    ``torn_recovered`` count by the lines dropped.

    The rewrite is crash-safe and verified: the compacted journal is
    written to a temp file, fsynced, re-read with every checksum
    re-verified, and only then renamed over the original.  On any
    failure the original journal is left untouched (a typed error).
    """
    done = checklog.compact(path, JOURNAL_LOG)
    before = done.before.records
    records_before = sum(1 for r in before if r.index is not None)
    records_after = sum(1 for r in done.kept if r.index is not None)
    return CompactionStats(
        path=path,
        bytes_before=done.bytes_before,
        bytes_after=done.bytes_after,
        records_before=records_before,
        records_after=records_after,
        aux_before=len(before) - records_before,
        aux_after=len(done.kept) - records_after,
        dropped_corrupt=done.before.torn,
    )


# -- worker side ------------------------------------------------------------

_WORKER_EXPERIMENTS: Dict[Tuple[str, str, int, bool], Experiment] = {}

# A forked worker starts with an empty cache: a run its parent cached
# in-process (a degraded agent, say) would skip that run's fault draws.
os.register_at_fork(after_in_child=lambda: _WORKER_EXPERIMENTS.clear())


def _worker_experiment(
    workload: str, size: str, seed: int, verify: bool
) -> Experiment:
    key = (workload, size, seed, verify)
    exp = _WORKER_EXPERIMENTS.get(key)
    if exp is None:
        exp = Experiment(workloads.get(workload), size=size, seed=seed, verify=verify)
        _WORKER_EXPERIMENTS[key] = exp
    return exp


@contextmanager
def _wall_clock_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Arm a SIGALRM-based deadline raising :class:`RunTimeout`.

    Only effective on the main thread of a process with SIGALRM (i.e.
    POSIX) — exactly where sweep measurement runs; elsewhere it is a
    no-op and the cycle-budget watchdog remains the backstop.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"wall-clock timeout after {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _error_info(exc: BaseException) -> Dict[str, Any]:
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "fate": classify(exc),
        "retryable": is_retryable(exc),
    }


def _measure_task(
    payload: Tuple,
    exp: Optional[Experiment] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple:
    """One measurement attempt, on ``exp`` (default: this process's
    cached experiment for the payload's workload), after backing off
    through ``sleep``.

    Returns ``("ok", index, attempt, measurement_dict)`` or
    ``("err", index, attempt, error_info)`` — exceptions never cross the
    process boundary raw, so the parent's accounting is uniform.
    """
    (index, workload, size, seed, setup, verify, attempt, timeout,
     max_cycles, delay) = payload
    if delay > 0:
        sleep(delay)
    if exp is None:
        exp = _worker_experiment(workload, size, seed, verify)
    key = faults.fault_key(workload, size, seed, setup)
    faults.begin_attempt(key, attempt)
    try:
        with _wall_clock_deadline(timeout):
            m = exp.run(setup, max_cycles=max_cycles)
        return ("ok", index, attempt, measurement_to_dict(m))
    except Exception as exc:  # noqa: BLE001 — classified, not swallowed
        return ("err", index, attempt, _error_info(exc))


# -- the runner -------------------------------------------------------------

#: Counter and trace-instant names of an executor event, by kind and by
#: whether the executor is a remote agent.
_EXECUTOR_EVENTS = {
    ("crash", False): ("supervisor.worker_crashes", "worker_crash"),
    ("crash", True): ("distributed.agent_losses", "agent_crash"),
    ("hang", False): ("supervisor.worker_hangs", "worker_hang"),
    ("hang", True): ("distributed.agent_partitions", "agent_hang"),
    ("respawn", False): ("supervisor.respawns", "worker_respawn"),
    ("respawn", True): ("distributed.reconnects", "agent_reconnect"),
}


class SweepRunner:
    """Fault-tolerant executor for one experiment's setup sweep.

    Args:
        experiment: the measurement harness (workload/input identity is
            taken from it; with ``jobs=1`` its memoized caches are used
            directly, and in every mode its run cache is primed with the
            sweep's results, so downstream serial analysis re-measures
            nothing).
        config: execution policy (parallelism, deadlines, retry budget).
        journal_path: append-only checkpoint; pass the same path again
            to resume an interrupted sweep with zero re-measurement.
        fault_plan: optional deterministic fault injection, installed in
            workers (and scoped around serial sweeps).
        progress: per-setup event sink
            (:class:`~repro.obs.progress.ProgressReporter`); default is
            the no-op reporter, so long sweeps are only as chatty as the
            caller asks for.  Measured/retried/quarantined events are
            emitted the moment they happen, in the parent process.
        timeline_path: when set, a :class:`~repro.obs.perf.TimelineRecorder`
            streams periodic sweep-health samples (progress, throughput,
            worker utilisation, store hits) to this JSONL file for the
            sweep's duration, at ``config.timeline_interval`` seconds per
            sample — wall-clock telemetry beside the journal, rendered by
            ``repro obs timeline``, never part of the report.
        store: optional content-addressed measurement store
            (:class:`repro.store.MeasurementStore`).  Before dispatching,
            every setup is probed against the store; hits skip execution
            entirely — locally *and* remotely: probing happens before the
            worker/agent pool is even created, so agents are never asked
            for work the store already holds — while the report, journal
            records, and statuses stay byte-identical to a cold run.
            Fresh measurements (and journal-resumed ones) are published
            back, and the experiment's build cache is backed by the
            store's artifact side.
        sleep: backoff sleeper for in-process measurement (injectable
            for tests).
    """

    def __init__(
        self,
        experiment: Experiment,
        config: Optional[RunnerConfig] = None,
        journal_path: Optional[str] = None,
        fault_plan: Optional[faults.FaultPlan] = None,
        progress: Optional[obs_progress.ProgressReporter] = None,
        timeline_path: Optional[str] = None,
        store=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.experiment = experiment
        self.config = config or RunnerConfig()
        self.journal_path = journal_path
        self.fault_plan = fault_plan
        self.progress = progress or obs_progress.NULL_PROGRESS
        self.timeline_path = timeline_path
        self.store = store
        if store is not None:
            experiment.attach_store(store)
        self._sleep = sleep
        #: The pool currently dispatching; read by the timeline sampler
        #: for utilisation, never mutated through here.
        self._active_pool: Optional[supervisor.DispatchPool] = None
        #: The agents of the last ``hosts`` run (a HostRoster), if any.
        self._roster = None

    @property
    def hosts_served(self) -> List[Dict[str, Any]]:
        """Per-host provenance from the last distributed run (one dict
        per agent address: hostname, pid, agent version, jobs, sessions,
        results accepted); empty for local runs.  Feeds the manifest."""
        return [] if self._roster is None else self._roster.hosts_info()

    # -- public API -------------------------------------------------------

    def run(self, setups: Sequence[ExperimentalSetup]) -> SweepResult:
        """Measure every setup; never raises for per-setup faults.

        Fatal faults and exhausted retries quarantine the setup; the
        report accounts for 100% of requests.  Raises only for harness
        misuse (e.g. a journal from a different sweep).
        """
        setups = list(setups)
        exp = self.experiment
        report = SweepReport(requested=len(setups))
        results: List[Optional[Measurement]] = [None] * len(setups)
        sid = sweep_id(exp.workload.name, exp.size, exp.seed, setups)
        # Sweep-scoped metrics, accounted in the *parent* process by the
        # one dispatch loop — so a serial and a parallel sweep of the
        # same plan snapshot identically (the report-determinism tests
        # compare to_json() bytes).
        mreg = obs_metrics.MetricsRegistry()

        with obs_trace.span(
            "sweep",
            category="runner",
            workload=exp.workload.name,
            size=exp.size,
            setups=len(setups),
            jobs=self.config.jobs,
        ) as sweep_span, faults.injected_faults(
            # Scoped here (not per-path) so parent-side journal appends
            # see the plan too — journal_torn_write fires identically in
            # serial and parallel sweeps.
            self.fault_plan if self.fault_plan is not None else faults.active()
        ):
            def _journal_degraded(exc: JournalWriteError) -> None:
                # Loud, attributed, and in the report: the sweep keeps
                # measuring, but resume durability is gone from here on.
                report.degraded = True
                report.degraded_storage.append(
                    f"journal fell back to memory: {exc}"
                )
                self.progress.worker_event(
                    "degraded",
                    -1,
                    detail=(
                        "journal write failed; continuing without a "
                        f"journal: {exc}"
                    ),
                )

            journal: Optional[ResilientJournal] = None
            resumed_indices: set = set()
            if self.journal_path is not None:
                journal = ResilientJournal(
                    Journal(self.journal_path, sid),
                    on_degrade=_journal_degraded,
                )
                for index, data in journal.load().items():
                    if 0 <= index < len(setups) and results[index] is None:
                        m = load_measurement_record(
                            data, path=journal.path, record=index
                        )
                        # Re-anchor on the caller's setup object: identical
                        # by construction (the sweep id pins the setup list)
                        # and equality-compatible with the run cache.
                        results[index] = replace(m, setup=setups[index])
                        resumed_indices.add(index)
                        report.resumed += 1
                        mreg.counter("sweep.setups_resumed").inc()
                journal.open_for_append(note=f"sweep of {len(setups)} setups")

            self.progress.sweep_started(
                len(setups), report.resumed, sweep=sid[:12]
            )
            timeline: Optional[obs_perf.TimelineRecorder] = None
            if self.timeline_path is not None:
                timeline = obs_perf.TimelineRecorder(
                    self.timeline_path,
                    interval=self.config.timeline_interval,
                )
                timeline.start(self._timeline_sampler(report, mreg))
            if self.store is not None:
                self._probe_store(setups, results, report, journal, mreg)
            pending = [i for i in range(len(setups)) if results[i] is None]
            try:
                if pending:
                    self._dispatch(
                        setups, pending, results, report, journal, mreg,
                        sweep_span,
                    )
                report.metrics = mreg.counters()
                if journal is not None:
                    journal.append_aux(
                        "metrics",
                        {"sweep": sid, "snapshot": mreg.snapshot()},
                    )
            finally:
                if timeline is not None:
                    timeline.stop()
                if journal is not None:
                    journal.close()

            if self.store is not None and getattr(
                self.store, "write_disabled", False
            ):
                report.degraded = True
                report.degraded_storage.append(
                    "store writes disabled for this sweep: "
                    + self.store.disabled_reason
                )

            if journal is not None and not journal.degraded and (
                journal_needs_compaction(
                    journal.path,
                    self.config.journal_max_records,
                    self.config.journal_max_bytes,
                )
            ):
                try:
                    stats = compact_journal(journal.path)
                except ReproError as exc:
                    # The uncompacted journal is still valid and resumes
                    # with zero re-measurement; only its hygiene failed.
                    report.degraded = True
                    report.degraded_storage.append(
                        f"journal compaction failed; kept the uncompacted "
                        f"journal: {exc}"
                    )
                else:
                    obs_trace.instant(
                        "journal_compacted",
                        category="runner",
                        records=stats.records_after,
                        bytes=stats.bytes_after,
                    )

            report.statuses = [
                "resumed"
                if i in resumed_indices
                else ("quarantined" if m is None else "measured")
                for i, m in enumerate(results)
            ]
            sweep_span.set(
                measured=report.measured,
                resumed=report.resumed,
                quarantined=len(report.quarantined),
                retries=report.retries,
            )
        exp.prime(results)
        assert report.accounted(), "sweep accounting is incomplete"
        self.progress.sweep_finished(report)
        return SweepResult(measurements=results, report=report)

    # -- metrics timeline -------------------------------------------------

    def _timeline_sampler(
        self, report: SweepReport, mreg: obs_metrics.MetricsRegistry
    ) -> Callable[[], Dict[str, Any]]:
        """Build the periodic health sample the timeline thread takes.

        Reads shared state (sweep-scoped counters, the live pool, store
        tallies) without locks: every field is a monotonic int updated
        under the GIL, and a sample that is one event stale is still a
        correct point on the timeline.
        """
        store = self.store

        def sample() -> Dict[str, Any]:
            counters = mreg.counters()
            measured = counters.get("sweep.setups_measured", 0)
            quarantined = counters.get("sweep.setups_quarantined", 0)
            record: Dict[str, Any] = {
                "requested": report.requested,
                "measured": measured,
                "resumed": report.resumed,
                "quarantined": quarantined,
                "retries": counters.get("sweep.retries", 0),
                "attempts": counters.get("sweep.attempts", 0),
                "pending": max(
                    0,
                    report.requested
                    - report.resumed
                    - measured
                    - quarantined,
                ),
            }
            pool = self._active_pool
            if pool is not None:
                record.update(pool.stats())
            else:
                # Before or after dispatch: the coordinator is the only
                # worker, busy exactly while setups remain.
                record["workers_alive"] = 1
                record["workers_busy"] = 1 if record["pending"] else 0
                record["queue_depth"] = 0
            if store is not None:
                record["store_hits"] = int(getattr(store, "hits", 0))
                record["store_misses"] = int(getattr(store, "misses", 0))
            return record

        return sample

    # -- store probing ----------------------------------------------------

    def _probe_store(
        self,
        setups: Sequence[ExperimentalSetup],
        results: List[Optional[Measurement]],
        report: SweepReport,
        journal: Optional[ResilientJournal],
        mreg: obs_metrics.MetricsRegistry,
    ) -> None:
        """Incremental scheduling: resolve every setup the store already
        holds before anything is dispatched.

        A hit is accounted *exactly* like a fresh measurement — statuses
        say ``measured``, the sweep-scoped counters advance by one
        attempt and one measured setup, and the journal receives the
        same canonical record a cold run would append — so a warm
        report is byte-identical to the cold one that seeded the store.
        ``store.*`` tallies go only to the global obs registry (manifest
        territory), never into the sweep-scoped registry snapshotted
        into the report.  Because probing precedes pool construction,
        a fully-warm sweep never spawns a worker or dials an agent.
        """
        exp = self.experiment
        store = self.store
        hits = 0
        for index, setup in enumerate(setups):
            if results[index] is not None:
                # Resumed from the journal: publish to the store so the
                # next run no longer needs this journal to go warm.
                store.put_measurement(exp, results[index])
                continue
            m = store.get_measurement(exp, setup)
            if m is None:
                continue
            # Re-anchor on the caller's setup object (equality-compatible
            # with the run cache), exactly as journal resume does.
            m = replace(m, setup=setup)
            results[index] = m
            hits += 1
            report.measured += 1
            mreg.counter("sweep.attempts").inc()
            mreg.counter("sweep.setups_measured").inc()
            if journal is not None:
                key = faults.fault_key(
                    exp.workload.name, exp.size, exp.seed, setup
                )
                journal.append(index, measurement_to_dict(m), fault_key=key)
            obs_trace.instant("store_hit", category="store", index=index)
            self.progress.setup_finished(
                index, setup.describe(), "measured", attempts=1
            )
        if hits:
            self.progress.store_hits(hits, len(setups))

    # -- dispatch ---------------------------------------------------------

    def _dispatch(
        self,
        setups: Sequence[ExperimentalSetup],
        pending: List[int],
        results: List[Optional[Measurement]],
        report: SweepReport,
        journal: Optional[ResilientJournal],
        mreg: obs_metrics.MetricsRegistry,
        sweep_span: Optional[obs_trace.Span] = None,
    ) -> None:
        """The one sweep loop: every pending setup goes through one
        dispatch pool (in-process, worker processes or agents) and every
        outcome is accounted here, whichever pool produced it."""
        cfg = self.config
        exp = self.experiment
        wl, size, seed, verify = (
            exp.workload.name,
            exp.size,
            exp.seed,
            exp.verify,
        )
        tracer = obs_trace.active()

        def key_of(index: int) -> str:
            return faults.fault_key(wl, size, seed, setups[index])

        def make_task(index: int, attempt: int) -> supervisor.Task:
            key = key_of(index)
            payload = (
                index, wl, size, seed, setups[index], verify, attempt,
                cfg.timeout, cfg.max_cycles,
                cfg.backoff_delay(key, attempt),
            )
            return supervisor.Task(
                index=index, key=key, attempt=attempt, payload=payload
            )

        pool = self._make_pool(len(pending), tracer.enabled)
        self._active_pool = pool
        outstanding = set(pending)
        # In-flight attempt per still-outstanding setup: a degraded pool's
        # setups resume at it in-process, so failover never re-runs or
        # double-counts a retry.
        attempts_now: Dict[int, int] = {i: 1 for i in pending}
        seen: set = set()  # (index, attempt) outcomes already handled
        try:
            for index in pending:
                pool.submit(make_task(index, 1))
            while outstanding:
                event = pool.poll()
                if event is None or event.kind == "degraded":
                    # Respawn (or reconnection) budget exhausted: degrade
                    # honestly — name every setup the pool failed to
                    # measure and finish them in-process, never publish
                    # a silent partial table.
                    pool.close()
                    remaining = sorted(outstanding)
                    report.degraded = True
                    report.degraded_setups = [
                        setups[i].describe() for i in remaining
                    ]
                    obs_metrics.counter("supervisor.degraded_sweeps").inc()
                    obs_trace.instant(
                        "degraded",
                        category="supervisor",
                        remaining=len(remaining),
                    )
                    self.progress.worker_event(
                        "degraded",
                        -1,
                        detail=(
                            f"finishing {len(remaining)} setup(s) serially "
                            "in-process"
                        ),
                    )
                    pool = self._active_pool = self._inline_pool()
                    for index in remaining:
                        pool.submit(make_task(index, attempts_now[index]))
                    continue
                if event.kind in ("crash", "hang", "respawn"):
                    self._executor_event(event)
                    continue
                kind, index, attempt, data = event.result
                if index not in outstanding or (index, attempt) in seen:
                    continue  # salvaged duplicate after failover
                seen.add((index, attempt))
                # Attempts are counted as outcomes arrive: a crashed
                # dispatch yields no outcome and is re-dispatched at the
                # same attempt, so the counter counts measurement
                # attempts, never dispatches.
                mreg.counter("sweep.attempts").inc()
                if event.records and obs_perf.trace_sampled(
                    key_of(index), cfg.trace_sample
                ):
                    # Remote spans are re-rooted under a host-qualified
                    # alias so one trace tells which machine measured
                    # which setup attempt.  An unsampled setup's records
                    # are dropped here — the same deterministic draw as
                    # the in-process pool's setup spans, so every pool
                    # keeps the same span set.
                    alias = f"setup@{index}.{attempt}"
                    if event.label:
                        alias = f"{event.label}/{alias}"
                    tracer.graft(
                        event.records, parent=sweep_span, alias=alias
                    )
                if kind == "ok":
                    m = load_measurement_record(data, record=index)
                    m = replace(m, setup=setups[index])
                    results[index] = m
                    report.measured += 1
                    mreg.counter("sweep.setups_measured").inc()
                    if journal is not None:
                        journal.append(index, data, fault_key=key_of(index))
                    if self.store is not None:
                        self.store.put_measurement(exp, m)
                    obs_trace.instant(
                        "measured", category="runner", index=index
                    )
                    self.progress.setup_finished(
                        index,
                        setups[index].describe(),
                        "measured",
                        attempts=attempt,
                    )
                    outstanding.discard(index)
                    attempts_now.pop(index, None)
                    continue
                if data["retryable"] and attempt <= cfg.max_retries:
                    report.retries += 1
                    mreg.counter("sweep.retries").inc()
                    self.progress.retry(
                        index,
                        setups[index].describe(),
                        attempt,
                        data["error_type"],
                        data["message"],
                    )
                    attempts_now[index] = attempt + 1
                    pool.submit(make_task(index, attempt + 1))
                    continue
                entry = QuarantineEntry(
                    index=index,
                    setup=setups[index].describe(),
                    error_type=data["error_type"],
                    message=data["message"],
                    fate=data["fate"],
                    attempts=attempt,
                )
                report.quarantined.append(entry)
                mreg.counter("sweep.setups_quarantined").inc()
                obs_trace.instant(
                    "quarantined", category="runner", index=index
                )
                self.progress.quarantined(
                    index,
                    entry.setup,
                    entry.error_type,
                    entry.fate,
                    entry.attempts,
                    entry.message,
                )
                outstanding.discard(index)
                attempts_now.pop(index, None)
        finally:
            self._active_pool = None
            pool.close()
            if self._roster is not None:
                self._roster.close()
        report.quarantined.sort(key=lambda q: q.index)

    def _make_pool(
        self, pending_count: int, tracing: bool
    ) -> supervisor.DispatchPool:
        """The in-process pool for ``jobs=1``, a local worker pool, or,
        when ``hosts`` is set, a lease pool over the dialed roster — the
        loop above drives each through the shared
        :class:`~repro.core.supervisor.DispatchPool` interface."""
        cfg = self.config
        if cfg.hosts:
            from repro.core import distributed, service

            plan = faults.active()
            self._roster = service.HostRoster(
                distributed.parse_hosts(cfg.hosts),
                distributed.build_hello(
                    plan,
                    heartbeat_interval=cfg.heartbeat_interval,
                    hang_timeout=cfg.hang_timeout,
                    max_respawns=cfg.max_respawns,
                    tracing=tracing,
                ),
                secret=cfg.secret,
                connect_timeout=cfg.connect_timeout,
                max_redials=cfg.max_respawns,
                backoff_seed=cfg.backoff_seed,
            )
            # No grace: the roster's redial budget bounds the wait for
            # an agent, and a roster with none left degrades at once.
            return service.LeasePool(
                self._roster,
                fault_plan=plan,
                lease_timeout=cfg.hang_timeout,
                heartbeat_interval=cfg.heartbeat_interval,
                agentless_grace=float("inf"),
            )
        if cfg.jobs == 1:
            return self._inline_pool()
        return supervisor.SupervisedPool(
            workers=min(cfg.jobs, max(1, pending_count)),
            task_fn=_measure_task,
            fault_plan=faults.active(),
            heartbeat_interval=cfg.heartbeat_interval,
            hang_timeout=cfg.hang_timeout,
            max_respawns=cfg.max_respawns,
            tracing=tracing,
        )

    def _inline_pool(self) -> supervisor.InlinePool:
        """The calling thread as the one executor.  Each attempt measures
        on the caller's experiment (its builds, run cache and store),
        backs off through the injected sleeper, and opens its own
        sampled ``setup`` span under the sweep span."""
        cfg, exp = self.config, self.experiment

        def measure(payload: Tuple) -> Tuple:
            index, workload, size, seed, setup, _, attempt = payload[:7]
            key = faults.fault_key(workload, size, seed, setup)
            # Unsampled setups measure identically, they just open no
            # span; the draw is by fault key, so every pool keeps the
            # same span set.
            span_cm = obs_trace.NULL_SPAN
            if obs_perf.trace_sampled(key, cfg.trace_sample):
                span_cm = obs_trace.span(
                    "setup", category="runner", index=index,
                    setup=setup.describe(), attempt=attempt,
                )
            with span_cm as setup_span:
                outcome = _measure_task(payload, exp, self._sleep)
                setup_span.set(
                    status="measured" if outcome[0] == "ok" else "failed"
                )
            return outcome

        return supervisor.InlinePool(measure)

    def _executor_event(self, event: supervisor.PoolEvent) -> None:
        """Account a failed or replaced executor: a local worker, or a
        remote agent when the event carries the agent's label."""
        remote = bool(event.label)
        counter, instant = _EXECUTOR_EVENTS[event.kind, remote]
        obs_metrics.counter(counter).inc()
        # A local worker hands back at most one task; a lost agent every
        # in-flight task it was serving; a replacement none.
        indices: List[int] = sorted(t.index for t in event.tasks)
        index = indices[0] if indices else None
        args: Dict[str, Any] = {"worker": event.worker}
        if event.kind != "respawn":
            args["index"] = index
        if remote:
            args["label"] = event.label
            if event.kind != "respawn":
                args["indices"] = indices
        obs_trace.instant(
            instant,
            category="distributed" if remote else "supervisor",
            **args,
        )
        self.progress.worker_event(
            event.kind, event.worker, index=index, detail=event.label
        )
