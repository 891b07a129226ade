"""Sweep-as-a-service: a resilient coordinator for shared bias studies.

The CLI runs one study per invocation and dials a static ``--hosts``
roster.  That inverts badly at fleet scale: agents come and go, several
clients want the same studies, and a coordinator that dies mid-sweep
must not cost anyone a measurement.  This module is the long-lived
answer — ``repro serve`` — built from three cooperating pieces:

**Agent rendezvous** (dial-in).  Instead of the coordinator dialing
agents, agents dial the coordinator (``repro agent --connect``) over
the same checksummed framing and HMAC challenge/response the listen
mode uses, and reconnect with seeded exponential backoff when the
coordinator restarts.  Registered agents form a shared pool that
successive studies lease work from; nothing about a study names an
agent up front.

**Durable study queue** (:mod:`repro.core.servicewal`).  Every
submission, lease grant, requeue, completion, and study finish is
appended to a write-ahead log *before* it takes effect, so a SIGKILLed
coordinator restarts into exactly the queue it lost.  Recovery leans on
the content-addressed store rather than journal replay: re-running a
half-finished study finds every pre-crash measurement as a store hit —
accounted identically to a fresh measurement — so the finished report
is byte-identical to one from an uninterrupted (or serial) run.

**Lease-based dispatch** (:class:`LeasePool`).  Setups are leased to
agents at-least-once: a lease whose agent disconnects, goes silent past
the adaptive expiry (the supervisor's deadline policy, shared via
:func:`~repro.core.supervisor.adaptive_deadline`), or draws the
``lease_expire`` chaos kind is requeued **at the same attempt**, so
infrastructure loss never spends a measurement's retry budget; late
duplicate results are discarded by attempt and task-key identity.
Idle agents steal queued-up leases from overloaded ones, and when every
agent is gone past a grace window the pool degrades honestly — the
runner finishes the remainder in-process, exactly like the local pools
do.  Every dispatch pool follows one rule: the executor a result frees
gets its next setup before the result is reported.

Clients talk to the service over a deliberately small local HTTP/JSON
API (``repro submit`` / ``repro status``; see docs/service.md):
submissions are admission-controlled by a bounded queue with a typed
``queue_full`` rejection, identical specs dedup to one study, drain
shuts the service down gracefully, and storage degradation is surfaced
in status documents the same way ``SweepReport.degraded_storage``
already is.

Chaos kinds owned here: ``lease_expire`` (drawn per lease grant),
``client_disconnect`` (the API drops a submission response after the
WAL append — retries dedup), and ``coordinator_crash`` (SIGKILL after
a durable WAL append; see the WAL module).  All three are deterministic
draws from the installed :class:`~repro.faults.FaultPlan`.
"""

from __future__ import annotations

import asyncio
import collections
import http.client
import json
import os
import queue
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import faults
from repro.core.bias import StudySpec
from repro.core.distributed import (
    AgentLink,
    ProtocolError,
    RemotePool,
    _HEADER,
    build_hello,
    challenge,
    check_frame_header,
    decode_payload,
    encode_message,
    refusal,
)
from repro.core.errors import ReproError
from repro.core.runner import RunnerConfig, SweepRunner
from repro.core.servicewal import ServiceWAL
from repro.core.session import record_checksum
from repro.core import supervisor
from repro.core.supervisor import DispatchPool, Task
from repro._errors import JournalWriteError
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro import storageio

#: Format marker of the per-study result documents under
#: ``<workdir>/results/``.
RESULT_FORMAT = "repro-service-result-v1"

#: Default agent-silence grace before a pool with work but no agents
#: degrades to in-process execution (tests shrink this).
DEFAULT_AGENTLESS_GRACE = 30.0

#: Cap on an HTTP request body; submissions are tiny spec documents.
_MAX_BODY = 1 << 20

_HTTP_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


# -- agent registry (asyncio side) -------------------------------------------


class AgentRegistry:
    """The set of live agent links, shared between the asyncio side
    (which owns every socket) and the executor thread's lease pool.

    All socket I/O stays on the event loop: the pool *sends* by
    scheduling a write with ``call_soon_threadsafe`` and *receives*
    through the thread-safe :attr:`inbox` queue the reader coroutines
    feed (``("joined", link)`` / ``("result", link, data)`` /
    ``("lost", link)``).  Links survive across studies — one rendezvous
    serves any number of lease pools.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._links: List[AgentLink] = []
        self._slots = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.inbox: "queue.Queue[Tuple]" = queue.Queue()

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the event loop that owns every link's socket."""
        self._loop = loop

    def next_slot(self) -> int:
        """A fresh worker-slot number for a registering agent."""
        with self._lock:
            self._slots += 1
            return self._slots

    def register(self, link: AgentLink) -> None:
        """Add a freshly handshaken link (loop thread only)."""
        with self._lock:
            self._links.append(link)
        self.inbox.put(("joined", link))

    def discard(self, link: AgentLink) -> None:
        """Drop a dead link and tell the pool (loop thread only)."""
        link.lost = True
        with self._lock:
            if link in self._links:
                self._links.remove(link)
        self.inbox.put(("lost", link))

    def live_links(self) -> List[AgentLink]:
        """Snapshot of currently registered links (any thread)."""
        with self._lock:
            return list(self._links)

    def send(self, link: AgentLink, kind: str, data: Dict[str, Any],
             corrupt: bool = False) -> bool:
        """Queue one frame to ``link`` from any thread.

        Returns False if the link is already known lost; otherwise the
        write is scheduled on the loop and failures surface as a
        ``("lost", link)`` inbox event — the lease pool's expiry path
        covers anything a silent loss swallows.
        """
        if link.lost or self._loop is None:
            return False
        payload = encode_message(kind, data, corrupt=corrupt)

        def _write() -> None:
            if link.lost or link.conn.is_closing():
                return
            try:
                link.conn.write(payload)
            except (ConnectionError, OSError, RuntimeError):
                self.discard(link)

        self._loop.call_soon_threadsafe(_write)
        return True

    def kill(self, link: AgentLink) -> None:
        """Force-close a link's transport from any thread (used by the
        ``net_partition`` draw and staleness scans); the reader
        coroutine then observes EOF and discards the link."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(link.conn.close)

    def agents_doc(self) -> List[Dict[str, Any]]:
        """Status-endpoint view of every live agent."""
        docs = []
        for link in self.live_links():
            docs.append({
                "label": link.label,
                "hostname": link.info.get("hostname"),
                "pid": link.info.get("pid"),
                "jobs": link.capacity,
                "in_flight": len(link.in_flight),
                "results": link.results,
            })
        return docs


# -- lease-based dispatch ----------------------------------------------------


class _Lease:
    """One granted setup: which agents hold it and since when."""

    __slots__ = ("task", "links", "granted", "forced")

    def __init__(self, task: Task, link: AgentLink, now: float) -> None:
        self.task = task
        self.links: List[AgentLink] = [link]
        self.granted = now
        #: Set when the ``lease_expire`` chaos kind fired at grant time;
        #: the next scan expires the lease regardless of age.
        self.forced = False


class LeasePool(RemotePool):
    """Registered-agent dispatch behind the runner's pool interface.

    The sweep runner drives this exactly like :class:`SupervisedPool`
    or ``AgentPool`` — submit tasks, poll events — but executors are
    whatever agents have *dialed in*, and every dispatch is a **lease**:

    - a lease expires when its agent disconnects, goes silent past
      :meth:`effective_lease_timeout` (the supervisor's adaptive
      deadline over observed lease durations), or draws the
      ``lease_expire`` chaos kind — and the setup requeues at the head
      of the queue **at the same attempt number**;
    - results are matched by ``(index, attempt)`` and the task key the
      agent echoes: a late duplicate from an expired lease (or from a
      study that already finished) is counted and dropped, so
      at-least-once dispatch stays exactly-once in the report;
    - a collected result's agent gets its next queued setup before
      :meth:`poll` returns the result (refill before report, as in
      every dispatch pool);
    - an idle agent steals the newest solely-held lease of any agent
      sitting on more than one, re-dispatching it — first result wins;
    - with work outstanding but no agents at all, the pool waits
      ``agentless_grace`` seconds for a rendezvous, then emits
      ``degraded`` so the runner finishes in-process, honestly.

    ``on_lease(index, attempt, agent)`` and
    ``on_requeue(index, attempt, reason)`` fire *before* the action
    they describe takes effect — the coordinator points them at the
    WAL, which is what makes the queue durable.
    """

    # Bound here so perfbench, which wraps ``vars(cls)[name]``, times
    # the lease layer apart from the supervisor layer.
    submit = DispatchPool.submit
    poll = DispatchPool.poll

    def __init__(
        self,
        registry: AgentRegistry,
        fault_plan: Optional[faults.FaultPlan] = None,
        lease_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.2,
        agentless_grace: float = DEFAULT_AGENTLESS_GRACE,
        on_lease: Optional[Callable[[int, int, str], None]] = None,
        on_requeue: Optional[Callable[[int, int, str], None]] = None,
    ) -> None:
        super().__init__(fault_plan, heartbeat_interval)
        self.registry = registry
        self.lease_timeout = lease_timeout
        self.agentless_grace = agentless_grace
        self._on_lease = on_lease or (lambda index, attempt, agent: None)
        self._on_requeue = on_requeue or (lambda index, attempt, reason: None)
        self._leases: Dict[int, _Lease] = {}
        self._lost: Set[int] = set()  # id()s of links already failed
        self._durations = obs_metrics.Histogram(
            "service.lease_seconds", window=supervisor._ADAPTIVE_WINDOW
        )
        self._agentless_since: Optional[float] = None

    # -- introspection ----------------------------------------------------

    def effective_lease_timeout(self) -> float:
        """Current lease expiry: the supervisor's adaptive deadline over
        observed lease durations (a configured value is used verbatim).
        """
        return supervisor.adaptive_deadline(
            self.lease_timeout, self.heartbeat_interval, self._durations
        )

    def stats(self) -> Dict[str, int]:
        """Utilisation sample for the metrics timeline (the runner's
        sampler merges any numeric fields, so ``leases`` rides along
        with the standard worker gauges)."""
        return dict(super().stats(), leases=len(self._leases))

    def close(self) -> None:
        """Release every lease, keep every agent (links are owned by the
        registry and serve the next study's pool)."""
        if self._closed:
            return
        self._closed = True
        for lease in self._leases.values():
            for link in lease.links:
                link.in_flight.pop(lease.task.index, None)
        self._leases.clear()
        self._queue.clear()

    # -- dispatch-core hooks ----------------------------------------------

    def _executors(self) -> List[AgentLink]:
        return [l for l in self.registry.live_links() if not l.lost]

    def _outstanding(self) -> bool:
        return bool(self._leases)

    def _write(self, link: AgentLink, kind: str, data: Dict[str, Any],
               corrupt: bool = False) -> bool:
        return self.registry.send(link, kind, data, corrupt=corrupt)

    def _scan_liveness(self) -> None:
        self._scan_leases()
        # An agent silent past the lease deadline is partitioned; its
        # leases requeue through the loss path.
        self._scan_silence(
            max(self.effective_lease_timeout(), 4 * self.heartbeat_interval)
        )
        self._steal_work()
        self._check_agentless()

    def _collect(self, deadline: Optional[float]) -> bool:
        """Wait for the first registry message, then apply every one
        already queued."""
        try:
            item = self.registry.inbox.get(timeout=self._wait_budget(deadline))
        except queue.Empty:
            return False
        while True:
            kind = item[0]
            if kind == "joined":
                self._agentless_since = None
            elif kind == "lost":
                self._lose(item[1], "crash")
            elif kind == "result":
                self._accept_result(item[1], item[2])
            try:
                item = self.registry.inbox.get_nowait()
            except queue.Empty:
                return False

    # -- leases -----------------------------------------------------------

    def _grant(self, link: AgentLink, task: Task, count: int) -> None:
        """Record a lease — WAL first, then bookkeeping."""
        self._on_lease(task.index, task.attempt, link.label)
        obs_metrics.counter("service.leases").inc()
        lease = self._leases.get(task.index)
        if lease is None:
            lease = _Lease(task, link, time.monotonic())
            self._leases[task.index] = lease
        else:
            lease.links.append(link)
        if self.fault_plan is not None and self.fault_plan.fires(
            "lease_expire", task.key, count
        ):
            lease.forced = True
        link.in_flight[task.index] = task

    def _expire(self, index: int, reason: str) -> None:
        """Requeue a leased setup at the same attempt (WAL first)."""
        lease = self._leases.pop(index)
        self._on_requeue(index, lease.task.attempt, reason)
        obs_metrics.counter("service.requeues").inc()
        obs_metrics.counter("service.leases_expired").inc()
        for link in lease.links:
            link.in_flight.pop(index, None)
        first = lease.links[0] if lease.links else None
        self._fail_over(
            "hang",
            first.slot if first else -1,
            [lease.task],
            first.label if first else "",
        )

    def _scan_leases(self) -> None:
        now = time.monotonic()
        timeout = self.effective_lease_timeout()
        for index in sorted(self._leases):
            lease = self._leases[index]
            if lease.forced:
                self._expire(index, "lease_expire")
            elif now - lease.granted > timeout:
                self._expire(index, "lease_timeout")

    def _lose(self, link: AgentLink, reason: str) -> None:
        """Requeue every lease held *solely* by a lost agent, and make
        sure its transport is closed."""
        if id(link) in self._lost:
            return
        self._lost.add(id(link))
        requeued: List[Task] = []
        for index in sorted(list(link.in_flight)):
            task = link.in_flight.pop(index)
            lease = self._leases.get(index)
            if lease is None:
                continue
            if link in lease.links:
                lease.links.remove(link)
            if lease.links:
                continue  # a stolen copy is still out; the lease lives
            self._on_requeue(index, task.attempt, "agent_lost")
            obs_metrics.counter("service.requeues").inc()
            del self._leases[index]
            requeued.append(task)
        self._fail_over(reason, link.slot, requeued, link.label)
        self.registry.kill(link)

    def _settle(self, link: AgentLink, outcome: Tuple,
                data: Dict[str, Any]) -> None:
        index, attempt = outcome[1], outcome[2]
        lease = self._leases.get(index)
        if (
            lease is None
            or lease.task.attempt != attempt
            or data.get("key") != lease.task.key
        ):
            # A lease that expired (or was stolen and already served)
            # still computes; its late twin is dropped by identity —
            # at-least-once dispatch, exactly-once accounting.  The
            # echoed task key names the measurement, so a twin from a
            # finished study never lands in the next study's lease on
            # the same index and attempt.
            obs_metrics.counter("service.duplicate_results").inc()
            return
        self._durations.observe(time.monotonic() - lease.granted)
        del self._leases[index]
        for holder in lease.links:
            holder.in_flight.pop(index, None)
        self._result_event(link, lease.task, outcome, data)

    def _steal_work(self) -> None:
        """Rebalance: an idle agent takes the newest solely-held lease
        of any agent holding several; the first result wins."""
        if self._queue or self._degraded:
            return
        links = self._executors()
        idle = [l for l in links if not l.in_flight]
        if not idle:
            return
        for thief in idle:
            candidates = [
                lease for lease in self._leases.values()
                if len(lease.links) == 1
                and lease.links[0] is not thief
                and len(lease.links[0].in_flight) >= 2
            ]
            if not candidates:
                return
            lease = max(candidates, key=lambda l: l.granted)
            task = lease.task
            count = self._dispatched.get(task.index, 0) + 1
            if not self._send_task(thief, task, count):
                continue
            self._dispatched[task.index] = count
            obs_metrics.counter("service.steals").inc()
            self._grant(thief, task, count)

    def _check_agentless(self) -> None:
        """Degrade honestly when work is stuck with nobody to do it."""
        if self.registry.live_links():
            self._agentless_since = None
            return
        now = time.monotonic()
        if self._agentless_since is None:
            self._agentless_since = now
            return
        if now - self._agentless_since <= self.agentless_grace:
            return
        if self._degraded:
            return
        leased: List[Task] = []
        for index in sorted(self._leases):
            lease = self._leases[index]
            self._on_requeue(index, lease.task.attempt, "no_agents")
            leased.append(lease.task)
        self._leases.clear()
        obs_metrics.counter("service.degraded_studies").inc()
        self._degrade(leased)


# -- the coordinator ---------------------------------------------------------


@dataclass
class _StudyState:
    """In-memory lifecycle of one submitted study."""

    sid: str
    spec: StudySpec
    state: str = "queued"  # queued | running | done | failed
    error: str = ""
    tables: str = ""
    report_json: str = ""
    report_sha256: str = ""
    #: Setup indices with a WAL ``complete`` record (guards the WAL
    #: against duplicate completes across crash-recovery re-runs).
    completed: Set[int] = field(default_factory=set)
    requested: int = 0
    submits: int = 0
    #: Setups served from the content-addressed store before dispatch —
    #: a fully warmed rerun reports ``store_hits == requested``.
    store_hits: int = 0


class _WalProgress(obs_progress.ProgressReporter):
    """Progress sink that journals completions into the study WAL.

    ``setup_finished`` fires for fresh measurements *and* store hits
    (the runner's store probe reports hits through the same method), so
    after a crash-recovery re-run the WAL still converges on exactly
    one ``complete`` record per setup — the ``completed`` set replayed
    from the WAL suppresses re-appends.
    """

    def __init__(self, coordinator: "ServiceCoordinator",
                 state: _StudyState) -> None:
        self._coordinator = coordinator
        self._state = state

    def setup_finished(self, index: int, setup: str, status: str,
                       attempts: int = 1) -> None:
        if status != "measured":
            return
        if index in self._state.completed:
            return
        self._state.completed.add(index)
        self._coordinator.wal_append("complete", {
            "study": self._state.sid, "index": index,
        })

    def store_hits(self, hits: int, total: int) -> None:
        """Record how much of the study the store served — the figure
        that proves a recovered (or deduped) run re-measured nothing."""
        self._state.store_hits = hits


class _ServiceSweepRunner(SweepRunner):
    """A sweep runner whose pool is the service's shared lease pool."""

    def __init__(self, *args, pool_factory: Callable[[int, bool],
                 DispatchPool], **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pool_factory = pool_factory

    def _make_pool(self, pending_count: int, tracing: bool) -> DispatchPool:
        return self._pool_factory(pending_count, tracing)


class ServiceCoordinator:
    """The ``repro serve`` process: rendezvous + queue + executor.

    One asyncio event loop owns both listeners (agent rendezvous and
    the HTTP API) and every agent socket; a single executor thread runs
    one study at a time through :class:`_ServiceSweepRunner`.  All
    durable state lives under ``workdir``:

    - ``queue.wal`` — the study queue's write-ahead log,
    - ``store/`` — the content-addressed measurement store (the crash
      recovery *and* cross-client dedup layer),
    - ``results/<study>.json`` — finished result documents.

    Crash contract: kill this process at any instant, restart it on the
    same workdir, resubmit nothing — every queued study still runs, and
    every report matches a serial ``repro study`` byte for byte.
    """

    def __init__(
        self,
        workdir: str,
        http_addr: Tuple[str, int] = ("127.0.0.1", 0),
        agent_addr: Tuple[str, int] = ("127.0.0.1", 0),
        secret: Optional[str] = None,
        fault_plan: Optional[faults.FaultPlan] = None,
        max_queue: int = 16,
        max_retries: int = 2,
        timeout: Optional[float] = None,
        heartbeat_interval: float = 0.2,
        lease_timeout: Optional[float] = None,
        agentless_grace: float = DEFAULT_AGENTLESS_GRACE,
        port_file: Optional[str] = None,
        quiet: bool = False,
        note: str = "",
    ) -> None:
        self.workdir = workdir
        self.http_addr = http_addr
        self.agent_addr = agent_addr
        self.secret = secret
        self.fault_plan = fault_plan
        self.max_queue = max_queue
        self.max_retries = max_retries
        self.timeout = timeout
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = lease_timeout
        self.agentless_grace = agentless_grace
        self.port_file = port_file
        self.quiet = quiet
        self.note = note
        self.registry = AgentRegistry()
        self.http_port: Optional[int] = None
        self.agent_port: Optional[int] = None
        self._lock = threading.Lock()
        self._studies: "collections.OrderedDict[str, _StudyState]" = (
            collections.OrderedDict()
        )
        self._runq: "queue.Queue[Optional[str]]" = queue.Queue()
        self._wal: Optional[ServiceWAL] = None
        self._wal_ok = True
        self._degraded: List[str] = []
        self._draining = False
        self._running_sid: Optional[str] = None
        self._store = None

    # -- logging / shared state -------------------------------------------

    def _log(self, text: str) -> None:
        if not self.quiet:
            print(f"serve: {text}", file=sys.stderr, flush=True)

    def wal_append(self, kind: str, data: Dict[str, Any]) -> None:
        """Append one queue transition, degrading loudly (not fatally)
        when the log itself cannot be written — the queue keeps serving
        from memory, and the status API says so, mirroring how sweeps
        surface ``degraded_storage``."""
        if self._wal is None or not self._wal_ok:
            return
        try:
            self._wal.append(kind, data)
        except JournalWriteError as exc:
            self._wal_ok = False
            with self._lock:
                self._degraded.append(
                    f"study queue WAL fell back to memory: {exc}"
                )
            self._log(f"WAL degraded: {exc}")

    def _results_path(self, sid: str) -> str:
        return os.path.join(self.workdir, "results", f"{sid}.json")

    # -- lifecycle --------------------------------------------------------

    def run(self) -> int:
        """Serve until drained (or interrupted); returns an exit code."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:
            self._log("interrupted")
            return 0
        return 0

    async def _main(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        os.makedirs(os.path.join(self.workdir, "results"), exist_ok=True)
        previous_plan = faults.active()
        faults.install(self.fault_plan)
        from repro.store import open_store

        self._store = open_store(os.path.join(self.workdir, "store"))
        self._wal = ServiceWAL(os.path.join(self.workdir, "queue.wal"))
        self._recover(self._wal.load())
        self._wal.open_for_append(note=self.note or "repro serve")

        loop = asyncio.get_running_loop()
        self.registry.attach_loop(loop)
        agent_server = await asyncio.start_server(
            self._handle_agent, self.agent_addr[0], self.agent_addr[1]
        )
        http_server = await asyncio.start_server(
            self._handle_http, self.http_addr[0], self.http_addr[1]
        )
        self.agent_port = agent_server.sockets[0].getsockname()[1]
        self.http_port = http_server.sockets[0].getsockname()[1]
        if self.port_file:
            storageio.atomic_write_text(self.port_file, json.dumps(
                {"http": self.http_port, "agents": self.agent_port},
                sort_keys=True,
            ) + "\n")
        self._log(
            f"api on {self.http_addr[0]}:{self.http_port}, agent "
            f"rendezvous on {self.agent_addr[0]}:{self.agent_port}, "
            f"workdir {self.workdir}"
        )
        try:
            loop.add_signal_handler(signal.SIGTERM, self._begin_drain)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread (tests) or platform without signals

        executor = threading.Thread(
            target=self._executor_loop, name="study-executor", daemon=True
        )
        executor.start()
        try:
            while executor.is_alive():
                await asyncio.sleep(0.1)
            self._log("drained; shutting down")
        finally:
            agent_server.close()
            http_server.close()
            for link in self.registry.live_links():
                self.registry.send(link, "shutdown", {})
            await asyncio.sleep(0.05)  # let shutdown frames flush
            self._wal.close()
            faults.install(previous_plan)

    def _recover(self, state) -> None:
        """Rebuild the queue from the WAL: finished studies load their
        result documents, everything else re-enters the queue in
        submission order (the store makes the re-runs cheap)."""
        for rec in state.studies.values():
            try:
                spec = StudySpec.from_dict(rec.spec)
            except ValueError as exc:
                self._log(f"dropping unparseable study {rec.study[:12]}: {exc}")
                continue
            st = _StudyState(sid=rec.study, spec=spec,
                             completed=set(rec.completed))
            if rec.done:
                doc = self._load_result(rec.study)
                if doc is not None:
                    st.state = doc.get("state", "done")
                    st.error = doc.get("error", "")
                    st.tables = doc.get("tables", "")
                    st.report_json = doc.get("report", "")
                    st.report_sha256 = doc.get("report_sha256", "")
                    st.store_hits = int(doc.get("store_hits", 0))
                    self._studies[st.sid] = st
                    continue
                # done in the WAL but the result doc is gone: re-run
                # (fully store-served, so this is cheap and identical).
            self._studies[st.sid] = st
            self._runq.put(st.sid)
        pending = sum(
            1 for s in self._studies.values() if s.state == "queued"
        )
        if self._studies:
            self._log(
                f"recovered {len(self._studies)} study(ies) from the WAL "
                f"({pending} still to run)"
            )

    def _load_result(self, sid: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._results_path(sid)) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(doc, dict) or doc.get("format") != RESULT_FORMAT:
            return None
        return doc

    def _begin_drain(self) -> None:
        """Stop admitting, finish the queue, then exit (graceful)."""
        if not self._draining:
            self._draining = True
            self._log("draining: no new submissions; finishing the queue")

    # -- executor thread --------------------------------------------------

    def _executor_loop(self) -> None:
        while True:
            if self._draining and self._runq.empty():
                return
            try:
                sid = self._runq.get(timeout=0.2)
            except queue.Empty:
                continue
            if sid is None:
                return
            self._execute(sid)

    def _execute(self, sid: str) -> None:
        with self._lock:
            st = self._studies.get(sid)
            if st is None or st.state not in ("queued",):
                return
            st.state = "running"
            self._running_sid = sid
        self._log(f"study {sid[:12]} running ({st.spec.workload}, "
                  f"{st.spec.parameter})")
        try:
            tables, report_json = self._run_study(st)
        except ReproError as exc:
            self._finish(st, error=f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - the queue must survive
            self._finish(st, error=f"{type(exc).__name__}: {exc}")
        else:
            self._finish(st, tables=tables, report_json=report_json)
        finally:
            with self._lock:
                self._running_sid = None

    def _run_study(self, st: _StudyState) -> Tuple[str, str]:
        """One study through the lease pool; returns (tables, report)."""
        spec = st.spec
        exp, setups, base, treatment, points = spec.build()
        with self._lock:
            st.requested = len(setups)
        config = RunnerConfig(
            max_retries=self.max_retries,
            timeout=self.timeout,
            heartbeat_interval=self.heartbeat_interval,
        )

        def pool_factory(pending: int, tracing: bool) -> DispatchPool:
            return LeasePool(
                self.registry,
                fault_plan=faults.active(),
                lease_timeout=self.lease_timeout,
                heartbeat_interval=self.heartbeat_interval,
                agentless_grace=self.agentless_grace,
                on_lease=lambda index, attempt, agent: self.wal_append(
                    "lease", {"study": st.sid, "index": index,
                              "attempt": attempt, "agent": agent},
                ),
                on_requeue=lambda index, attempt, reason: self.wal_append(
                    "requeue", {"study": st.sid, "index": index,
                                "attempt": attempt, "reason": reason},
                ),
            )

        runner = _ServiceSweepRunner(
            exp,
            config,
            fault_plan=faults.active(),
            progress=_WalProgress(self, st),
            store=self._store,
            pool_factory=pool_factory,
        )
        result = runner.run(setups)
        report = result.report
        if report.quarantined:
            raise ReproError(
                f"{len(report.quarantined)} setup(s) quarantined — the "
                "study needs every point"
            )
        return spec.tables(exp, base, treatment, points), report.to_json()

    def _finish(self, st: _StudyState, tables: str = "",
                report_json: str = "", error: str = "") -> None:
        """Publish the result document, then mark the study done in the
        WAL (doc first: a crash between the two re-runs the study, a
        cheap store-served no-op; the reverse order could mark done
        with no document to serve)."""
        sha = record_checksum({"report": report_json}) if report_json else ""
        doc = {
            "format": RESULT_FORMAT,
            "study": st.sid,
            "spec": st.spec.to_dict(),
            "state": "failed" if error else "done",
            "error": error,
            "tables": tables,
            "report": report_json,
            "report_sha256": sha,
            "store_hits": st.store_hits,
        }
        try:
            storageio.atomic_write_text(
                self._results_path(st.sid),
                json.dumps(doc, sort_keys=True) + "\n",
            )
        except OSError as exc:
            with self._lock:
                self._degraded.append(
                    f"result document for {st.sid[:12]} not persisted: {exc}"
                )
        self.wal_append("done", {
            "study": st.sid, "report_sha256": sha,
            **({"error": error} if error else {}),
        })
        with self._lock:
            st.state = "failed" if error else "done"
            st.error = error
            st.tables = tables
            st.report_json = report_json
            st.report_sha256 = sha
        self._log(
            f"study {st.sid[:12]} {'failed: ' + error if error else 'done'}"
        )

    # -- agent rendezvous (asyncio) ---------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader,
                          timeout: Optional[float] = None
                          ) -> Tuple[str, Dict[str, Any]]:
        async def _read() -> Tuple[str, Dict[str, Any]]:
            header = await reader.readexactly(_HEADER.size)
            magic, length = _HEADER.unpack(header)
            check_frame_header(magic, length)
            return decode_payload(await reader.readexactly(length))

        if timeout is None:
            return await _read()
        return await asyncio.wait_for(_read(), timeout)

    async def _handle_agent(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """One dialed-in agent: challenge handshake, then a read loop
        feeding the registry inbox until the connection dies."""
        peer = writer.get_extra_info("peername") or ("?", 0)
        label = f"{peer[0]}:{peer[1]}"
        link: Optional[AgentLink] = None
        try:
            opening = challenge()
            writer.write(encode_message("challenge", opening))
            await writer.drain()
            kind, data = await self._read_frame(reader, timeout=30.0)
            if kind != "register":
                raise ProtocolError(f"expected register, got {kind!r}")
            refused = refusal(data, opening["nonce"], self.secret,
                              "coordinator")
            if refused is not None:
                if refused.get("code") == "auth":
                    obs_metrics.counter("service.auth_failures").inc()
                writer.write(encode_message("error", refused))
                await writer.drain()
                raise ProtocolError(
                    f"refused agent {label}: {refused['message']}"
                )
            writer.write(encode_message("registered", self._session_doc()))
            await writer.drain()
            link = AgentLink(self.registry.next_slot(), label, data, writer)
            self.registry.register(link)
            self._log(
                f"agent {label} registered "
                f"({link.capacity} job(s), pid {data.get('pid')})"
            )
            while True:
                kind, data = await self._read_frame(reader)
                link.last_recv = time.monotonic()
                if kind == "result":
                    self.registry.inbox.put(("result", link, data))
                # heartbeats only refresh last_recv; others are ignored.
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ProtocolError, asyncio.TimeoutError) as exc:
            if link is not None:
                self._log(f"agent {label} lost: {exc}")
        except asyncio.CancelledError:
            pass  # loop teardown at shutdown; cleanup happens below
        finally:
            if link is not None:
                self.registry.discard(link)
            writer.close()

    def _session_doc(self) -> Dict[str, Any]:
        """The ``registered`` payload: :func:`build_hello`'s shape, so
        the agent's session parser is one code path for both modes."""
        return build_hello(
            faults.active(),
            heartbeat_interval=self.heartbeat_interval,
            hang_timeout=None,  # each agent's local pool adapts
            max_respawns=8,
            tracing=False,
            note=self.note or "repro serve",
        )

    # -- HTTP API (asyncio) -----------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_http_request(reader), timeout=10.0
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError, OSError, ValueError):
                return
            try:
                response = self._route(method, path, body)
            except Exception as exc:  # noqa: BLE001 - keep serving
                response = (500, {
                    "error": "internal", "message": f"{type(exc).__name__}: {exc}",
                })
            if response is None:
                return  # injected client_disconnect: vanish mid-reply
            status, doc = response
            payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
            head = (
                f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            try:
                writer.write(head + payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except asyncio.CancelledError:
            pass  # loop teardown at shutdown
        finally:
            writer.close()

    async def _read_http_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        line = (await reader.readline()).decode("latin-1").strip()
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"malformed request line {line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if length > _MAX_BODY:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    def _route(self, method: str, path: str,
               body: bytes) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Dispatch one API request; None means drop the connection
        (the injected ``client_disconnect`` fault)."""
        if path == "/v1/studies" and method == "POST":
            return self._api_submit(body)
        if path.startswith("/v1/studies/") and method == "GET":
            sid = path[len("/v1/studies/"):]
            with self._lock:
                st = self._studies.get(sid)
                if st is None:
                    return 404, {"error": "unknown_study", "study": sid}
                return 200, self._study_doc(st, full=True)
        if path == "/v1/status" and method == "GET":
            return 200, self._status_doc()
        if path == "/v1/drain" and method == "POST":
            self._begin_drain()
            with self._lock:
                pending = sum(1 for s in self._studies.values()
                              if s.state in ("queued", "running"))
            return 200, {"draining": True, "pending": pending}
        if path in ("/v1/studies", "/v1/status", "/v1/drain"):
            return 405, {"error": "method_not_allowed"}
        return 404, {"error": "not_found", "path": path}

    def _api_submit(self, body: bytes) -> Optional[Tuple[int, Dict]]:
        try:
            spec = StudySpec.from_dict(json.loads(body.decode() or "null"))
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": "bad_spec", "message": str(exc)}
        sid = spec.study_id()
        with self._lock:
            st = self._studies.get(sid)
            if st is None:
                if self._draining:
                    return 503, {"error": "draining"}
                queued = sum(1 for s in self._studies.values()
                             if s.state == "queued")
                if queued >= self.max_queue:
                    # Typed backpressure: the queue is bounded, and the
                    # client is told so rather than timed out.
                    obs_metrics.counter("service.queue_full").inc()
                    return 429, {"error": "queue_full",
                                 "limit": self.max_queue}
                st = _StudyState(sid=sid, spec=spec)
                self._studies[sid] = st
                fresh = True
            else:
                fresh = False
            st.submits += 1
            submits = st.submits
        if fresh:
            # WAL before the queue: a crash right here recovers the
            # study; a crash one line earlier loses only an unacked
            # request the client will retry.
            self.wal_append("submit", {"study": sid, "spec": spec.to_dict()})
            self._runq.put(sid)
            self._log(f"study {sid[:12]} queued ({spec.workload}, "
                      f"{spec.parameter})")
        if faults.should_inject_at("client_disconnect", f"submit:{sid}",
                                   submits):
            # The submission is durable; only the *response* is lost.
            # A retrying client dedups onto the same study id.
            obs_metrics.counter("service.client_disconnects").inc()
            return None
        with self._lock:
            status = 200 if st.state in ("done", "failed") else 202
            return status, self._study_doc(st, full=st.state == "done")

    def _study_doc(self, st: _StudyState, full: bool = False) -> Dict:
        doc: Dict[str, Any] = {
            "study": st.sid,
            "state": st.state,
            "spec": st.spec.to_dict(),
            "requested": st.requested,
            "completed": len(st.completed),
            "store_hits": st.store_hits,
        }
        if st.error:
            doc["error"] = st.error
        if full and st.state in ("done", "failed"):
            doc["tables"] = st.tables
            doc["report"] = st.report_json
            doc["report_sha256"] = st.report_sha256
        return doc

    def _status_doc(self) -> Dict[str, Any]:
        with self._lock:
            by_state: Dict[str, int] = {}
            for st in self._studies.values():
                by_state[st.state] = by_state.get(st.state, 0) + 1
            degraded = list(self._degraded)
        return {
            "service": "repro-serve",
            "studies": by_state,
            "queue_limit": self.max_queue,
            "agents": self.registry.agents_doc(),
            "draining": self._draining,
            "degraded": degraded,
            "workdir": self.workdir,
        }


# -- HTTP client helpers (the submit/status CLI side) ------------------------


def _request(host: str, port: int, method: str, path: str,
             body: Optional[Dict] = None, timeout: float = 30.0) -> Dict:
    """One JSON round trip to the service; raises :class:`ReproError`
    with a typed message on HTTP-level rejections."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    try:
        doc = json.loads(raw.decode() or "null")
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"service returned invalid JSON ({response.status}): {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise ReproError(f"service returned a non-object ({response.status})")
    if response.status >= 400:
        raise ReproError(
            f"service rejected {method} {path}: "
            f"{doc.get('error', response.status)}"
            + (f" ({doc['message']})" if doc.get("message") else "")
        )
    return doc


def submit_study(host: str, port: int, spec: StudySpec,
                 retries: int = 5, retry_delay: float = 0.2,
                 sleep: Callable[[float], None] = time.sleep) -> Dict:
    """Submit ``spec``, retrying dropped connections.

    The service may (deterministically, under a fault plan) hang up
    after durably accepting a submission — the ``client_disconnect``
    kind.  Retrying is always safe: the study id is the spec's content
    address, so a resubmission dedups onto the same study.
    """
    last: Optional[Exception] = None
    for attempt in range(retries + 1):
        if attempt:
            sleep(retry_delay)
        try:
            return _request(host, port, "POST", "/v1/studies",
                            body=spec.to_dict())
        except (ConnectionError, http.client.HTTPException, OSError) as exc:
            last = exc
    raise ReproError(
        f"could not submit study after {retries + 1} attempt(s): {last}"
    )


def get_study(host: str, port: int, sid: str) -> Dict:
    """Fetch one study's full status/result document."""
    return _request(host, port, "GET", f"/v1/studies/{sid}")


def get_status(host: str, port: int) -> Dict:
    """Fetch the service-level status document."""
    return _request(host, port, "GET", "/v1/status")


def wait_for_study(host: str, port: int, sid: str,
                   poll_interval: float = 0.5,
                   timeout: Optional[float] = None,
                   sleep: Callable[[float], None] = time.sleep) -> Dict:
    """Poll until the study reaches ``done``/``failed`` (tolerating
    service restarts mid-wait — the queue is durable, so a vanished
    coordinator is a retry, not an error)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            doc = get_study(host, port, sid)
            if doc.get("state") in ("done", "failed"):
                return doc
        except (ConnectionError, http.client.HTTPException, OSError):
            pass  # restarting coordinator; keep polling
        if deadline is not None and time.monotonic() >= deadline:
            raise ReproError(
                f"study {sid[:12]} did not finish within {timeout:g}s"
            )
        sleep(poll_interval)
