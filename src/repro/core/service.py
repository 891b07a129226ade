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

**Lease-based dispatch** (:class:`LeasePool`, the lab's one remote
pool: a ``--hosts`` sweep leases through it too, to the agents a
:class:`HostRoster` dials).  Setups are leased to agents at-least-once: a lease whose agent disconnects, goes silent past
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
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import faults
from repro.core.bias import StudySpec
from repro.core.distributed import (
    AgentLink,
    AgentUnavailable,
    ProtocolError,
    _HEADER,
    _track,
    build_hello,
    challenge,
    check_frame_header,
    decode_payload,
    encode_message,
    open_session,
    payload_to_wire,
    refusal,
)
from repro.core.errors import ReproError
from repro.core.runner import RunnerConfig, SweepRunner, seeded_backoff
from repro.core.servicewal import ServiceWAL
from repro.core.session import record_checksum
from repro.core import supervisor
from repro.core.supervisor import (
    SUPERVISION_TICK,
    DispatchPool,
    PoolEvent,
    Task,
)
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


async def read_frame(
    reader: asyncio.StreamReader,
) -> Tuple[str, Dict[str, Any]]:
    """One checksummed frame from an agent link's stream (the asyncio
    twin of :func:`~repro.core.distributed.recv_message`)."""
    magic, length = _HEADER.unpack(await reader.readexactly(_HEADER.size))
    check_frame_header(magic, length)
    return decode_payload(await reader.readexactly(length))


class AgentRegistry:
    """The set of live agent links, shared between the asyncio side
    (which owns every socket) and the executor thread's lease pool.

    All socket I/O stays on the event loop: the pool *sends* by
    scheduling a write with ``call_soon_threadsafe`` and *receives*
    through the thread-safe :attr:`inbox` queue that :meth:`serve`, the
    one read loop for every link, feeds (``("joined", link)`` /
    ``("result", link, data)`` / ``("lost", link)``).  Links survive
    across studies — one rendezvous serves any number of lease pools.
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

    def expecting(self) -> bool:
        """Whether an agent may still join: always, at a rendezvous."""
        return True

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

    async def serve(self, link: AgentLink,
                    reader: asyncio.StreamReader) -> str:
        """The read loop of every registered link, whichever side
        dialed: feed its results to :attr:`inbox` until the connection
        ends, then discard the link.  Returns why it ended."""
        try:
            while True:
                kind, data = await read_frame(reader)
                link.last_recv = time.monotonic()
                if kind == "result":
                    self.inbox.put(("result", link, data))
                # heartbeats only refresh last_recv; others are ignored.
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ProtocolError) as exc:
            return str(exc)
        finally:
            self.discard(link)
            link.conn.close()

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
        covers anything a silent loss swallows.  A frame sent before
        the link was lost still goes out, ahead of any scheduled close.
        """
        if link.lost or self._loop is None:
            return False
        payload = encode_message(kind, data, corrupt=corrupt)

        def _write() -> None:
            if link.conn.is_closing():
                return
            try:
                link.conn.write(payload)
            except (ConnectionError, OSError, RuntimeError):
                self.discard(link)

        self._loop.call_soon_threadsafe(_write)
        return True

    def kill(self, link: AgentLink) -> None:
        """Force-close a link's transport from any thread (used by the
        ``net_partition`` draw and staleness scans); the read loop then
        observes EOF and discards the link."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(link.conn.close)

    def agents_doc(self) -> List[Dict[str, Any]]:
        """Status-endpoint view of every live agent."""
        return [{
            "label": link.label,
            "hostname": link.info.get("hostname"),
            "pid": link.info.get("pid"),
            "jobs": link.capacity,
            "in_flight": len(link.in_flight),
            "results": link.results,
        } for link in self.live_links()]


class HostRoster(AgentRegistry):
    """A static ``--hosts`` roster: a registry whose agents are dialed
    (``hello`` handshake) instead of dialing in; after the handshake a
    link is served by :meth:`AgentRegistry.serve` like any other.  The
    roster's event loop runs on a thread of its own, and redials run on
    that loop's executor, never on the dispatch thread.

    Args:
        hosts: ``(host, port)`` pairs, indexed by worker slot; each must
            accept the first dial (a bad roster is operator error and
            fails loudly as :class:`AgentUnavailable`, before any
            measurement starts).
        hello: session parameters sent to every agent (fault plan,
            runner knobs, tracing flag); see :func:`build_hello`.
        secret: optional shared secret; every dial answers the agent's
            fresh ``challenge`` nonce with its own proof.
        connect_timeout: TCP connect + handshake deadline per dial.
        max_redials: a lost agent is redialed until this many dials in
            a row fail, then dropped for good.  Per agent (unlike the
            local pool's global respawn budget) because agent failures
            are independent: one dead host refusing connections must not
            spend the budget a merely-partitioned host needs to heal.
        backoff_seed: seed for the deterministic redial jitter
            (:func:`~repro.core.runner.seeded_backoff`), so retries and
            redials share one reproducible schedule.
    """

    def __init__(
        self,
        hosts: Sequence[Tuple[str, int]],
        hello: Dict[str, Any],
        secret: Optional[str] = None,
        connect_timeout: float = 10.0,
        max_redials: int = 8,
        backoff_seed: int = 0,
    ) -> None:
        super().__init__()
        self.hosts = list(hosts)
        self.hello = dict(hello)
        self.secret = secret
        self.connect_timeout = connect_timeout
        self.max_redials = max_redials
        self.backoff_seed = backoff_seed
        #: Every link this roster opened, in order (the manifest's
        #: per-host sessions and results).
        self._sessions: List[AgentLink] = []
        #: Slots whose agent is connected or still being redialed.
        self._tended: Set[int] = set(range(len(self.hosts)))
        opened: List[Tuple[socket.socket, Dict[str, Any]]] = []
        try:
            for slot in range(len(self.hosts)):
                opened.append(self._dial(slot))
        except (OSError, ProtocolError, EOFError) as exc:
            for sock, _ in opened:
                sock.close()
            host, port = self.hosts[len(opened)]
            raise AgentUnavailable(
                f"agent {host}:{port} is unreachable: {exc}"
            ) from exc
        loop = asyncio.new_event_loop()
        self.attach_loop(loop)
        self._thread = threading.Thread(
            target=loop.run_forever, name="host-roster", daemon=True
        )
        self._thread.start()
        # Held: the loop keeps only weak references to its tasks.
        self._keepers = [
            asyncio.run_coroutine_threadsafe(self._keep(slot, *dialed), loop)
            for slot, dialed in enumerate(opened)
        ]

    def expecting(self) -> bool:
        """Whether an agent may still join: some agent is connected or
        still has redials left."""
        return bool(self._tended)

    def hosts_info(self) -> List[Dict[str, Any]]:
        """Per-host provenance for the manifest: every agent this roster
        reached, its identity, its sessions and the results accepted
        from it (duplicates of a stolen or expired lease not counted)."""
        info: Dict[str, Dict[str, Any]] = {}
        for link in list(self._sessions):
            host, port = self.hosts[link.slot]
            entry = info.setdefault(link.label, {
                "host": host, "port": port, "results": 0, "sessions": 0,
            })
            entry.update({key: link.info.get(key) for key in (
                "hostname", "pid", "agent_version", "jobs")})
            entry["sessions"] += 1
            entry["results"] += link.results
        return [info[label] for label in sorted(info)]

    def close(self) -> None:
        """Send every agent ``shutdown`` and hang up (a listening agent
        returns to its accept loop for the next session), then stop the
        roster's loop (idempotent)."""
        if self._loop.is_closed():
            return

        async def hang_up() -> None:
            for link in self.live_links():
                if not link.conn.is_closing():
                    link.conn.write(encode_message("shutdown", {}))
            # The loop runs nothing but the keepers.
            keepers = asyncio.all_tasks() - {asyncio.current_task()}
            for keeper in keepers:
                keeper.cancel()
            await asyncio.gather(*keepers, return_exceptions=True)
            await asyncio.gather(
                *(link.conn.wait_closed() for link in self._sessions),
                return_exceptions=True,
            )

        asyncio.run_coroutine_threadsafe(hang_up(), self._loop).result()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    # -- the loop side ----------------------------------------------------

    def _dial(self, slot: int) -> Tuple[socket.socket, Dict[str, Any]]:
        """Connect to the agent in ``slot`` and run the ``hello``
        handshake; returns the socket and the agent's identity."""
        host, port = self.hosts[slot]
        label = f"{host}:{port}"
        sock = _track(socket.create_connection(
            (host, port), timeout=self.connect_timeout
        ))
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            kind, info = open_session(
                sock, "hello", self.hello, self.secret, f"agent {label}",
                "hello_ack",
            )
            if kind == "error":
                if info.get("code") == "auth":
                    # Counted apart from transport losses: a wrong
                    # secret is a configuration problem, and it spends
                    # the same per-agent budget a dead host would.
                    obs_metrics.counter("distributed.auth_failures").inc()
                raise ProtocolError(
                    f"agent {label} rejected the session: "
                    f"{info.get('message')}"
                )
        except Exception:
            sock.close()
            raise
        return sock, info

    async def _keep(self, slot: int, sock: socket.socket,
                    info: Dict[str, Any]) -> None:
        """Serve the agent in ``slot`` and, each time it is lost, redial
        it until ``max_redials`` dials in a row fail.  The slot stays
        tended throughout, so the pool never reads "no agent left, none
        coming" while a redial is pending."""
        host, port = self.hosts[slot]
        loop = asyncio.get_running_loop()
        try:
            while sock is not None:
                reader, writer = await asyncio.open_connection(sock=sock)
                link = AgentLink(slot, f"{host}:{port}", info, writer)
                self._sessions.append(link)
                self.register(link)
                await self.serve(link, reader)
                sock, delay = None, SUPERVISION_TICK
                for failures in range(self.max_redials):
                    await asyncio.sleep(delay)
                    try:
                        sock, info = await loop.run_in_executor(
                            None, self._dial, slot
                        )
                        break
                    except (OSError, ProtocolError, EOFError):
                        # Seeded exponential backoff with deterministic
                        # jitter (the runner's retry policy, reused):
                        # failed dials to one address space out
                        # geometrically from one supervision tick,
                        # capped at 2 s, and the per-address jitter
                        # keeps a roster that lost several agents at
                        # once from redialing them in lockstep.
                        delay = seeded_backoff(
                            SUPERVISION_TICK, self.backoff_seed,
                            f"reconnect:{host}:{port}", failures + 2,
                            cap=2.0,
                        )
        finally:
            self._tended.discard(slot)  # budget spent, or closed


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


class LeasePool(DispatchPool):
    """The one remote pool: agent dispatch behind the runner's pool
    interface.

    The sweep runner drives this exactly like :class:`SupervisedPool` —
    submit tasks, poll events — but executors are the live links of an
    :class:`AgentRegistry` (agents dialed in to ``repro serve``, or a
    ``--hosts`` :class:`HostRoster`), and every dispatch is a **lease**:

    - a lease expires when its agent disconnects, goes silent past
      :meth:`effective_lease_timeout` (the supervisor's adaptive
      deadline over observed lease durations), or draws the
      ``lease_expire`` chaos kind — and the setup requeues at the head
      of the queue **at the same attempt number**;
    - a lost agent's link leaves dispatch at once;
    - results are matched by ``(index, attempt)`` and the task key the
      agent echoes: a late duplicate from an expired lease (or from a
      study that already finished) is counted and dropped, so
      at-least-once dispatch stays exactly-once in the report;
    - a collected result's agent gets its next queued setup before
      :meth:`poll` returns the result (refill before report, as in
      every dispatch pool);
    - an idle agent steals the newest solely-held lease of any agent
      sitting on more than one, re-dispatching it — first result wins;
    - a link rejoining a slot (a roster redial) is a ``respawn``;
    - with work outstanding but no agents at all, the pool emits
      ``degraded`` so the runner finishes in-process, honestly: at once
      when the registry expects no agent, else after
      ``agentless_grace`` seconds.

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
        super().__init__(heartbeat_interval)
        self.registry = registry
        self.fault_plan = fault_plan
        self.lease_timeout = lease_timeout
        self.agentless_grace = agentless_grace
        self._on_lease = on_lease or (lambda index, attempt, agent: None)
        self._on_requeue = on_requeue or (lambda index, attempt, reason: None)
        self._leases: Dict[int, _Lease] = {}
        self._lost: Set[int] = set()  # id()s of links already failed
        self._slots: Set[int] = set()  # slots a link has joined
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
        registry, which may serve the next study's pool)."""
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

    def _load(self, link: AgentLink) -> int:
        return len(link.in_flight)

    def _outstanding(self) -> bool:
        return bool(self._leases)

    def _send(self, link: AgentLink, task: Task, count: int) -> bool:
        plan = self.fault_plan
        if plan is not None and plan.fires("net_partition", task.key, count):
            # The network dies as we dispatch: nothing is sent, the
            # dispatch is spent (so a transient partition clears on the
            # re-dispatch), and the link fails over like any other loss.
            self._dispatched[task.index] = count
            self._lose(link, "crash")
            return False
        corrupt = plan is not None and plan.fires(
            "message_corrupt", task.key, count
        )
        if not self._send_task(link, task, count, corrupt):
            self._lose(link, "crash")
            return False
        self._grant(link, task, count)
        return True

    def _scan_liveness(self) -> None:
        self._scan_leases()
        # An agent silent past the lease deadline is partitioned,
        # whatever TCP thinks; its leases requeue through the loss path.
        now = time.monotonic()
        silence = max(self.effective_lease_timeout(),
                      4 * self.heartbeat_interval)
        for link in self._executors():
            if now - link.last_recv > silence:
                self._lose(link, "hang")
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
            kind, link = item[0], item[1]
            if kind == "joined":
                self._agentless_since = None
                if link.slot in self._slots:
                    # Not the slot's first join, so its agent is back
                    # after a loss; a first join whose link was lost
                    # before this read is no reconnect.
                    self._events.append(PoolEvent(
                        "respawn", worker=link.slot, label=link.label
                    ))
                self._slots.add(link.slot)
            elif kind == "lost":
                self._lose(link, "crash")
            elif kind == "result":
                self._accept_result(link, item[2])
            try:
                item = self.registry.inbox.get_nowait()
            except queue.Empty:
                return False

    # -- leases -----------------------------------------------------------

    def _send_task(self, link: AgentLink, task: Task, count: int,
                   corrupt: bool = False) -> bool:
        """Write one task frame; False when the link is known lost."""
        return self.registry.send(link, "task", {
            "key": task.key,
            "dispatch": count,
            "payload": payload_to_wire(task.payload),
        }, corrupt=corrupt)

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
        # A lease always has a holder: the last one lost drops the lease.
        first = lease.links[0]
        self._fail_over("hang", first.slot, [lease.task], first.label)

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
        """Fail a lost link over: take it out of dispatch, requeue every
        lease it held *solely*, and make sure its transport is closed."""
        if id(link) in self._lost:
            return
        self._lost.add(id(link))
        # Out of dispatch now: the registry drops the link only once the
        # loop has closed its transport, and the refill later in this
        # very pass must not lease a requeued setup straight back to it.
        link.lost = True
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

    def _accept_result(self, link: AgentLink, data: Dict[str, Any]) -> None:
        """Take one result frame.  A frame can pass its checksum and
        still carry an outcome that is not ``[kind, int index, int
        attempt, data]`` (a version-skewed agent, say): that fails the
        link over at the same attempt, exactly like a corrupt frame."""
        outcome = data.get("outcome")
        if not (
            isinstance(outcome, list)
            and len(outcome) == 4
            and isinstance(outcome[0], str)
            # Index and attempt are exact ints: JSON ``true`` is no index.
            and all(type(n) is int for n in outcome[1:3])
            and isinstance(outcome[3], dict)
        ):
            self._lose(link, "crash")
            return
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
        link.results += 1
        self._durations.observe(time.monotonic() - lease.granted)
        del self._leases[index]
        for holder in lease.links:
            holder.in_flight.pop(index, None)
        self._events.append(PoolEvent(
            "result",
            worker=link.slot,
            task=lease.task,
            result=tuple(outcome),
            records=data.get("records"),
            label=link.label,
        ))

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
        """Degrade honestly when work is stuck with nobody to do it: at
        once when the registry expects no agent, else after
        ``agentless_grace`` seconds without one."""
        if self._executors():
            self._agentless_since = None
            return
        now = time.monotonic()
        if self._agentless_since is None:
            self._agentless_since = now
        if self._degraded or (
            self.registry.expecting()
            and now - self._agentless_since <= self.agentless_grace
        ):
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

    async def _handle_agent(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """One dialed-in agent: challenge handshake, then the registry's
        read loop until the connection dies."""
        peer = writer.get_extra_info("peername") or ("?", 0)
        label = f"{peer[0]}:{peer[1]}"
        try:
            opening = challenge()
            writer.write(encode_message("challenge", opening))
            await writer.drain()
            kind, data = await asyncio.wait_for(read_frame(reader), 30.0)
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
            reason = await self.registry.serve(link, reader)
            self._log(f"agent {label} lost: {reason}")
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                ProtocolError, asyncio.TimeoutError):
            pass  # a failed handshake: no link was registered
        except asyncio.CancelledError:
            pass  # loop teardown at shutdown; serve has cleaned up
        finally:
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
