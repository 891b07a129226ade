"""Supervised worker pool: liveness-tracked processes with failover.

The bare ``ProcessPoolExecutor`` the sweep runner started with treats a
dead worker as a deadlocked future and a wedged worker as a busy one; a
5,000-setup sweep stalls at setup 4,817 and the campaign dies with it.
:class:`SupervisedPool` replaces it with long-lived worker processes the
parent actively supervises:

- **heartbeats** — each worker runs a daemon thread stamping
  ``time.monotonic()`` into a shared array slot every
  ``heartbeat_interval`` seconds; the parent reads the slots on every
  poll, so liveness is a property it *observes*, not one it assumes;
- **crash detection** — a dead PID (process sentinel) or a broken pipe
  is detected within one supervision tick, whatever the worker was
  doing;
- **hang detection** — a busy worker whose heartbeat goes stale past
  ``hang_timeout`` is declared wedged and killed; the engine-level
  watchdogs catch a hung *task*, this catches a hung *process*;
- **failover** — the in-flight task of a failed worker is requeued at
  the head of the queue **at the same attempt number**: a worker death
  is an infrastructure fault and must not consume the measurement's
  retry budget (that distinction is what keeps a chaos-injected sweep's
  report byte-identical to a fault-free one);
- **bounded respawn** — each failed worker is replaced until
  ``max_respawns`` replacements have been spent; when the budget is
  exhausted and the last worker dies, the pool emits a ``degraded``
  event carrying every unfinished task so the caller can finish them
  in-process and report the degradation honestly.

The pool is deliberately generic: it moves opaque ``Task.payload``
values through ``task_fn`` and never imports the runner, so the
runner → supervisor dependency stays one-way.  :class:`InlinePool` is
the same dispatch core with the calling thread as its one executor.

Chaos testing: when a :class:`~repro.faults.FaultPlan` with
``worker_crash_rate`` / ``worker_hang_rate`` is installed, workers draw
those faults *on task receipt*, keyed by the task's fault key and its
parent-tracked **dispatch count** (first dispatch, first failover
re-dispatch, ...).  A transient chaos fault therefore clears when the
replacement worker re-receives the task, while a permanent one burns
respawns until the pool degrades — both paths deterministic, both
covered by tests.
"""

from __future__ import annotations

import collections
import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: How long an injected ``worker_hang`` sleeps; far beyond any sane
#: ``hang_timeout``, so only the supervisor's deadline can end it.
_HANG_SLEEP = 3600.0

#: Hang threshold used while ``hang_timeout=None`` pools are still
#: collecting duration samples (and by pools that cannot adapt).
DEFAULT_HANG_TIMEOUT = 5.0

#: Adaptive mode: completed-task durations kept in the rolling window.
_ADAPTIVE_WINDOW = 64
#: Samples required before the adaptive threshold replaces the default.
_ADAPTIVE_MIN_SAMPLES = 5
#: The adaptive threshold is this multiple of the rolling p95 duration —
#: generous enough that a merely slow task is never declared hung.
_ADAPTIVE_MULTIPLIER = 10.0
#: Adaptive clamp: never below a few heartbeats, never above this.
_ADAPTIVE_CEILING = 120.0

#: A gap between liveness scans longer than this (and longer than a few
#: heartbeats) means the *parent* stalled — SIGSTOP, suspend/resume, a
#: debugger — and every heartbeat is stale by the same amount.
_PARENT_STALL_FLOOR = 1.0

#: Longest one :meth:`DispatchPool.poll` pass blocks waiting for its
#: executors (never longer than a heartbeat) before the pool re-runs its
#: liveness scans.  Results, deaths and wake-ups end the wait early, so
#: this bounds only how stale a scan can get on a quiet pool.
SUPERVISION_TICK = 0.05


def adaptive_deadline(
    configured: Optional[float],
    heartbeat_interval: float,
    durations: "obs_metrics.Histogram",
) -> float:
    """The liveness deadline in force given observed task durations.

    One policy, two consumers: :class:`SupervisedPool` uses it as the
    hang threshold for busy workers, and the sweep service's lease
    pool uses it as the lease expiry for dispatched setups — both are
    answers to "how long may this unit of work stay silent before we
    declare its executor gone?", so they must not drift apart.

    A ``configured`` value is used verbatim.  Otherwise the deadline
    adapts: :data:`_ADAPTIVE_MULTIPLIER` × the rolling p95 of completed
    durations in ``durations``, clamped below by a few heartbeat
    intervals (a stale heartbeat needs several missed beats to mean
    anything) and above by :data:`_ADAPTIVE_CEILING`; until
    :data:`_ADAPTIVE_MIN_SAMPLES` completions have been observed it
    falls back to :data:`DEFAULT_HANG_TIMEOUT`, also floored by the
    heartbeat interval.
    """
    if configured is not None:
        return configured
    floor = max(4 * heartbeat_interval, 1.0)
    if durations.count < _ADAPTIVE_MIN_SAMPLES:
        return max(DEFAULT_HANG_TIMEOUT, floor)
    p95 = durations.quantile(0.95)
    return min(_ADAPTIVE_CEILING, max(floor, _ADAPTIVE_MULTIPLIER * p95))


@dataclass
class Task:
    """One unit of work, with the identity failover accounting needs.

    Attributes:
        index: the request index; the pool tracks dispatch counts per
            index for chaos-fault draws.
        key: the measurement's fault-draw identity
            (:func:`repro.faults.fault_key`).
        attempt: the *measurement* attempt this payload encodes —
            preserved verbatim when the task is requeued after a worker
            failure, never incremented by the pool.
        payload: opaque value handed to the pool's ``task_fn``.
    """

    index: int
    key: str
    attempt: int
    payload: Any


@dataclass
class PoolEvent:
    """One supervision event from :meth:`DispatchPool.poll`.

    ``kind`` is one of:

    - ``"result"`` — ``task`` finished; ``result`` is ``task_fn``'s
      return value and ``records`` the worker's trace-span dicts (None
      when tracing is off);
    - ``"crash"`` — a worker died (dead PID / broken pipe; for remote
      pools: the connection was lost); ``tasks`` lists every in-flight
      task that was requeued (empty if the worker was idle);
    - ``"hang"`` — a worker missed its heartbeat deadline and was
      killed (for remote pools: declared partitioned, or a lease
      expired); ``tasks`` as for ``"crash"``;
    - ``"respawn"`` — a replacement worker was started in the failed
      worker's slot (for remote pools: the agent was reconnected);
    - ``"degraded"`` — the respawn (or reconnect) budget is spent and
      no workers remain; ``tasks`` holds every task the pool could not
      finish.

    ``label`` names the executor for human-facing output and trace-span
    aliases: empty for local worker pools, ``"host:port"`` for remote
    agents.
    """

    kind: str
    worker: int = -1
    task: Optional[Task] = None
    result: Any = None
    records: Optional[List[Dict[str, Any]]] = None
    tasks: List[Task] = field(default_factory=list)
    label: str = ""


class DispatchPool:
    """The dispatch core every pool shares; the sweep runner drives it.

    A dispatch pool moves opaque :class:`Task` payloads to executors
    (local worker processes, remote agents over TCP, ...) and reports
    everything that happens as a stream of :class:`PoolEvent` values.
    This class owns the contract the runner relies on:

    - :meth:`submit` queues a task; dispatch happens inside
      :meth:`poll`, so a caller that stops polling stops supervision;
    - :meth:`poll` returns the next event, or None when the pool is
      drained (nothing queued, nothing in flight), ``timeout`` elapses,
      or a transport hook reports a wake-up;
    - tasks go out head of the queue first, and each index's dispatches
      are numbered 1, 2, ... — the numbers chaos-fault draws key on;
    - refill before report: when :meth:`poll` collects a result, the
      executor it freed is handed its next queued task *before* the
      result is returned, so the caller's per-result bookkeeping
      overlaps the next run instead of delaying it;
    - a failed executor's in-flight tasks are requeued at the head of
      the queue **at the same attempt number** — infrastructure failure
      never consumes a measurement's retry budget;
    - after the single ``"degraded"`` event the pool is spent: the
      caller owns every task the event carries (plus any it still
      tracks as outstanding) and must finish them itself;
    - :meth:`close` releases every executor and is idempotent.

    A pool supplies only its transport and its policy, through the
    hooks below: its live executors and their load (each executor has a
    ``capacity``), the send of one task, the liveness scans that run at
    the top of every pass, the blocking collection of results, and
    :meth:`close`.
    """

    def __init__(self, heartbeat_interval: float) -> None:
        self.heartbeat_interval = heartbeat_interval
        self._queue: Deque[Task] = collections.deque()
        self._events: Deque[PoolEvent] = collections.deque()
        self._dispatched: Dict[int, int] = {}
        self._degraded = False
        self._closed = False

    def submit(self, task: Task) -> None:
        """Queue ``task`` for dispatch on the next :meth:`poll`."""
        self._queue.append(task)

    def poll(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        """The next supervision event (None: drained, timed out or woken).

        Each pass dispatches, runs the pool's liveness scans, blocks in
        the transport until a result or failure arrives (one supervision
        tick at most), and refills every freed executor before it
        reports anything it collected.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._events:
                return self._events.popleft()
            if not self._queue and not self._outstanding():
                return None
            self._dispatch_queued()
            self._scan_liveness()
            if self._events:
                continue  # a dispatch or a scan failed an executor
            woken = self._collect(deadline)
            self._dispatch_queued()  # refill before report
            if self._events:
                continue
            if woken or (
                deadline is not None and time.monotonic() >= deadline
            ):
                return None

    def stats(self) -> Dict[str, int]:
        """Instantaneous utilisation for the metrics timeline: live and
        busy executors, and queued (undispatched) task depth."""
        loads = [self._load(ex) for ex in self._executors()]
        return {
            "workers_alive": len(loads),
            "workers_busy": sum(1 for load in loads if load),
            "queue_depth": len(self._queue),
        }

    def close(self) -> None:
        """Release every executor (idempotent)."""
        raise NotImplementedError

    def __enter__(self) -> "DispatchPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- shared steps -----------------------------------------------------

    def _dispatch_queued(self) -> None:
        for executor in self._executors():
            while self._queue and self._load(executor) < executor.capacity:
                task = self._queue[0]  # pop only after a successful send
                count = self._dispatched.get(task.index, 0) + 1
                if not self._send(executor, task, count):
                    break  # the executor failed over; try the next one
                self._queue.popleft()
                self._dispatched[task.index] = count

    def _fail_over(
        self, reason: str, worker: int, tasks: List[Task], label: str = ""
    ) -> None:
        """Report a failed executor and requeue its tasks: failover, not
        retry — back to the head of the queue, in order, at the same
        measurement attempt."""
        self._queue.extendleft(reversed(tasks))
        self._events.append(
            PoolEvent(reason, worker=worker, tasks=list(tasks), label=label)
        )

    def _degrade(self, leased: Sequence[Task] = ()) -> None:
        """No executor left and none coming: hand every unfinished task
        (``leased`` first, then the queue) back, once, so the caller can
        degrade honestly instead of stalling forever."""
        if self._degraded:
            return
        self._degraded = True
        tasks = list(leased) + list(self._queue)
        self._queue.clear()
        self._events.append(PoolEvent("degraded", tasks=tasks))

    def _wait_budget(self, deadline: Optional[float]) -> float:
        """How long one pass may block in :meth:`_collect`: a supervision
        tick (never longer than a heartbeat), cut short by ``deadline``."""
        wait = min(SUPERVISION_TICK, self.heartbeat_interval)
        if deadline is not None:
            wait = max(0.0, min(wait, deadline - time.monotonic()))
        return wait

    # -- transport and policy hooks ---------------------------------------

    def _executors(self) -> List[Any]:
        """Live executors, in dispatch order."""
        raise NotImplementedError

    def _load(self, executor: Any) -> int:
        """Tasks ``executor`` is running."""
        raise NotImplementedError

    def _outstanding(self) -> bool:
        """Whether any dispatched task is still unsettled."""
        return any(self._load(ex) for ex in self._executors())

    def _send(self, executor: Any, task: Task, count: int) -> bool:
        """Hand ``task`` to ``executor`` as dispatch number ``count``;
        False when the executor failed over instead."""
        raise NotImplementedError

    def _scan_liveness(self) -> None:
        """The pool's own failure policy, run at the top of every pass."""
        raise NotImplementedError

    def _collect(self, deadline: Optional[float]) -> bool:
        """Block for at most :meth:`_wait_budget` and gather what arrived
        into events; True when the caller asked to be woken."""
        raise NotImplementedError


def run_task(
    task_fn: Callable[[Any], Any], payload: Any, tracing: bool
) -> Tuple[Any, Optional[List[Dict[str, Any]]]]:
    """Run one task; returns ``(result, records)``.  With ``tracing`` the
    task runs in a fresh tracer and ``records`` holds its span dicts, for
    the caller to graft; otherwise ``records`` is None."""
    if not tracing:
        return task_fn(payload), None
    tracer = obs_trace.Tracer(label="task")
    with obs_trace.tracing(tracer):
        result = task_fn(payload)
    return result, tracer.to_dicts()


class InlinePool(DispatchPool):
    """The dispatch core with one executor: the calling thread.

    :meth:`poll` runs the next queued task to completion on the thread
    that calls it: no worker process, no pickling, no chaos draw, and so
    no failover and no ``degraded`` event.  A dispatched task stays held
    until it has run, so :meth:`stats`, read from a sampler thread,
    counts the executor busy for as long as a task runs.

    Args:
        task_fn: callable run on each task's payload, in the caller.
        tracing: as for :class:`SupervisedPool`: each task runs in a
            fresh tracer and its span records come back with the result.
    """

    #: The calling thread runs one task at a time.
    capacity = 1

    def __init__(
        self, task_fn: Callable[[Any], Any], tracing: bool = False
    ) -> None:
        super().__init__(heartbeat_interval=SUPERVISION_TICK)
        self.task_fn = task_fn
        self.tracing = tracing
        self._task: Optional[Task] = None

    def close(self) -> None:
        """Drop every task not yet run (idempotent)."""
        self._closed = True
        self._task = None
        self._queue.clear()

    def _executors(self) -> List["InlinePool"]:
        return [] if self._closed else [self]

    def _load(self, executor: "InlinePool") -> int:
        return 0 if self._task is None else 1

    def _send(self, executor: "InlinePool", task: Task, count: int) -> bool:
        self._task = task
        return True

    def _scan_liveness(self) -> None:
        pass  # the executor is the caller: it cannot die or hang alone

    def _collect(self, deadline: Optional[float]) -> bool:
        task = self._task
        result, records = run_task(self.task_fn, task.payload, self.tracing)
        self._task = None
        self._events.append(
            PoolEvent("result", task=task, result=result, records=records)
        )
        return False


def _worker_main(
    slot: int,
    conn,
    heartbeats,
    interval: float,
    plan: Optional[faults.FaultPlan],
    task_fn: Callable[[Any], Any],
    tracing: bool,
    child_setup: Optional[Callable[[], None]] = None,
) -> None:
    """Worker process loop: beat, receive, (maybe) chaos, work, send."""
    if child_setup is not None:
        child_setup()
    # With a fork start method the child inherits the parent's active
    # tracer and fault plan; make both explicit.
    obs_trace.install(None)
    faults.install(plan)
    wedged = threading.Event()

    def beat() -> None:
        while True:
            if not wedged.is_set():
                heartbeats[slot] = time.monotonic()
            time.sleep(interval)

    threading.Thread(
        target=beat, daemon=True, name=f"heartbeat-{slot}"
    ).start()

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if msg is None:  # orderly shutdown
            return
        key, dispatch, payload = msg
        if plan is not None and plan.fires("worker_crash", key, dispatch):
            # Die the way a segfault or OOM kill would: no cleanup, no
            # exception, no goodbye on the pipe.
            os._exit(139)
        if plan is not None and plan.fires("worker_hang", key, dispatch):
            # Wedge the whole process: stop the heartbeat and never
            # produce a result.  Only the supervisor's missed-heartbeat
            # deadline can recover the sweep from this.
            wedged.set()
            time.sleep(_HANG_SLEEP)
        result, records = run_task(task_fn, payload, tracing)
        try:
            conn.send((result, records))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side handle: process, pipe, and what it is working on."""

    __slots__ = ("slot", "proc", "conn", "task", "dispatched_at")

    #: A worker process runs one task at a time.
    capacity = 1

    def __init__(self, slot: int, proc, conn) -> None:
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.task: Optional[Task] = None
        self.dispatched_at = 0.0


class SupervisedPool(DispatchPool):
    """A pool of supervised worker processes.

    Args:
        workers: worker process count (also the heartbeat slot count;
            replacements reuse their predecessor's slot).
        task_fn: module-level callable run on each task's payload in the
            worker.
        fault_plan: plan installed in every worker; also consulted there
            for ``worker_crash`` / ``worker_hang`` chaos draws.
        heartbeat_interval: seconds between worker heartbeat stamps.
        hang_timeout: a busy worker whose heartbeat is staler than this
            is declared hung and killed.  None (the default) adapts the
            threshold to the observed workload: a clamped multiple of
            the rolling p95 task duration (see
            :meth:`effective_hang_timeout`), so short-task sweeps detect
            a wedged worker in seconds while long-running measurements
            aren't falsely declared hung.
        max_respawns: total replacement workers the pool may start over
            its lifetime before degrading.
        tracing: when True, workers trace each task into a fresh tracer
            and ship the span records back with the result.
        context: multiprocessing context (default: the platform's).
        child_setup: module-level callable run first thing in every
            worker child.  Fork-started children inherit every open file
            descriptor; a parent embedding the pool in a network server
            uses this to drop the child's copies of its sockets (see
            :func:`repro.core.distributed.close_inherited_sockets`) —
            otherwise a socket the parent closes never reaches EOF at
            the peer while any worker still holds the inherited fd.
        wake: a readable handle (socket or fd) the parent's own message
            source rings; :meth:`poll` waits on it beside the workers
            and returns None as soon as it is readable, so an embedding
            server blocks in one place and never sleeps through a
            message.  The caller drains it.
    """

    # Bound here, not only inherited, so each pool's entry points live
    # in its own class namespace: perfbench wraps ``vars(cls)[name]`` and
    # so times the supervisor and the lease layer apart.
    submit = DispatchPool.submit
    poll = DispatchPool.poll

    def __init__(
        self,
        workers: int,
        task_fn: Callable[[Any], Any],
        fault_plan: Optional[faults.FaultPlan] = None,
        heartbeat_interval: float = 0.2,
        hang_timeout: Optional[float] = None,
        max_respawns: int = 8,
        tracing: bool = False,
        context=None,
        child_setup: Optional[Callable[[], None]] = None,
        wake=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(heartbeat_interval)
        self.task_fn = task_fn
        self.fault_plan = fault_plan
        self.hang_timeout = hang_timeout
        self.max_respawns = max_respawns
        self.tracing = tracing
        self.child_setup = child_setup
        self.wake = wake
        self._ctx = context if context is not None else mp.get_context()
        self._heartbeats = self._ctx.Array("d", workers, lock=False)
        #: Rolling window of completed-task wall times (adaptive mode):
        #: a windowed obs histogram, so the p95 the liveness scan uses is
        #: the same deterministic fixed-bin quantile the metrics layer
        #: reports everywhere else.
        self._durations = obs_metrics.Histogram(
            "supervisor.task_seconds", window=_ADAPTIVE_WINDOW
        )
        self._workers: List[_Worker] = []
        self._respawns = 0
        #: Parent-side stalls detected (and credited back to workers).
        self.parent_stalls = 0
        self._last_scan = time.monotonic()
        for slot in range(workers):
            self._workers.append(self._spawn(slot))

    # -- introspection ----------------------------------------------------

    @property
    def respawns(self) -> int:
        """Replacement workers started so far."""
        return self._respawns

    def effective_hang_timeout(self) -> float:
        """The hang threshold in force for the next liveness scan.

        A configured ``hang_timeout`` is used verbatim.  In adaptive
        mode (``hang_timeout=None``) the threshold is
        :data:`_ADAPTIVE_MULTIPLIER` × the rolling p95 of completed-task
        durations, clamped below by a few heartbeat intervals (a stale
        heartbeat needs several missed beats to mean anything) and above
        by :data:`_ADAPTIVE_CEILING`; until
        :data:`_ADAPTIVE_MIN_SAMPLES` tasks have completed it falls back
        to :data:`DEFAULT_HANG_TIMEOUT` — also floored by the heartbeat
        interval, so a slow-beating config cannot have healthy busy
        workers declared hung during warm-up.  (Policy shared with the
        sweep service's lease expiry; see :func:`adaptive_deadline`.)
        """
        return adaptive_deadline(
            self.hang_timeout, self.heartbeat_interval, self._durations
        )

    # -- lifecycle --------------------------------------------------------

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        self._heartbeats[slot] = time.monotonic()  # grace until first beat
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                slot,
                child_conn,
                self._heartbeats,
                self.heartbeat_interval,
                self.fault_plan,
                self.task_fn,
                self.tracing,
                self.child_setup,
            ),
            daemon=True,
            name=f"repro-worker-{slot}",
        )
        proc.start()
        child_conn.close()
        return _Worker(slot, proc, parent_conn)

    def close(self) -> None:
        """Shut every worker down (politely, then not)."""
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        grace = time.monotonic() + 5.0
        for w in self._workers:
            w.proc.join(max(0.0, grace - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(1.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(1.0)
            try:
                w.conn.close()
            except OSError:
                pass
        self._workers.clear()
        self._queue.clear()

    # -- dispatch-core hooks ----------------------------------------------

    def _executors(self) -> List[_Worker]:
        return [w for w in self._workers if w.proc.is_alive()]

    def _load(self, w: _Worker) -> int:
        return 0 if w.task is None else 1

    def _outstanding(self) -> bool:
        # Every worker, dead or alive: a dead worker's task is still
        # owed to the caller until the next scan fails it over.
        return any(w.task is not None for w in self._workers)

    def _send(self, w: _Worker, task: Task, count: int) -> bool:
        try:
            w.conn.send((task.key, count, task.payload))
        except (BrokenPipeError, OSError):
            self._fail(w, "crash")
            return False
        w.task = task
        w.dispatched_at = time.monotonic()
        # Reset the slot so a worker that beat long ago (idle wait)
        # gets a full hang_timeout for this task.
        self._heartbeats[w.slot] = w.dispatched_at
        return True

    def _collect(self, deadline: Optional[float]) -> bool:
        """Block until a busy worker reports, a worker dies, the wake
        handle fires or the pass's wait budget runs out, then reap every
        result; True when the wake handle fired."""
        handles = [w.conn for w in self._workers if w.task is not None]
        handles += [w.proc.sentinel for w in self._workers]
        if self.wake is not None:
            handles.append(self.wake)
        woken = False
        if handles:
            try:
                ready = mp_connection.wait(
                    handles, self._wait_budget(deadline)
                )
            except OSError:
                ready = []
            woken = self.wake is not None and self.wake in ready
        self._reap_results()
        return woken

    # -- supervision internals --------------------------------------------

    def _reap_results(self) -> None:
        for w in list(self._workers):
            if w.task is None:
                continue
            try:
                ready = w.conn.poll(0)
            except (BrokenPipeError, OSError):
                self._fail(w, "crash")
                continue
            if not ready:
                continue
            try:
                result, records = w.conn.recv()
            except (EOFError, OSError):
                self._fail(w, "crash")
                continue
            self._durations.observe(time.monotonic() - w.dispatched_at)
            self._report(w, result, records)

    def _report(self, w: _Worker, result: Any, records) -> None:
        task, w.task = w.task, None
        self._events.append(
            PoolEvent(
                "result",
                worker=w.slot,
                task=task,
                result=result,
                records=records,
            )
        )

    def _scan_liveness(self) -> None:
        now = time.monotonic()
        deadline = self.effective_hang_timeout()
        gap = now - self._last_scan
        self._last_scan = now
        if gap > max(2 * self.heartbeat_interval, _PARENT_STALL_FLOOR):
            # The parent itself went dark between scans (SIGSTOP storm,
            # laptop suspend, a tracing debugger): a SIGSTOP of the whole
            # process group froze the workers' beat threads too, so on
            # resume every heartbeat looks ``gap`` seconds staler than
            # the worker deserves.  Credit the unobserved interval back
            # instead of declaring every busy worker hung — time the
            # supervisor wasn't watching must not count against the
            # watched.  Crash detection below is unaffected (a dead PID
            # is dead regardless of clocks); a genuinely hung worker is
            # still caught, at most one deadline later.
            self.parent_stalls += 1
            for w in self._workers:
                self._heartbeats[w.slot] = min(
                    now, self._heartbeats[w.slot] + gap
                )
            obs_trace.instant(
                "parent_stall_rebaseline",
                category="supervisor",
                gap=round(gap, 3),
            )
        for w in list(self._workers):
            if not w.proc.is_alive():
                self._fail(w, "crash")
            elif (
                w.task is not None
                and now - self._heartbeats[w.slot] > deadline
            ):
                self._fail(w, "hang")

    def _fail(self, w: _Worker, reason: str) -> None:
        """Tear down a failed worker: salvage, requeue, respawn."""
        if w not in self._workers:
            return
        # A worker that finished its task and *then* died must not cost
        # the sweep a measurement: drain anything buffered in the pipe
        # before tearing it down.
        try:
            while w.task is not None and w.conn.poll(0):
                result, records = w.conn.recv()
                self._report(w, result, records)
        except (EOFError, OSError):
            pass
        task, w.task = w.task, None
        if w.proc.is_alive():
            w.proc.terminate()
            w.proc.join(5.0)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(5.0)
        else:
            w.proc.join(5.0)
        try:
            w.conn.close()
        except OSError:
            pass
        self._workers.remove(w)
        self._fail_over(reason, w.slot, [] if task is None else [task])
        if self._respawns < self.max_respawns:
            self._respawns += 1
            self._workers.append(self._spawn(w.slot))
            self._events.append(PoolEvent("respawn", worker=w.slot))
        elif not self._workers:
            self._degrade()
