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
  is detected within one poll interval, whatever the worker was doing;
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
runner → supervisor dependency stays one-way.

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
from typing import Any, Callable, Deque, Dict, List, Optional

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
      pools: the connection was lost); ``task`` is the in-flight task
      that was requeued, or None if it was idle — remote pools, whose
      workers run several tasks at once, list every requeued task in
      ``tasks`` instead;
    - ``"hang"`` — a worker missed its heartbeat deadline and was
      killed (for remote pools: declared partitioned); ``task`` /
      ``tasks`` as for ``"crash"``;
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
    """Transport-agnostic dispatch interface the sweep runner drives.

    A dispatch pool moves opaque :class:`Task` payloads to executors
    (local worker processes, remote agents over TCP, ...) and reports
    everything that happens as a stream of :class:`PoolEvent` values.
    The contract the runner relies on:

    - :meth:`submit` queues a task; dispatch happens inside
      :meth:`poll`, so a caller that stops polling stops supervision;
    - :meth:`poll` returns the next event, or None when the pool is
      drained (nothing queued, nothing in flight) or ``timeout``
      elapses;
    - refill before report: when :meth:`poll` collects a result, the
      executor it freed is handed its next queued task *before* the
      result is returned, so the caller's per-result bookkeeping
      overlaps the next run instead of delaying it;
    - a failed executor's in-flight tasks are requeued **at the same
      attempt number** — infrastructure failure never consumes a
      measurement's retry budget;
    - after a ``"degraded"`` event the pool is spent: the caller owns
      every task the event carries (plus any it still tracks as
      outstanding) and must finish them itself;
    - :meth:`close` releases every executor and is idempotent.
    """

    def submit(self, task: Task) -> None:
        """Queue ``task`` for dispatch on the next :meth:`poll`."""
        raise NotImplementedError

    def poll(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        """The next supervision event (None: drained or timed out)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every executor (idempotent)."""
        raise NotImplementedError

    def __enter__(self) -> "DispatchPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
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
        if tracing:
            tracer = obs_trace.Tracer(label=f"worker-{slot}")
            with obs_trace.tracing(tracer):
                result = task_fn(payload)
            records: Optional[List[Dict[str, Any]]] = tracer.to_dicts()
        else:
            result = task_fn(payload)
            records = None
        try:
            conn.send((result, records))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Parent-side handle: process, pipe, and what it is working on."""

    __slots__ = ("slot", "proc", "conn", "task", "dispatched_at")

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
        poll_interval: parent-side supervision granularity (seconds).
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

    def __init__(
        self,
        workers: int,
        task_fn: Callable[[Any], Any],
        fault_plan: Optional[faults.FaultPlan] = None,
        heartbeat_interval: float = 0.2,
        hang_timeout: Optional[float] = None,
        max_respawns: int = 8,
        tracing: bool = False,
        poll_interval: float = 0.05,
        context=None,
        child_setup: Optional[Callable[[], None]] = None,
        wake=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.task_fn = task_fn
        self.fault_plan = fault_plan
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.max_respawns = max_respawns
        self.tracing = tracing
        self.poll_interval = poll_interval
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
        self._queue: Deque[Task] = collections.deque()
        self._events: Deque[PoolEvent] = collections.deque()
        self._dispatched: Dict[int, int] = {}
        self._workers: List[_Worker] = []
        self._respawns = 0
        self._closed = False
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

    def dispatch_count(self, index: int) -> int:
        """How many times task ``index`` has been sent to a worker."""
        return self._dispatched.get(index, 0)

    def alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.proc.is_alive())

    def stats(self) -> Dict[str, int]:
        """Instantaneous utilisation for the metrics timeline: worker
        liveness/busyness and queued (undispatched) task depth."""
        return {
            "workers_alive": self.alive_workers(),
            "workers_busy": sum(
                1 for w in self._workers if w.task is not None
            ),
            "queue_depth": len(self._queue),
        }

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

    def submit(self, task: Task) -> None:
        """Queue a task; it is dispatched on the next :meth:`poll`."""
        self._queue.append(task)

    def poll(self, timeout: Optional[float] = None) -> Optional[PoolEvent]:
        """The next supervision event.

        Returns None when the pool is drained — nothing queued, nothing
        in flight, no buffered events — when ``timeout`` seconds pass
        without an event, or when the ``wake`` handle fires.
        Dispatching, result collection, crash/hang detection and
        respawning all happen inside this call; a caller that stops
        polling stops supervision.  A worker freed by a result is given
        its next queued task before that result is returned.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            if self._events:
                return self._events.popleft()
            if not self._queue and all(
                w.task is None for w in self._workers
            ):
                return None
            self._dispatch_queued()
            if self._events:
                continue  # a dispatch may have failed a worker
            woken = self._wait_for_activity(deadline)
            self._reap_results()
            self._scan_liveness()
            self._dispatch_queued()  # refill before report
            if self._events:
                continue
            if woken or (
                deadline is not None and time.monotonic() >= deadline
            ):
                return None

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

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- supervision internals --------------------------------------------

    def _dispatch_queued(self) -> None:
        for w in list(self._workers):
            if not self._queue:
                return
            if w.task is not None or not w.proc.is_alive():
                continue
            task = self._queue[0]  # pop only after a successful send
            count = self._dispatched.get(task.index, 0) + 1
            try:
                w.conn.send((task.key, count, task.payload))
            except (BrokenPipeError, OSError):
                self._fail(w, "crash")
                continue
            self._queue.popleft()
            self._dispatched[task.index] = count
            w.task = task
            w.dispatched_at = time.monotonic()
            # Reset the slot so a worker that beat long ago (idle wait)
            # gets a full hang_timeout for this task.
            self._heartbeats[w.slot] = w.dispatched_at

    def _wait_for_activity(self, deadline: Optional[float]) -> bool:
        """Block until a busy worker reports, a worker dies, the wake
        handle fires, one supervision tick passes or ``deadline``
        arrives; True when the wake handle fired."""
        handles = [w.conn for w in self._workers if w.task is not None]
        handles += [w.proc.sentinel for w in self._workers]
        if self.wake is not None:
            handles.append(self.wake)
        if not handles:
            return False
        wait = min(self.poll_interval, self.heartbeat_interval)
        if deadline is not None:
            wait = max(0.0, min(wait, deadline - time.monotonic()))
        try:
            ready = mp_connection.wait(handles, wait)
        except OSError:
            return False
        return self.wake is not None and self.wake in ready

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
            task, w.task = w.task, None
            self._durations.observe(time.monotonic() - w.dispatched_at)
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
        if task is not None:
            # Failover, not retry: back to the head of the queue at the
            # same measurement attempt.
            self._queue.appendleft(task)
        self._events.append(PoolEvent(reason, worker=w.slot, task=task))
        if self._respawns < self.max_respawns:
            self._respawns += 1
            self._workers.append(self._spawn(w.slot))
            self._events.append(PoolEvent("respawn", worker=w.slot))
        elif not self._workers:
            # Budget spent and nobody left: hand every unfinished task
            # back so the caller can degrade honestly instead of
            # stalling forever.
            remaining = list(self._queue)
            self._queue.clear()
            self._events.append(PoolEvent("degraded", tasks=remaining))
