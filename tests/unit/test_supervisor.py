"""Unit tests: the supervised worker pool and its chaos harness.

Covers the supervision acceptance criteria: a sweep under injected
worker crashes/hangs produces a report byte-identical to the fault-free
serial run (failover never consumes retry budget), an exhausted respawn
budget degrades honestly to in-process execution naming every setup,
torn journal writes are recovered losslessly on resume, and worker trace
spans are grafted into the parent trace.
"""

import io
import socket
import time

import pytest

from repro import faults, workloads
from repro.core import Experiment, ExperimentalSetup
from repro.core.runner import RunnerConfig, SweepRunner, compact_journal
from repro.core.supervisor import SupervisedPool, Task
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace

WORKLOAD = "sphinx3"

SETUPS = [
    ExperimentalSetup(env_bytes=e) for e in (100, 116, 132, 148, 164, 180)
]

#: Chaos + measurement faults, all transient so every sweep completes.
CHAOS_PLAN = faults.FaultPlan(
    seed=3,
    hang_rate=0.4,
    verify_rate=0.3,
    worker_crash_rate=0.4,
    worker_hang_rate=0.25,
    transient_fraction=1.0,
    max_transient_attempts=2,
)

#: Supervision tuned for test wall-clock: fast heartbeats, short leash.
FAST_SUPERVISION = dict(
    heartbeat_interval=0.05, hang_timeout=1.0, backoff_base=0.001
)


def fresh_experiment():
    return Experiment(workloads.get(WORKLOAD))


def keys():
    exp = fresh_experiment()
    return [
        faults.fault_key(exp.workload.name, exp.size, exp.seed, s)
        for s in SETUPS
    ]


def run_sweep(jobs, plan=None, journal=None, max_retries=3, **cfg):
    runner = SweepRunner(
        fresh_experiment(),
        RunnerConfig(
            jobs=jobs, max_retries=max_retries, **{**FAST_SUPERVISION, **cfg}
        ),
        journal_path=journal,
        fault_plan=plan,
        sleep=lambda s: None,
    )
    return runner.run(SETUPS)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


def _echo(payload):
    return payload * 2


def _nap(seconds):
    time.sleep(seconds)
    return seconds


class TestSupervisedPool:
    @pytest.mark.slow
    def test_pool_runs_tasks_and_drains(self):
        with SupervisedPool(workers=2, task_fn=_echo) as pool:
            for i in range(5):
                pool.submit(Task(index=i, key=f"k{i}", attempt=1, payload=i))
            results = {}
            while True:
                event = pool.poll(timeout=30.0)
                if event is None:
                    break
                assert event.kind == "result"
                results[event.task.index] = event.result
        assert results == {i: i * 2 for i in range(5)}
        assert pool.respawns == 0

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(workers=0, task_fn=_echo)

    def test_refills_a_freed_worker_before_reporting(self):
        """The worker a result frees already holds the next queued task
        when poll hands that result to the caller."""
        first = Task(index=0, key="k0", attempt=1, payload=1)
        second = Task(index=1, key="k1", attempt=1, payload=2)
        with SupervisedPool(workers=1, task_fn=_echo) as pool:
            pool.submit(first)
            pool.submit(second)
            event = pool.poll(timeout=30.0)
            assert event.kind == "result" and event.task is first
            assert pool._workers[0].task is second
            event = pool.poll(timeout=30.0)
            assert event.task is second and event.result == 4
            assert pool.poll(timeout=30.0) is None

    def test_wake_handle_ends_a_busy_poll(self):
        """A rung wake handle returns poll early even while a worker is
        busy, and the busy task still reports afterwards."""
        wake, ring = socket.socketpair()
        try:
            with SupervisedPool(workers=1, task_fn=_nap, wake=wake) as pool:
                pool.submit(Task(index=0, key="k0", attempt=1, payload=1.0))
                ring.send(b"\0")
                assert pool.poll(timeout=30.0) is None
                assert pool._workers[0].task is not None  # still running
                wake.recv(16)
                event = pool.poll(timeout=30.0)
                assert event.kind == "result" and event.result == 1.0
        finally:
            wake.close()
            ring.close()


class TestChaosFailover:
    @pytest.mark.slow
    def test_chaos_parallel_report_is_byte_identical_to_serial(self):
        """The tentpole criterion: worker crashes and hangs are
        infrastructure faults — invisible in the report."""
        # The plan must actually exercise the supervision paths.
        assert any(
            CHAOS_PLAN.fires("worker_crash", k, 1) for k in keys()
        ), "chaos plan fires no crashes; pick a different seed"
        assert any(
            CHAOS_PLAN.fires("worker_hang", k, 1) for k in keys()
        ), "chaos plan fires no hangs; pick a different seed"
        serial = run_sweep(jobs=1, plan=CHAOS_PLAN)
        chaos = run_sweep(jobs=3, plan=CHAOS_PLAN)
        assert chaos.report.to_json() == serial.report.to_json()
        assert chaos.report.complete and not chaos.report.degraded
        assert [m.cycles for m in chaos.ok] == [m.cycles for m in serial.ok]

    @pytest.mark.slow
    def test_every_worker_hang_is_recovered_without_retries(self):
        """Failover must not consume the measurement retry budget: a hang
        on every first dispatch still yields a zero-retry report (the
        is_retryable double-count regression)."""
        plan = faults.FaultPlan(
            seed=5,
            worker_hang_rate=1.0,
            transient_fraction=1.0,
            max_transient_attempts=1,
        )
        baseline = run_sweep(jobs=1)
        result = run_sweep(jobs=2, plan=plan, max_respawns=12)
        rep = result.report
        assert rep.complete and not rep.degraded
        assert rep.retries == 0, "worker failover was charged as a retry"
        assert [m.cycles for m in result.ok] == [
            m.cycles for m in baseline.ok
        ]

    @pytest.mark.slow
    def test_exhausted_respawn_budget_degrades_honestly(self):
        """Permanent crashes burn the budget; the sweep must finish
        serially in-process and name every setup the pool dropped."""
        plan = faults.FaultPlan(
            seed=1, worker_crash_rate=1.0, transient_fraction=0.0
        )
        baseline = run_sweep(jobs=1)
        result = run_sweep(jobs=2, plan=plan, max_respawns=2)
        rep = result.report
        assert rep.degraded
        assert rep.degraded_setups == [s.describe() for s in SETUPS]
        assert "DEGRADED" in rep.summary_line()
        # Degraded, not silent-partial: the in-process fallback measured
        # everything (process chaos never fires in-process).
        assert rep.complete
        assert [m.cycles for m in result.ok] == [
            m.cycles for m in baseline.ok
        ]
        assert rep.to_dict()["degraded"] is True


class TestTornWriteRecovery:
    def test_torn_append_is_dropped_on_resume_and_compaction_is_lossless(
        self, tmp_path
    ):
        path = str(tmp_path / "sweep.jsonl")
        plan = faults.FaultPlan(
            seed=1,
            torn_write_rate=0.25,
            transient_fraction=1.0,
            max_transient_attempts=1,
        )
        exp = fresh_experiment()
        torn_at = [
            i
            for i, s in enumerate(SETUPS)
            if plan.fires(
                "journal_torn_write",
                faults.fault_key(exp.workload.name, exp.size, exp.seed, s),
                1,
            )
        ]
        assert torn_at and torn_at[0] > 0, "plan must tear mid-sweep"
        baseline = run_sweep(jobs=1)

        # The injected tear unwinds the sweep like a crash would —
        # uncatchable by per-measurement recovery.
        with pytest.raises(faults.TornWrite):
            run_sweep(jobs=1, plan=plan, journal=path)

        resumed = run_sweep(jobs=1, plan=plan, journal=path)
        rep = resumed.report
        # Exactly the torn record was dropped: everything journaled
        # before it resumes, it and everything after re-measures.
        assert rep.resumed == torn_at[0]
        assert rep.measured == len(SETUPS) - torn_at[0]
        assert rep.complete
        assert [m.cycles for m in resumed.ok] == [
            m.cycles for m in baseline.ok
        ]

        # Compaction preserves the checksummed records byte-for-byte...
        with open(path) as fh:
            before = {
                l for l in fh.read().splitlines() if '"measurement"' in l
            }
        stats = compact_journal(path)
        assert stats.records_after == len(SETUPS)
        with open(path) as fh:
            after = {
                l for l in fh.read().splitlines() if '"measurement"' in l
            }
        assert after == before
        # ...and resume from the compacted journal is lossless even with
        # the plan still active (the recovered tear does not re-fire).
        final = run_sweep(jobs=1, plan=plan, journal=path)
        assert final.report.resumed == len(SETUPS)
        assert final.report.measured == 0

    @pytest.mark.slow
    def test_torn_write_fires_in_parallel_mode_too(self, tmp_path):
        """Journal appends happen in the parent; the plan must scope
        around the parallel path as well."""
        path = str(tmp_path / "sweep.jsonl")
        plan = faults.FaultPlan(
            seed=1,
            torn_write_rate=0.25,
            transient_fraction=1.0,
            max_transient_attempts=1,
        )
        import json

        with pytest.raises(faults.TornWrite):
            run_sweep(jobs=2, plan=plan, journal=path)
        resumed = run_sweep(jobs=2, plan=plan, journal=path)
        assert resumed.report.complete
        # The tear was recovered and recorded durably (completion order
        # decides how many records preceded it, so `resumed` can be 0).
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["torn_recovered"] == 1
        assert resumed.report.resumed + resumed.report.measured == len(SETUPS)


class TestWorkerTraceGrafting:
    def _child_records(self):
        clock = iter(float(t) for t in range(100)).__next__
        child = obs_trace.Tracer(clock=clock, label="worker-0")
        with child.span("run", category="engine", index=3) as run:
            with child.span("profile", category="engine"):
                pass
            run.set(cycles=123.0)
        return child.to_dicts()

    def test_graft_rewrites_paths_ids_and_parents(self):
        clock = iter(float(t) for t in range(100)).__next__
        parent = obs_trace.Tracer(clock=clock)
        with parent.span("sweep", category="runner") as sweep_span:
            grafted = parent.graft(
                self._child_records(), parent=sweep_span, alias="setup@3.1"
            )
        run, profile = grafted
        assert run.path == "sweep#0/setup@3.1/run#0"
        assert profile.path == "sweep#0/setup@3.1/run#0/profile#0"
        # Deterministic ids re-derived from the rewritten paths.
        assert run.span_id == obs_trace.span_id_for_path(run.path)
        assert run.parent_id == sweep_span.span_id
        assert profile.parent_id == run.span_id
        assert run.depth == sweep_span.depth + 1
        assert profile.depth == run.depth + 1
        assert run.attrs["cycles"] == 123.0
        # Grafted spans are part of this tracer's record stream.
        assert set(grafted) <= set(parent.spans)

    def test_graft_is_rootable_and_empty_safe(self):
        parent = obs_trace.Tracer()
        assert parent.graft([]) == []
        grafted = parent.graft(self._child_records())
        assert grafted[0].path == "run#0"
        assert grafted[0].parent_id is None
        assert obs_trace.NULL_TRACER.graft(self._child_records()) == []

    @pytest.mark.slow
    def test_parallel_sweep_collects_worker_spans(self):
        tracer = obs_trace.Tracer()
        with obs_trace.tracing(tracer):
            result = run_sweep(jobs=2)
        assert result.report.complete
        worker_spans = [s for s in tracer.spans if "/setup@" in s.path]
        assert worker_spans, "no worker spans were grafted"
        names = {s.name for s in worker_spans}
        assert "run" in names  # the engine span, traced in the worker
        # Every setup's task shows up under the sweep span.
        aliases = {s.path.split("/")[1] for s in worker_spans}
        assert aliases == {f"setup@{i}.1" for i in range(len(SETUPS))}


class TestWorkerProgressEvents:
    def test_line_progress_reports_worker_lifecycle(self):
        buf = io.StringIO()
        reporter = obs_progress.LineProgress(buf)
        reporter.worker_event("crash", 1, index=4)
        reporter.worker_event("respawn", 1)
        reporter.worker_event("degraded", -1, detail="2 setups left")
        out = buf.getvalue()
        assert "WORKER CRASH w1 during #4" in out
        assert "WORKER RESPAWN w1" in out
        assert "WORKER DEGRADED: 2 setups left" in out

    def test_null_reporter_ignores_worker_events(self):
        obs_progress.NULL_PROGRESS.worker_event("hang", 0)


class TestParentStallRebaseline:
    """A SIGSTOP'd (or suspended) *parent* must not declare every busy
    worker hung on resume: the scan gap is credited back to the
    heartbeats (proven end-to-end by crashsim's parent_sigstop mode)."""

    def _pool(self):
        return SupervisedPool(
            workers=1, task_fn=_echo, hang_timeout=1.0,
            heartbeat_interval=0.05,
        )

    def test_scan_gap_credits_worker_heartbeats(self):
        with self._pool() as pool:
            pool._scan_liveness()  # settle the scan clock
            stalls_before = pool.parent_stalls
            w = pool._workers[0]
            w.task = Task(index=0, key="k", attempt=1, payload=0)
            # The whole process group was stopped for 5s: the parent's
            # scan clock and the worker's heartbeat are equally stale.
            pool._heartbeats[w.slot] -= 5.0
            pool._last_scan -= 5.0
            pool._scan_liveness()
            assert pool.parent_stalls == stalls_before + 1
            assert not [e for e in pool._events if e.kind == "hang"]
            w.task = None  # no phantom in-flight task at close

    def test_stale_heartbeat_without_scan_gap_is_still_a_hang(self):
        with self._pool() as pool:
            pool._scan_liveness()  # settle the scan clock
            stalls_before = pool.parent_stalls
            w = pool._workers[0]
            w.task = Task(index=0, key="k", attempt=1, payload=0)
            # Only the worker is stale: the parent kept scanning, so
            # this is a real hang, not a parent stall.
            pool._heartbeats[w.slot] -= 5.0
            pool._scan_liveness()
            assert pool.parent_stalls == stalls_before
            assert [e for e in pool._events if e.kind == "hang"]


class TestAdaptiveHangTimeout:
    """hang_timeout=None derives the hang threshold from observed task
    durations instead of a fixed guess (ROADMAP follow-up)."""

    @pytest.fixture
    def pool(self):
        with SupervisedPool(workers=1, task_fn=_echo) as pool:
            yield pool

    def test_fixed_timeout_wins_when_set(self):
        with SupervisedPool(
            workers=1, task_fn=_echo, hang_timeout=7.5
        ) as pool:
            pool._durations.extend([0.01] * 50)
            assert pool.effective_hang_timeout() == 7.5

    def test_default_until_enough_samples(self, pool):
        from repro.core import supervisor

        assert pool.hang_timeout is None
        pool._durations.extend([0.01] * (supervisor._ADAPTIVE_MIN_SAMPLES - 1))
        assert (
            pool.effective_hang_timeout() == supervisor.DEFAULT_HANG_TIMEOUT
        )

    def test_warmup_floor_scales_with_heartbeat(self):
        """A slow-beating config must not have warm-up declare healthy
        busy workers hung: the heartbeat floor applies before enough
        samples exist, not just after."""
        with SupervisedPool(
            workers=1, task_fn=_echo, heartbeat_interval=2.0
        ) as pool:
            assert pool.hang_timeout is None
            assert len(pool._durations) == 0
            assert pool.effective_hang_timeout() == 8.0

    def test_adapts_to_p95_with_floor_and_ceiling(self, pool):
        from repro.core import supervisor

        # Fast tasks: the heartbeat floor wins over 10 * p95.
        pool._durations.extend([0.001] * 20)
        floor = max(4 * pool.heartbeat_interval, 1.0)
        assert pool.effective_hang_timeout() == floor
        # Slow tasks: a clamped multiple of the rolling p95.
        pool._durations.clear()
        pool._durations.extend([0.5] * 20)
        assert pool.effective_hang_timeout() == pytest.approx(5.0)
        # Glacial tasks: the ceiling caps the leash.
        pool._durations.clear()
        pool._durations.extend([60.0] * 20)
        assert (
            pool.effective_hang_timeout() == supervisor._ADAPTIVE_CEILING
        )

    def test_completed_tasks_feed_the_window(self, pool):
        pool.submit(Task(index=0, key="k0", attempt=1, payload=3))
        event = pool.poll(timeout=5.0)
        assert event is not None and event.kind == "result"
        assert len(pool._durations) == 1
        assert pool._durations.samples[0] >= 0.0

    def test_adaptive_sweep_completes(self):
        """End to end: a parallel sweep with no explicit hang_timeout
        (the new default) still measures everything."""
        result = run_sweep(2, hang_timeout=None)
        assert result.report.complete
        assert result.report.measured == len(SETUPS)
