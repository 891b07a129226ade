"""Unit tests: the fault-tolerant sweep runner.

Covers the acceptance criteria of the robustness subsystem: parallel ==
serial measurements, byte-identical reports for a seeded fault plan,
kill-mid-sweep + resume == uninterrupted sweep, retry/backoff/quarantine
accounting, and journal corruption recovery.
"""

import json

import pytest

from repro import faults, workloads
from repro.core import Experiment, ExperimentalSetup
from repro.core import runner as runner_mod
from repro.core.errors import ArchiveCorruption
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.core.runner import (
    Journal,
    RunnerConfig,
    SweepRunner,
    compact_journal,
    journal_needs_compaction,
    sweep_id,
)

WORKLOAD = "sphinx3"

#: Enough setups to exercise ordering/parallelism, cheap enough for the
#: fast inner loop.
SETUPS = [
    ExperimentalSetup(env_bytes=e) for e in (100, 116, 132, 148, 164, 180)
]

#: Mixed transient + permanent faults across every kind.
NOISY_PLAN = faults.FaultPlan(
    seed=3,
    build_rate=0.2,
    hang_rate=0.4,
    counter_rate=0.2,
    verify_rate=0.3,
    transient_fraction=0.7,
)


def fresh_experiment():
    return Experiment(workloads.get(WORKLOAD))


#: Fault-free sweeps share one experiment: the runner only primes it
#: with genuine measurements, and sharing amortizes the build cost
#: across the module.
_SHARED = {}


def shared_exp():
    if "exp" not in _SHARED:
        _SHARED["exp"] = fresh_experiment()
    return _SHARED["exp"]


def run_sweep(jobs=1, plan=None, journal=None, max_retries=2, exp=None):
    if exp is None:
        exp = shared_exp() if plan is None else fresh_experiment()
    runner = SweepRunner(
        exp,
        RunnerConfig(jobs=jobs, max_retries=max_retries, backoff_base=0.001),
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


class TestHappyPath:
    def test_serial_sweep_matches_experiment_sweep(self):
        exp = shared_exp()
        expected = [m.cycles for m in exp.sweep(SETUPS)]
        result = run_sweep(jobs=1)
        assert [m.cycles for m in result.ok] == expected
        assert result.report.complete and result.report.accounted()
        assert result.report.statuses == ["measured"] * len(SETUPS)

    @pytest.mark.slow
    def test_parallel_matches_serial_in_request_order(self):
        serial = run_sweep(jobs=1)
        parallel = run_sweep(jobs=4)
        assert [m.cycles for m in parallel.ok] == [
            m.cycles for m in serial.ok
        ]
        assert [m.setup for m in parallel.ok] == list(SETUPS)

    def test_runner_primes_the_experiment_cache(self):
        exp = fresh_experiment()
        runner = SweepRunner(exp, RunnerConfig(jobs=2))
        result = runner.run(SETUPS)
        # Serial re-runs must be cache hits returning identical objects.
        for setup, measured in zip(SETUPS, result.measurements):
            assert exp.run(setup) is measured


class TestInProcessSweep:
    """What makes a ``jobs=1`` sweep the reference every other topology
    is compared against: it measures on the caller's experiment and
    sleeps only through the injected sleeper."""

    def test_measures_on_the_callers_experiment(self):
        exp = fresh_experiment()
        before = set(runner_mod._WORKER_EXPERIMENTS)
        run_sweep(jobs=1, exp=exp)
        assert set(runner_mod._WORKER_EXPERIMENTS) == before
        hits = obs_metrics.counter("experiment.run_cache_hits")
        start = hits.value
        for setup in SETUPS:
            exp.run(setup)
        assert hits.value == start + len(SETUPS)

    def test_backoff_sleeps_go_through_the_injected_sleeper(self):
        retries = []

        class Retries(obs_progress.ProgressReporter):
            def retry(self, index, setup, attempt, error_type, message):
                retries.append((index, attempt))

        slept = []
        exp = fresh_experiment()
        cfg = RunnerConfig(jobs=1, max_retries=2, backoff_base=0.001)
        SweepRunner(
            exp, cfg, fault_plan=NOISY_PLAN, progress=Retries(),
            sleep=slept.append,
        ).run(SETUPS)
        keys = [
            faults.fault_key(exp.workload.name, exp.size, exp.seed, s)
            for s in SETUPS
        ]
        assert retries, "noisy plan should trigger retries"
        assert sorted(slept) == sorted(
            cfg.backoff_delay(keys[i], a + 1) for i, a in retries
        )

    def test_forked_workers_start_with_an_empty_experiment_cache(
        self, monkeypatch
    ):
        """A process that has measured in-process through the worker
        experiment cache, as a degraded agent does, forks workers that
        still draw every fault: no cached run is inherited."""
        monkeypatch.setattr(runner_mod, "_WORKER_EXPERIMENTS", {})
        serial = run_sweep(jobs=1, plan=NOISY_PLAN)
        exp = fresh_experiment()
        for index, setup in enumerate(SETUPS):
            runner_mod._measure_task((
                index, WORKLOAD, exp.size, exp.seed, setup, exp.verify, 1,
                None, None, 0.0,
            ))
        parallel = run_sweep(jobs=3, plan=NOISY_PLAN)
        assert serial.report.retries and serial.report.quarantined
        assert parallel.report.to_json() == serial.report.to_json()


class TestFaultRecovery:
    @pytest.mark.slow
    def test_report_is_byte_identical_across_runs(self):
        a = run_sweep(jobs=1, plan=NOISY_PLAN)
        b = run_sweep(jobs=1, plan=NOISY_PLAN)
        assert a.report.to_json() == b.report.to_json()

    @pytest.mark.slow
    def test_parallel_report_matches_serial_report(self):
        serial = run_sweep(jobs=1, plan=NOISY_PLAN)
        parallel = run_sweep(jobs=3, plan=NOISY_PLAN)
        assert parallel.report.to_json() == serial.report.to_json()

    def test_every_setup_is_accounted_for(self):
        result = run_sweep(jobs=1, plan=NOISY_PLAN)
        rep = result.report
        assert rep.accounted()
        assert rep.requested == len(SETUPS)
        assert rep.quarantined, "noisy plan should quarantine something"
        assert rep.retries > 0, "noisy plan should trigger retries"
        for q in rep.quarantined:
            assert result.measurements[q.index] is None
            assert rep.statuses[q.index] == "quarantined"

    def test_transient_faults_are_retried_to_success(self):
        plan = faults.FaultPlan(
            seed=8,
            hang_rate=1.0,
            transient_fraction=1.0,
            max_transient_attempts=2,
        )
        result = run_sweep(jobs=1, plan=plan, max_retries=3)
        assert result.report.complete
        assert result.report.retries >= len(SETUPS)

    @pytest.mark.slow
    def test_permanent_faults_exhaust_retries_and_quarantine(self):
        plan = faults.FaultPlan(seed=8, verify_rate=1.0, transient_fraction=0.0)
        result = run_sweep(jobs=1, plan=plan, max_retries=1)
        rep = result.report
        assert len(rep.quarantined) == len(SETUPS)
        assert all(q.attempts == 2 for q in rep.quarantined)  # 1 + 1 retry
        assert all(q.fate == "retryable" for q in rep.quarantined)
        assert rep.retries == len(SETUPS)

    def test_fatal_faults_are_not_retried(self):
        # An unverifiable sweep quarantines immediately when the fault
        # is fatal: disable verification faults, inject fatal builds.
        plan = faults.FaultPlan(seed=8, build_rate=1.0, transient_fraction=0.0)
        # Permanent build faults are injected ICEs (retryable=True), so
        # craft fatality via max_retries=0 instead: no retry budget.
        result = run_sweep(jobs=1, plan=plan, max_retries=0)
        rep = result.report
        assert rep.retries == 0
        assert len(rep.quarantined) == len(SETUPS)

    def test_backoff_schedule_is_seeded_and_monotonic(self):
        cfg = RunnerConfig(backoff_base=0.05, backoff_seed=7)
        d2 = cfg.backoff_delay("k", 2)
        d3 = cfg.backoff_delay("k", 3)
        d4 = cfg.backoff_delay("k", 4)
        assert cfg.backoff_delay("k", 1) == 0.0
        assert 0 < d2 < d3 < d4
        assert d2 == RunnerConfig(backoff_base=0.05, backoff_seed=7).backoff_delay("k", 2)


class TestCheckpointResume:
    def _journal(self, tmp_path):
        return str(tmp_path / "sweep.jsonl")

    @pytest.mark.slow
    def test_kill_mid_sweep_then_resume_equals_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        """SIGINT the sweep after half the measurements; the resumed
        sweep must complete without re-measuring and match byte-for-byte
        an uninterrupted sweep."""
        uninterrupted = run_sweep(jobs=1)
        path = self._journal(tmp_path)

        kill_after = len(SETUPS) // 2
        real_append = Journal.append
        appended = {"n": 0}

        def killing_append(self, records):
            real_append(self, records)
            appended["n"] += len(records)
            if appended["n"] >= kill_after:
                raise KeyboardInterrupt("simulated ctrl-C mid-sweep")

        monkeypatch.setattr(Journal, "append", killing_append)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(jobs=1, journal=path)
        monkeypatch.setattr(Journal, "append", real_append)

        resumed = run_sweep(jobs=1, journal=path)
        rep = resumed.report
        assert rep.resumed == kill_after, "journaled setups were re-measured"
        assert rep.measured == len(SETUPS) - kill_after
        assert rep.complete and rep.accounted()
        assert [m.counters.cycles for m in resumed.ok] == [
            m.counters.cycles for m in uninterrupted.ok
        ]
        assert [m.exit_value for m in resumed.ok] == [
            m.exit_value for m in uninterrupted.ok
        ]

    def test_second_run_resumes_everything(self, tmp_path):
        path = self._journal(tmp_path)
        first = run_sweep(jobs=1, journal=path)
        second = run_sweep(jobs=1, journal=path)
        assert second.report.resumed == len(SETUPS)
        assert second.report.measured == 0
        assert [m.cycles for m in second.ok] == [m.cycles for m in first.ok]
        assert second.report.statuses == ["resumed"] * len(SETUPS)

    def test_torn_final_record_is_dropped_and_remeasured(self, tmp_path):
        path = self._journal(tmp_path)
        run_sweep(jobs=1, journal=path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        # Tear the last measurement record in half, as a crash mid-write
        # would.  (The journal's final line is the sweep's closing
        # metrics snapshot — a mid-sweep crash dies before writing it,
        # so everything after the torn measurement goes too.)
        last = max(i for i, l in enumerate(lines) if '"measurement"' in l)
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:last]) + "\n")
            fh.write(lines[last][: len(lines[last]) // 2])
        result = run_sweep(jobs=1, journal=path)
        assert result.report.resumed == len(SETUPS) - 1
        assert result.report.measured == 1
        assert result.report.complete

    @pytest.mark.slow
    def test_tampered_record_fails_its_checksum(self, tmp_path):
        path = self._journal(tmp_path)
        run_sweep(jobs=1, journal=path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        rec = json.loads(lines[1])
        rec["measurement"]["counters"]["cycles"] += 1.0  # silent lie
        lines[1] = json.dumps(rec)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        result = run_sweep(jobs=1, journal=path)
        # The tampered record must be rejected and re-measured honestly.
        assert result.report.measured == 1
        assert result.report.complete
        assert [m.cycles for m in result.ok] == [
            m.cycles for m in run_sweep(jobs=1).ok
        ]

    def test_journal_for_a_different_sweep_is_rejected(self, tmp_path):
        path = self._journal(tmp_path)
        run_sweep(jobs=1, journal=path)
        other = SweepRunner(
            fresh_experiment(),
            RunnerConfig(),
            journal_path=path,
        )
        with pytest.raises(ArchiveCorruption, match="different sweep"):
            other.run(SETUPS[:3])  # different setup list, same journal

    def test_sweep_id_pins_workload_and_setups(self):
        a = sweep_id("sphinx3", "test", 0, SETUPS)
        assert a == sweep_id("sphinx3", "test", 0, SETUPS)
        assert a != sweep_id("sphinx3", "test", 0, SETUPS[:-1])
        assert a != sweep_id("mcf", "test", 0, SETUPS)


class TestJournalCompaction:
    def _journal(self, tmp_path):
        return str(tmp_path / "sweep.jsonl")

    def test_multi_resume_journal_compacts_to_one_record_per_setup(
        self, tmp_path
    ):
        path = self._journal(tmp_path)
        baseline = run_sweep(jobs=1, journal=path)
        run_sweep(jobs=1, journal=path)
        run_sweep(jobs=1, journal=path)
        # Three completed runs = one metrics aux record each.
        stats = compact_journal(path)
        assert stats.records_before == len(SETUPS)
        assert stats.records_after == len(SETUPS)
        assert stats.aux_before == 3
        assert stats.aux_after == 1
        assert stats.dropped_corrupt == 0
        with open(path) as fh:
            lines = [l for l in fh.read().splitlines() if l.strip()]
        assert len(lines) == 1 + len(SETUPS) + 1  # header + records + aux
        # Lossless: resume from the compacted journal re-measures nothing.
        resumed = run_sweep(jobs=1, journal=path)
        assert resumed.report.resumed == len(SETUPS)
        assert resumed.report.measured == 0
        assert [m.cycles for m in resumed.ok] == [
            m.cycles for m in baseline.ok
        ]

    def test_compaction_preserves_checksummed_records_verbatim(
        self, tmp_path
    ):
        path = self._journal(tmp_path)
        run_sweep(jobs=1, journal=path)
        with open(path) as fh:
            before = {
                l for l in fh.read().splitlines() if '"measurement"' in l
            }
        compact_journal(path)
        with open(path) as fh:
            after = {
                l for l in fh.read().splitlines() if '"measurement"' in l
            }
        assert after == before  # byte-for-byte, checksums untouched

    def test_needs_compaction_thresholds(self, tmp_path):
        path = self._journal(tmp_path)
        assert not journal_needs_compaction(path, max_records=1)  # no file
        run_sweep(jobs=1, journal=path)
        n_lines = len(SETUPS) + 1  # records + metrics aux
        assert journal_needs_compaction(path, max_records=n_lines - 1)
        assert not journal_needs_compaction(path, max_records=n_lines)
        assert not journal_needs_compaction(path)  # no thresholds

    def test_runner_auto_compacts_past_record_threshold(self, tmp_path):
        path = self._journal(tmp_path)
        threshold = len(SETUPS) + 1
        cfg = RunnerConfig(jobs=1, journal_max_records=threshold)
        exp = shared_exp()
        SweepRunner(exp, cfg, journal_path=path).run(SETUPS)
        with open(path) as fh:
            first = len(fh.read().splitlines())
        assert first == 1 + len(SETUPS) + 1  # at threshold: untouched
        SweepRunner(exp, cfg, journal_path=path).run(SETUPS)
        with open(path) as fh:
            second = len(fh.read().splitlines())
        # Second run added an aux record, tripping the threshold; the
        # auto-compaction folded it back to one line per setup + aux.
        assert second == 1 + len(SETUPS) + 1

    def test_compacting_a_non_journal_is_refused(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w") as fh:
            fh.write('{"format": "something-else"}\n')
        with pytest.raises(ArchiveCorruption, match="refusing to compact"):
            compact_journal(path)
        with pytest.raises(ArchiveCorruption, match="does not exist"):
            compact_journal(str(tmp_path / "missing.jsonl"))

    def test_compacting_an_empty_file_is_refused(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        with pytest.raises(ArchiveCorruption, match="empty"):
            compact_journal(path)
        with open(path) as fh:  # refused means untouched
            assert fh.read() == ""

    def test_compacting_a_header_only_journal_is_a_noop(self, tmp_path):
        """A journal from a sweep killed before its first record has a
        header and nothing else; compaction must keep it resumable."""
        from repro.core.runner import JOURNAL_FORMAT

        path = str(tmp_path / "header-only.jsonl")
        header = {"format": JOURNAL_FORMAT, "sweep": "abc", "torn_recovered": 0}
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        stats = compact_journal(path)
        assert stats.records_before == 0
        assert stats.records_after == 0
        assert stats.dropped_corrupt == 0
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["sweep"] == "abc"

    def test_compaction_drops_corrupt_lines_and_counts_them(self, tmp_path):
        path = self._journal(tmp_path)
        run_sweep(jobs=1, journal=path)
        with open(path, "a") as fh:
            fh.write('{"index": 0, "measurement"\n')  # torn fragment
        stats = compact_journal(path)
        assert stats.dropped_corrupt == 1
        with open(path) as fh:
            header = json.loads(fh.readline())
        assert header["torn_recovered"] == 1


class TestConfigValidation:
    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            RunnerConfig(jobs=0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            RunnerConfig(max_retries=-1)

    def test_hang_timeout_must_exceed_heartbeat_interval(self):
        with pytest.raises(ValueError, match="hang_timeout"):
            RunnerConfig(heartbeat_interval=1.0, hang_timeout=0.5)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            RunnerConfig(heartbeat_interval=0.0)

    def test_bad_respawn_and_compaction_thresholds_rejected(self):
        with pytest.raises(ValueError, match="max_respawns"):
            RunnerConfig(max_respawns=-1)
        with pytest.raises(ValueError, match="journal_max_records"):
            RunnerConfig(journal_max_records=0)

    def test_wall_clock_deadline_raises_run_timeout(self):
        import time

        from repro.core.errors import RunTimeout
        from repro.core.runner import _wall_clock_deadline

        with pytest.raises(RunTimeout, match="wall-clock"):
            with _wall_clock_deadline(0.05):
                time.sleep(1.0)
