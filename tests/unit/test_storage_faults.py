"""Unit tests: storage chaos — fault-aware I/O, graceful degradation.

The storage fault family (``journal_fsync_stall``, ``disk_full``,
``store_bitflip``, ``journal_torn_tail``) must behave exactly like the
measurement/process/network families: deterministic in the seeded plan,
and every injected failure lands on a *real* recovery path — a sick
disk degrades the sweep loudly instead of crashing it or silently
changing its science.
"""

import json
import os

import pytest

from repro import faults, storageio, workloads
from repro.core import Experiment, ExperimentalSetup
from repro.core.errors import (
    ArchiveCorruption,
    JournalWriteError,
    StorageWriteError,
)
from repro.core.runner import (
    Journal,
    ResilientJournal,
    RunnerConfig,
    SweepRunner,
    compact_journal,
    sweep_id,
)
from repro.core.servicewal import ServiceWAL, compact_wal
from repro.obs import metrics as obs_metrics
from repro.store import open_store

WORKLOAD = "sphinx3"
SETUPS = [ExperimentalSetup(env_bytes=e) for e in (100, 116, 132, 148)]


def fresh_experiment():
    return Experiment(workloads.get(WORKLOAD))


def run_sweep(plan=None, journal=None, store=None, exp=None):
    runner = SweepRunner(
        exp or fresh_experiment(),
        RunnerConfig(backoff_base=0.001),
        journal_path=journal,
        fault_plan=plan,
        store=store,
        sleep=lambda s: None,
    )
    return runner.run(SETUPS)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


class TestTypedJournalErrors:
    """Satellite: ENOSPC/OSError from the journal writer surfaces as a
    typed error carrying the journal path and record index."""

    def test_real_oserror_becomes_journal_write_error(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path, "sweep-x")
        j.open_for_append()

        def failing_fsync(fh, key, attempt=1):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.storageio.fsync", failing_fsync)
        with pytest.raises(JournalWriteError) as excinfo:
            j.append([(3, {"x": 1}, None)])
        assert excinfo.value.record == 3
        assert path in str(excinfo.value)
        assert "record 3" in str(excinfo.value)
        j.close()

    def test_error_taxonomy(self):
        assert issubclass(JournalWriteError, StorageWriteError)
        from repro.core.errors import is_retryable

        assert not is_retryable(JournalWriteError("boom"))


class TestJournalDiskFull:
    def test_enospc_falls_back_to_memory_journal_loudly(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = faults.FaultPlan(
            seed=4, disk_full_rate=1.0, transient_fraction=0.0
        )
        result = run_sweep(plan=plan, journal=path)
        rep = result.report
        # Every measurement still landed; the loss is declared, loudly.
        assert rep.complete
        assert rep.degraded
        assert any("journal fell back to memory" in s for s in rep.degraded_storage)
        assert "STORAGE DEGRADED" in rep.summary_line()
        # The on-disk journal holds no measurement records (the header
        # predates the first injected failure).
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == 1  # header only
        assert json.loads(lines[0])["format"].endswith("journal")

    def test_first_write_failure_stops_journalling(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        inner = Journal(path, "s")
        inner.open_for_append()
        events = []
        rj = ResilientJournal(inner, on_degrade=events.append)
        plan = faults.FaultPlan(
            seed=4, disk_full_rate=1.0, transient_fraction=0.0
        )
        with faults.injected_faults(plan):
            rj.append([(0, {"a": 1}, "k0")])
            rj.append([(1, {"b": 2}, "k1")])
        assert rj.degraded
        assert len(events) == 1 and events[0].record == 0
        assert rj.failure is events[0]
        # Later appends, faulted or not, neither raise nor touch the file.
        with open(path, "rb") as fh:
            before = fh.read()
        with faults.injected_faults(plan):
            rj.append([(2, {"c": 3}, "k2")])
        rj.append([(3, {"d": 4}, "k3")])
        rj.append_aux("metrics", {"e": 5})
        with open(path, "rb") as fh:
            assert fh.read() == before
        rj.close()

    def test_degraded_journal_skips_compaction(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = faults.FaultPlan(
            seed=4, disk_full_rate=1.0, transient_fraction=0.0
        )
        runner = SweepRunner(
            fresh_experiment(),
            RunnerConfig(backoff_base=0.001, journal_max_records=1),
            journal_path=path,
            fault_plan=plan,
            sleep=lambda s: None,
        )
        before = open(path).read() if os.path.exists(path) else None
        result = runner.run(SETUPS)
        assert result.report.degraded
        # A memory-degraded journal must never be compacted (the disk
        # file is stale; rewriting it could publish a lie).
        header = json.loads(open(path).readline())
        assert header["format"].endswith("journal")


class TestJournalTornTail:
    def test_torn_tail_is_silent_and_recovered_on_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        plan = faults.FaultPlan(
            seed=7,
            torn_tail_rate=1.0,
            transient_fraction=1.0,
            max_transient_attempts=len(SETUPS),
        )
        exp = fresh_experiment()
        first = run_sweep(plan=plan, journal=path, exp=exp)
        # The sweep believed every append landed: no degradation at all.
        assert first.report.complete
        assert not first.report.degraded
        # ...but the disk holds only torn halves: nothing recoverable.
        sid = sweep_id(WORKLOAD, exp.size, exp.seed, SETUPS)
        probe = Journal(path, sid)
        assert probe.load() == {}
        assert probe.recovered_torn == len(SETUPS)
        # Resume: the tear is transient and its attempt dimension is the
        # recovery count, so the re-run journals durably this time.
        second = run_sweep(plan=plan, journal=path, exp=exp)
        assert second.report.complete
        assert Journal(path, sid).load().keys() == set(range(len(SETUPS)))
        # Byte-identical science across the lossy cycle.
        assert [m.cycles for m in first.ok] == [m.cycles for m in second.ok]

    def test_torn_tail_truncates_single_line_only(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path, "s")
        j.open_for_append()
        plan = faults.FaultPlan(
            seed=7, torn_tail_rate=1.0, transient_fraction=1.0,
            max_transient_attempts=1,
        )
        with faults.injected_faults(plan):
            j.append([(0, {"a": 1}, "k")])  # torn (attempt 1)
        j.append([(1, {"b": 2}, None)])  # no fault key: always durable
        j.close()
        reloaded = Journal(path, "s")
        assert reloaded.load() == {1: {"b": 2}}
        assert reloaded.recovered_torn == 1


class TestWarmGroupCommit:
    """A warm sweep journals its store hits as one group commit; each
    record keeps its own fault draws, so the file bytes, the fault
    schedule and the ``storage.*`` counters are the record-by-record
    path's."""

    def _filled_store(self, tmp_path):
        root = str(tmp_path / "st")
        run_sweep(store=open_store(root))  # fault-free
        return root

    def _fires(self, plan, kind):
        exp = fresh_experiment()
        return [
            i for i, s in enumerate(SETUPS)
            if plan.fires(
                kind, faults.fault_key(WORKLOAD, exp.size, exp.seed, s), 1
            )
        ]

    def test_torn_write_mid_batch_keeps_the_hits_before_it(self, tmp_path):
        root = self._filled_store(tmp_path)
        plan = faults.FaultPlan(
            seed=5, torn_write_rate=0.5, transient_fraction=1.0,
            max_transient_attempts=1,
        )
        k = 2
        assert self._fires(plan, "journal_torn_write") == [k]
        path = str(tmp_path / "warm.jsonl")
        with pytest.raises(faults.TornWrite):
            run_sweep(plan=plan, journal=path, store=open_store(root))
        exp = fresh_experiment()
        probe = Journal(path, sweep_id(WORKLOAD, exp.size, exp.seed, SETUPS))
        assert probe.load().keys() == set(range(k))
        assert probe.recovered_torn == 1  # the half record, dropped
        resumed = run_sweep(plan=plan, journal=path, store=open_store(root))
        assert resumed.report.resumed == k
        assert resumed.report.measured == len(SETUPS) - k
        # Verification re-run: from this journal and from an
        # uninterrupted one every setup resumes, to the same bytes.
        clean = str(tmp_path / "clean.jsonl")
        run_sweep(journal=clean, store=open_store(root))
        assert (
            run_sweep(plan=plan, journal=path).report.to_json()
            == run_sweep(journal=clean).report.to_json()
        )

    @pytest.mark.parametrize(
        "plan, kind, fired",
        [
            (
                faults.FaultPlan(seed=4, torn_tail_rate=0.5,
                                 transient_fraction=1.0,
                                 max_transient_attempts=1),
                "journal_torn_tail", [2],
            ),
            (
                faults.FaultPlan(seed=4, disk_full_rate=0.5,
                                 transient_fraction=1.0,
                                 max_transient_attempts=1),
                "disk_full", [2, 3],
            ),
            (
                faults.FaultPlan(seed=5, fsync_stall_rate=1.0,
                                 fsync_stall_seconds=0.001,
                                 transient_fraction=0.0),
                "journal_fsync_stall", [0, 1, 2, 3],
            ),
        ],
        ids=["torn_tail", "disk_full", "fsync_stall"],
    )
    def test_warm_journal_matches_cold_under_storage_faults(
        self, tmp_path, plan, kind, fired
    ):
        # Mid-batch faults: hits before and after the one that fires.
        assert self._fires(plan, kind) == fired
        root = self._filled_store(tmp_path)
        cold, warm = str(tmp_path / "cold.jsonl"), str(tmp_path / "warm.jsonl")
        with obs_metrics.scoped() as cold_reg:
            run_sweep(plan=plan, journal=cold)  # record by record
        with obs_metrics.scoped() as warm_reg:
            run_sweep(plan=plan, journal=warm, store=open_store(root))
        assert warm_reg.counters()["store.hits"] == len(SETUPS)
        with open(cold, "rb") as a, open(warm, "rb") as b:
            assert a.read() == b.read()

        def storage(reg):
            return {
                name: value for name, value in reg.counters().items()
                if name.startswith("storage.")
            }

        assert storage(cold_reg) and storage(warm_reg) == storage(cold_reg)

    def test_warm_sweep_makes_three_journal_fsyncs(
        self, tmp_path, monkeypatch
    ):
        root = self._filled_store(tmp_path)
        path = str(tmp_path / "warm.jsonl")
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        result = run_sweep(journal=path, store=open_store(root))
        assert result.report.measured == len(SETUPS)
        # The header, the hits' one group commit and the closing metrics
        # record: 3, where a record-by-record journal makes n + 2.
        assert synced.count(os.stat(path).st_ino) == 3


class TestStoreDiskFull:
    def test_store_write_failure_disables_puts_for_the_sweep(self, tmp_path):
        store = open_store(str(tmp_path / "st"))
        plan = faults.FaultPlan(
            seed=2, disk_full_rate=1.0, transient_fraction=0.0
        )
        result = run_sweep(plan=plan, store=store)
        rep = result.report
        assert rep.complete  # measurements never depend on the store
        assert rep.degraded
        assert any(
            "store writes disabled" in s for s in rep.degraded_storage
        )
        assert store.write_disabled
        assert "ENOSPC" in store.disabled_reason
        assert store.provenance()["write_disabled"] is True
        assert "writes disabled" in store.summary()
        # Nothing was published.
        assert store.stats()["entries"] == 0

    def test_put_failure_does_not_raise(self, tmp_path):
        store = open_store(str(tmp_path / "st"))
        exp = fresh_experiment()
        m = exp.run(SETUPS[0])
        plan = faults.FaultPlan(
            seed=2, disk_full_rate=1.0, transient_fraction=0.0
        )
        with faults.injected_faults(plan):
            assert store.put_measurement(exp, m) is False
        assert store.write_disabled
        # Later puts are skipped without touching the sick disk.
        with faults.injected_faults(plan):
            assert store.put_measurement(exp, m) is False


class TestStoreBitflip:
    def test_bitflip_is_detected_and_treated_as_miss(self, tmp_path):
        store = open_store(str(tmp_path / "st"))
        exp = fresh_experiment()
        m = exp.run(SETUPS[0])
        plan = faults.FaultPlan(
            seed=9, store_bitflip_rate=1.0, transient_fraction=0.0
        )
        with faults.injected_faults(plan):
            assert store.put_measurement(exp, m) is True
        # Deep verify flags the flipped entry (read-only).
        ok, corrupt = store.verify()
        assert ok == 0 and len(corrupt) == 1
        # The read path detects, purges, and misses — never serves junk.
        assert store.get_measurement(exp, SETUPS[0]) is None
        assert store.corrupt == 1
        assert store.stats()["entries"] == 0

    def test_bitflip_offset_is_deterministic(self, tmp_path):
        payload = b"x" * 256
        flips = []
        for _ in range(2):
            path = str(tmp_path / "f.bin")
            with open(path, "wb") as fh:
                fh.write(payload)
            plan = faults.FaultPlan(
                seed=9, store_bitflip_rate=1.0, transient_fraction=0.0
            )
            with faults.injected_faults(plan):
                assert storageio.maybe_bitflip(path, "some-key")
            data = open(path, "rb").read()
            flips.append(
                [i for i, (a, b) in enumerate(zip(payload, data)) if a != b]
            )
        assert flips[0] == flips[1]
        assert len(flips[0]) == 1


class TestFsyncStall:
    def test_stall_changes_timing_not_bytes(self, tmp_path):
        plan = faults.FaultPlan(
            seed=5,
            fsync_stall_rate=1.0,
            fsync_stall_seconds=0.001,
            transient_fraction=0.0,
        )
        stalled = run_sweep(plan=plan, journal=str(tmp_path / "a.jsonl"))
        plain = run_sweep(journal=str(tmp_path / "b.jsonl"))
        assert stalled.report.to_json() == plain.report.to_json()
        assert [m.cycles for m in stalled.ok] == [m.cycles for m in plain.ok]


class TestCompactionVsStall:
    """Satellite: compaction racing ``journal_fsync_stall`` must never
    publish a partially-synced rewrite.

    Parametrized by log: these cases run on the sweep journal, and
    :class:`TestWalCompactionVsStall` runs them on the service WAL by
    overriding the log hooks below (both logs share one rewrite).
    """

    compact = staticmethod(compact_journal)
    #: Records the compaction keeps, and what the log replays to after.
    records_after = 3
    replayed = {i: {"v": i + 10} for i in range(3)}

    def _log_with_duplicates(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        j = Journal(path, "s")
        j.open_for_append()
        for i in range(3):
            j.append([(i, {"v": i}, None)])
        for i in range(3):  # stale duplicates
            j.append([(i, {"v": i + 10}, None)])
        j.close()
        return path

    def _replay(self, path):
        return Journal(path, "s").load()

    def test_compaction_under_stall_still_verifies(self, tmp_path):
        path = self._log_with_duplicates(tmp_path)
        plan = faults.FaultPlan(
            seed=5,
            fsync_stall_rate=1.0,
            fsync_stall_seconds=0.001,
            transient_fraction=0.0,
        )
        with faults.injected_faults(plan):
            stats = self.compact(path)
        assert stats.records_after == self.records_after
        assert self._replay(path) == self.replayed

    def test_unsynced_rewrite_is_never_published(self, tmp_path, monkeypatch):
        path = self._log_with_duplicates(tmp_path)
        original = open(path, "rb").read()

        def torn_fsync(fh, key, attempt=1):
            # A sync that silently lost the tail of the rewrite: flush,
            # then truncate what "reached" the platter.
            fh.flush()
            os.ftruncate(fh.fileno(), os.fstat(fh.fileno()).st_size // 2)

        monkeypatch.setattr(
            "repro.storageio.fsync", torn_fsync
        )
        with pytest.raises(ArchiveCorruption, match="verification"):
            self.compact(path)
        # The original log is untouched and the torn tmp is gone.
        assert open(path, "rb").read() == original
        assert not os.path.exists(path + ".compact")


class TestWalCompactionVsStall(TestCompactionVsStall):
    """The same cases on the service WAL: stale leases instead of
    duplicates, replayed to the study's completed setups."""

    compact = staticmethod(compact_wal)
    records_after = 4  # the submit + three completions
    replayed = {"s": [0, 1, 2]}

    def _log_with_duplicates(self, tmp_path):
        path = str(tmp_path / "queue.wal")
        wal = ServiceWAL(path)
        wal.load()
        wal.open_for_append()
        wal.append("submit", {"study": "s", "spec": {"workload": "w"}})
        for i in range(3):  # stale once the setup completes
            wal.append("lease", {"study": "s", "index": i, "attempt": 1,
                                 "agent": "a:1"})
            wal.append("complete", {"study": "s", "index": i})
        wal.close()
        return path

    def _replay(self, path):
        state = ServiceWAL(path).load()
        return {s: sorted(r.completed) for s, r in state.studies.items()}


class TestAtomicArchiveWrites:
    def test_atomic_write_replaces_or_leaves_old(self, tmp_path):
        target = str(tmp_path / "out.json")
        storageio.atomic_write_text(target, "old")
        plan = faults.FaultPlan(
            seed=2, disk_full_rate=1.0, transient_fraction=0.0
        )
        with faults.injected_faults(plan):
            with pytest.raises(OSError):
                storageio.atomic_write_text(target, "new", key="arch")
        assert open(target).read() == "old"
        storageio.atomic_write_text(target, "new", key="arch")
        assert open(target).read() == "new"

    def test_no_tmp_debris_on_failure(self, tmp_path, monkeypatch):
        target = str(tmp_path / "out.json")

        def failing_fsync(fh, key, attempt=1):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(storageio, "fsync", failing_fsync)
        with pytest.raises(OSError):
            storageio.atomic_write_text(target, "data")
        assert os.listdir(tmp_path) == []
