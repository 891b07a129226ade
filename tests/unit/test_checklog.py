"""Unit tests: the checksummed log under the sweep journal and the WAL.

``repro.core.checklog`` owns the log format, torn-line recovery, the
verified rewrite and the fsck classification for both owners.  These
tests pin what the two logs share: the bytes on disk, a recovery
rewrite that can never publish a short file, a failed rewrite that
stays typed and leaves no debris on every surface that compacts, and
one definition of "stale" for ``repro fsck`` and ``--repair``.
"""

import errno
import hashlib
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import faults, storageio, workloads
from repro.cli import main
from repro.core import Experiment, ExperimentalSetup, checklog
from repro.core.errors import ArchiveCorruption
from repro.core.runner import (
    Journal,
    RunnerConfig,
    SweepRunner,
    compact_journal,
    sweep_id,
)
from repro.core.servicewal import ServiceWAL, compact_wal
from repro.core.session import canonical_json, record_checksum
from repro.fsck import DAMAGE, HYGIENE, fsck_paths, fsck_wal

SPEC = {"workload": "sphinx3", "n": 2}
TORN_RECORD = '{"index": 5, "measurement": {"to\n'
TORN_KIND = '{"kind": "lease", "data": {"stu\n'


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def sha256(path):
    return hashlib.sha256(read_bytes(path)).hexdigest()


def write_journal(path, records=6):
    j = Journal(path, "sweep-pin")
    j.open_for_append(note="pin")
    for i in range(records):
        j.append([(i, {"v": i}, None)])
    j.close()
    return path


def write_wal(path, studies=4):
    wal = ServiceWAL(path)
    wal.load()
    wal.open_for_append(note="pin")
    for n in range(studies):
        wal.append("submit", {"study": f"s{n}", "spec": SPEC})
    wal.close()
    return path


def tail_losing_fsync(fd):
    """An fsync that silently lost the second half of the file."""
    os.ftruncate(fd, os.fstat(fd).st_size // 2)


def fsync_failing_on_rewrites(monkeypatch):
    """ENOSPC from the shim's fsync for every log rewrite (``compact:``
    keys); appends still sync normally."""
    real = storageio.fsync

    def fsync(fh, key, attempt=1):
        if key.startswith("compact:"):
            raise OSError(errno.ENOSPC, "No space left on device")
        real(fh, key, attempt)

    monkeypatch.setattr(storageio, "fsync", fsync)


class TestFormatPin:
    """The bytes both logs write, recover and compact to, as written by
    the code before the logs shared one primitive: journals and WALs
    from earlier versions must keep loading and resuming."""

    def test_journal_bytes(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        j = Journal(path, "sweep-pin")
        j.open_for_append(note="pin")
        j.append([(0, {"v": 0, "name": "a"}, None)])
        j.append([(2, {"v": 2, "xs": [1, 2.5, None]}, None)])
        j.append_aux("metrics", {"n": 1})
        j.append([(0, {"v": 10, "name": "b"}, None)])
        j.close()
        assert sha256(path) == (
            "e3c5b654570b58cb0222ee9357fd2534eb3ce19ee39ce56095069b5a89a44b54"
        )
        with open(path, "a") as fh:
            fh.write(TORN_RECORD)
        Journal(path, "sweep-pin").load()
        assert sha256(path) == (
            "22d35cdc804da07f66a399a8684071f80fa0525ba10189466d216e361b2da415"
        )
        compact_journal(path)
        assert sha256(path) == (
            "0fd390d6282d89b642526862b1d60d18b94b9069eb21714a0c7913418f62f493"
        )

    def test_wal_bytes(self, tmp_path):
        path = str(tmp_path / "queue.wal")
        wal = ServiceWAL(path)
        wal.load()
        wal.open_for_append(note="pin")
        wal.append("submit", {"study": "s1", "spec": SPEC})
        wal.append("lease", {"study": "s1", "index": 0, "attempt": 1,
                             "agent": "a:1"})
        wal.append("complete", {"study": "s1", "index": 0})
        wal.append("requeue", {"study": "s1", "index": 1, "attempt": 1,
                               "reason": "lease_expire"})
        wal.append("complete", {"study": "s1", "index": 1})
        wal.append("done", {"study": "s1", "report_sha256": "d1"})
        wal.append("submit", {"study": "s2", "spec": {"workload": "mcf"}})
        wal.append("complete", {"study": "s2", "index": 0})
        wal.close()
        assert sha256(path) == (
            "5c6dc5fde7c19a098c7fbc5af8a11cd4454c394a5dbfd92a65e1cb05a62e4cf0"
        )
        with open(path, "a") as fh:
            fh.write(TORN_KIND)
        ServiceWAL(path).load()
        assert sha256(path) == (
            "1102c8cf6c0e29e4182849d5531af0a961325655402b69e1a50a6690e96304c6"
        )
        compact_wal(path)
        assert sha256(path) == (
            "29129945ac63401caef75d6b18e7f1737daa97d70e42a27d11d207ba3f4a8424"
        )


#: JSON documents as the logs carry them: nested objects and lists of
#: scalars, any text (non-ASCII included) as keys and strings.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
payloads = st.dictionaries(st.text(), json_values, max_size=6)


class TestEncode:
    """``encode`` serializes each payload once and builds the line
    around it; the bytes must stay those of canonical JSON over the
    whole record, as every earlier log was written."""

    @settings(max_examples=200, deadline=None)
    @given(payloads, st.integers())
    def test_indexed_record_is_canonical_json(self, data, index):
        checksum = record_checksum(data)
        assert checklog.encode(data, index=index) == (
            canonical_json(
                {"index": index, "measurement": data, "sha256": checksum}
            ),
            checksum,
        )

    @settings(max_examples=200, deadline=None)
    @given(payloads, st.none() | st.text())
    def test_kind_record_is_canonical_json(self, data, kind):
        checksum = record_checksum(data)
        assert checklog.encode(data, kind=kind) == (
            canonical_json({"kind": kind, "data": data, "sha256": checksum}),
            checksum,
        )


class TestRecoveryRewrite:
    """Load-time recovery of a torn line goes through the verified
    rewrite: a rewrite whose sync lost its tail is refused, typed, and
    the original stays byte-identical."""

    def test_journal_recovery_never_publishes_a_short_file(
        self, tmp_path, monkeypatch
    ):
        path = write_journal(str(tmp_path / "j.jsonl"))
        with open(path, "a") as fh:
            fh.write(TORN_RECORD)
        original = read_bytes(path)
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", tail_losing_fsync)
            with pytest.raises(ArchiveCorruption, match="verification"):
                Journal(path, "sweep-pin").load()
        assert read_bytes(path) == original
        assert not os.path.exists(path + ".compact")
        # Nothing was lost: with a healthy disk every record resumes.
        assert Journal(path, "sweep-pin").load() == {
            i: {"v": i} for i in range(6)
        }

    def test_wal_recovery_never_publishes_a_short_file(
        self, tmp_path, monkeypatch
    ):
        path = write_wal(str(tmp_path / "queue.wal"))
        with open(path, "a") as fh:
            fh.write(TORN_KIND)
        original = read_bytes(path)
        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", tail_losing_fsync)
            with pytest.raises(ArchiveCorruption, match="verification"):
                ServiceWAL(path).load()
        assert read_bytes(path) == original
        assert not os.path.exists(path + ".compact")
        state = ServiceWAL(path).load()
        assert list(state.studies) == ["s0", "s1", "s2", "s3"]


class TestFailedRewrite:
    """A rewrite that fails (ENOSPC at its sync) stays typed, removes
    its temp file and leaves the log valid, on every surface."""

    def test_journal_compact_cli_prints_one_line_and_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        path = write_journal(str(tmp_path / "j.jsonl"))
        original = read_bytes(path)
        fsync_failing_on_rewrites(monkeypatch)
        assert main(["journal", "compact", path]) == 1
        err = capsys.readouterr().err
        (line,) = err.strip().splitlines()
        assert "No space left on device" in line
        assert read_bytes(path) == original
        assert not os.path.exists(path + ".compact")

    def test_fsck_repair_failure_is_damage_and_audit_goes_on(
        self, tmp_path, monkeypatch
    ):
        journal = write_journal(str(tmp_path / "j.jsonl"))
        wal = write_wal(str(tmp_path / "queue.wal"))
        for path, torn in ((journal, TORN_RECORD), (wal, TORN_KIND)):
            with open(path, "a") as fh:
                fh.write(torn)
        clean = write_journal(str(tmp_path / "clean.jsonl"))
        fsync_failing_on_rewrites(monkeypatch)
        report = fsck_paths([journal, wal, clean], repair=True)
        assert report.exit_code == 1
        assert [a["path"] for a in report.audited] == [journal, wal, clean]
        for path in (journal, wal):
            found = [f for f in report.findings if f.path == path]
            assert not any(f.repaired for f in found)
            assert any(
                f.severity == DAMAGE and "repair failed" in f.problem
                for f in found
            )
            assert not os.path.exists(path + ".compact")
        assert not [f for f in report.findings if f.path == clean]

    def test_sweep_keeps_its_report_and_its_uncompacted_journal(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "j.jsonl")
        exp = Experiment(workloads.get("sphinx3"))
        setups = [ExperimentalSetup(env_bytes=e) for e in (100, 116, 132)]
        cfg = RunnerConfig(jobs=1, journal_max_records=1)
        fsync_failing_on_rewrites(monkeypatch)
        result = SweepRunner(exp, cfg, journal_path=path).run(setups)
        rep = result.report
        assert rep.complete and rep.measured == len(setups)
        assert rep.degraded
        assert any(
            "journal compaction failed" in s for s in rep.degraded_storage
        )
        assert not os.path.exists(path + ".compact")
        # The uncompacted journal is still valid: a resume re-measures
        # nothing.
        sid = sweep_id(exp.workload.name, exp.size, exp.seed, setups)
        assert set(Journal(path, sid).load()) == set(range(len(setups)))
        monkeypatch.undo()
        again = SweepRunner(exp, RunnerConfig(jobs=1), journal_path=path)
        resumed = again.run(setups)
        assert resumed.report.measured == 0
        assert resumed.report.resumed == len(setups)


class TestStaleClassifier:
    """fsck's "stale" is exactly what ``--repair`` drops, for both logs."""

    def test_finished_study_completions_are_hygiene(self, tmp_path):
        path = str(tmp_path / "queue.wal")
        wal = ServiceWAL(path)
        wal.load()
        wal.open_for_append()
        wal.append("submit", {"study": "s1", "spec": SPEC})
        wal.append("complete", {"study": "s1", "index": 0})
        wal.append("complete", {"study": "s1", "index": 1})
        wal.append("done", {"study": "s1", "report_sha256": "d1"})
        wal.close()
        (finding,) = fsck_wal(path, repair=False)
        assert finding.severity == HYGIENE
        stale = int(finding.problem.split()[0])
        stats = compact_wal(path)
        assert stale == stats.records_before - stats.records_after == 2
        assert fsck_wal(path, repair=False) == []
