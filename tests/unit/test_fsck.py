"""Unit tests: ``repro fsck`` — audit and self-healing repair.

Covers the acceptance scenario directly: a deliberately damaged
workspace (torn journal + bit-flipped store entry + damaged archive
record) is restored to a resumable state by ``--repair``, and
unrepairable damage (manifest mismatches, destroyed headers) drives a
nonzero exit code instead of a silent shrug.
"""

import json
import os

import pytest

from repro import faults, workloads
from repro.core import Experiment, ExperimentalSetup
from repro.core.runner import Journal
from repro.core.session import load_measurements, save_measurements
from repro.fsck import (
    DAMAGE,
    HYGIENE,
    classify,
    fsck_paths,
)
from repro.obs.manifest import build_manifest, file_checksum, save_manifest
from repro.store import open_store

_SHARED = {}


def shared_measurement():
    """One real measurement, built once for the whole module."""
    if "m" not in _SHARED:
        exp = Experiment(workloads.get("sphinx3"))
        _SHARED["exp"] = exp
        _SHARED["m"] = exp.run(ExperimentalSetup(env_bytes=100))
    return _SHARED["exp"], _SHARED["m"]


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.clear()
    yield
    faults.clear()


def make_journal(path, records=3, duplicates=0, torn_lines=0):
    j = Journal(str(path), "sweep-t")
    j.open_for_append()
    for i in range(records):
        j.append([(i, {"v": i}, None)])
    for i in range(duplicates):
        j.append([(i, {"v": i + 100}, None)])
    j.close()
    if torn_lines:
        with open(path, "a") as fh:
            for _ in range(torn_lines):
                fh.write('{"index": 99, "measurement": {"torn')
                fh.write("\n")
    return str(path)


def make_archive(path, damage_record=None, truncate=False):
    _, m = shared_measurement()
    save_measurements(str(path), [m, m, m], note="fsck-test")
    if damage_record is not None:
        payload = json.load(open(path))
        payload["measurements"][damage_record]["measurement"]["counters"][
            "cycles"
        ] += 1
        json.dump(payload, open(path, "w"), indent=1)
    if truncate:
        data = open(path).read()
        open(path, "w").write(data[: len(data) // 2])
    return str(path)


def make_store(root, bitflip=False):
    exp, m = shared_measurement()
    store = open_store(str(root))
    assert store.put_measurement(exp, m)
    if bitflip:
        paths = [
            os.path.join(dp, f)
            for dp, _, fs in os.walk(root)
            for f in fs
            if f.endswith(".json")
        ]
        target = sorted(paths)[0]
        blob = open(target, "rb").read()
        mid = len(blob) // 2
        open(target, "wb").write(
            blob[:mid] + bytes([blob[mid] ^ 1]) + blob[mid + 1 :]
        )
    return str(root)


class TestClassify:
    def test_every_artifact_class(self, tmp_path):
        journal = make_journal(tmp_path / "j.jsonl")
        archive = make_archive(tmp_path / "a.json")
        store = make_store(tmp_path / "st")
        manifest = str(tmp_path / "m.json")
        save_manifest(manifest, build_manifest(note="t"))
        assert classify(journal) == "journal"
        assert classify(archive) == "archive"
        assert classify(store) == "store"
        assert classify(manifest) == "manifest"

    def test_archive_with_embedded_manifest_is_an_archive(self, tmp_path):
        _, m = shared_measurement()
        path = str(tmp_path / "a.json")
        save_measurements(path, [m], manifest=build_manifest(note="t"))
        assert classify(path) == "archive"

    def test_truncated_archive_still_classifies(self, tmp_path):
        path = make_archive(tmp_path / "a.json", truncate=True)
        assert classify(path) == "archive"

    def test_unrecognized_is_none(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("hello world\n")
        assert classify(str(path)) is None


class TestJournalAudit:
    def test_clean_journal_has_no_findings(self, tmp_path):
        path = make_journal(tmp_path / "j.jsonl")
        report = fsck_paths([path])
        assert report.findings == []
        assert report.exit_code == 0

    def test_torn_lines_are_damage_until_repaired(self, tmp_path):
        path = make_journal(tmp_path / "j.jsonl", torn_lines=2)
        report = fsck_paths([path])
        assert report.exit_code == 1
        (finding,) = report.findings
        assert finding.severity == DAMAGE and "2 torn" in finding.problem
        repaired = fsck_paths([path], repair=True)
        assert repaired.exit_code == 0
        assert all(f.repaired for f in repaired.findings)
        # Healed journal is loadable and resumable.
        j = Journal(path, "sweep-t")
        assert set(j.load()) == {0, 1, 2}
        assert fsck_paths([path]).findings == []

    def test_duplicates_are_hygiene_not_damage(self, tmp_path):
        path = make_journal(tmp_path / "j.jsonl", duplicates=3)
        report = fsck_paths([path])
        assert report.exit_code == 0  # hygiene never fails the audit
        (finding,) = report.findings
        assert finding.severity == HYGIENE and "duplicate" in finding.problem
        fsck_paths([path], repair=True)
        assert fsck_paths([path]).findings == []
        # Compaction kept the latest generation, like resume would.
        assert Journal(path, "sweep-t").load()[0] == {"v": 100}

    def test_destroyed_header_is_unrepairable(self, tmp_path):
        path = make_journal(tmp_path / "j.jsonl")
        lines = open(path).read().splitlines()
        lines[0] = lines[0][:10]
        open(path, "w").write("\n".join(lines) + "\n")
        report = fsck_paths([path], repair=True)
        assert report.exit_code == 1
        assert not report.findings[0].repairable


class TestArchiveAudit:
    def test_damaged_record_is_dropped_on_repair(self, tmp_path):
        path = make_archive(tmp_path / "a.json", damage_record=1)
        report = fsck_paths([path])
        assert report.exit_code == 1
        assert "record 1" in report.findings[0].problem
        repaired = fsck_paths([path], repair=True)
        assert repaired.exit_code == 0
        # The healed archive loads cleanly with the survivors.
        assert len(load_measurements(path)) == 2
        assert fsck_paths([path]).findings == []

    def test_truncated_archive_is_unrepairable(self, tmp_path):
        path = make_archive(tmp_path / "a.json", truncate=True)
        report = fsck_paths([path], repair=True)
        assert report.exit_code == 1
        assert not report.findings[0].repairable


class TestStoreAudit:
    def test_corrupt_entry_is_purged_on_repair(self, tmp_path):
        root = make_store(tmp_path / "st", bitflip=True)
        report = fsck_paths([root])
        assert report.exit_code == 1
        assert "fails deep verification" in report.findings[0].problem
        repaired = fsck_paths([root], repair=True)
        assert repaired.exit_code == 0
        assert open_store(root).verify() == (0, [])
        assert fsck_paths([root]).findings == []

    def test_stale_tmp_debris_is_swept_and_reported(self, tmp_path):
        root = make_store(tmp_path / "st")
        shard = next(
            os.path.join(root, d)
            for d in os.listdir(root)
            if os.path.isdir(os.path.join(root, d))
        )
        open(os.path.join(shard, ".tmp-crash"), "w").write('{"torn')
        report = fsck_paths([root])
        assert report.exit_code == 0
        (finding,) = report.findings
        assert finding.severity == HYGIENE and finding.repaired
        assert "swept 1 stale" in finding.problem


class TestManifestAudit:
    def test_artifact_mismatch_is_never_repaired(self, tmp_path):
        artifact = tmp_path / "trace.json"
        artifact.write_text("{}")
        manifest = str(tmp_path / "m.json")
        save_manifest(
            manifest,
            build_manifest(
                note="t", artifacts={str(artifact): file_checksum(str(artifact))}
            ),
        )
        assert fsck_paths([manifest]).exit_code == 0
        artifact.write_text("{} ")
        report = fsck_paths([manifest], repair=True)
        assert report.exit_code == 1
        assert not report.findings[0].repairable
        assert "checksum mismatch" in report.findings[0].problem

    def test_missing_artifact_is_damage(self, tmp_path):
        manifest = str(tmp_path / "m.json")
        save_manifest(
            manifest,
            build_manifest(note="t", artifacts={"gone.json": "0" * 64}),
        )
        report = fsck_paths([manifest])
        assert report.exit_code == 1
        assert "missing on disk" in report.findings[0].problem


class TestDriver:
    def test_missing_and_unknown_paths_are_damage(self, tmp_path):
        stray = tmp_path / "stray.txt"
        stray.write_text("not an artifact")
        report = fsck_paths([str(tmp_path / "nope"), str(stray)])
        assert report.exit_code == 1
        kinds = [f.kind for f in report.findings]
        assert kinds == ["missing", "unknown"]
        assert not any(f.repairable for f in report.findings)

    def test_acceptance_scenario_full_workspace_heal(self, tmp_path):
        """Torn journal + bit-flipped store entry + damaged archive
        record: one ``fsck --repair`` restores a resumable workspace."""
        journal = make_journal(tmp_path / "j.jsonl", torn_lines=1)
        archive = make_archive(tmp_path / "a.json", damage_record=0)
        store = make_store(tmp_path / "st", bitflip=True)
        paths = [journal, archive, store]
        before = fsck_paths(paths)
        assert before.exit_code == 1
        assert len(before.unrepaired_damage) == 3
        healed = fsck_paths(paths, repair=True)
        assert healed.exit_code == 0
        assert fsck_paths(paths).findings == []
        # Every artifact is usable again.
        assert set(Journal(journal, "sweep-t").load()) == {0, 1, 2}
        assert len(load_measurements(archive)) == 2
        assert open_store(store).verify() == (0, [])

    def test_json_report_shape(self, tmp_path):
        path = make_journal(tmp_path / "j.jsonl", torn_lines=1)
        report = fsck_paths([path])
        data = json.loads(report.to_json())
        assert data["format"] == "repro-fsck-v1"
        assert data["exit_code"] == 1
        assert data["audited"] == [{"path": path, "kind": "journal"}]
        assert data["findings"][0]["severity"] == "damage"
        assert data["unrepaired_damage"] == 1

    def test_summary_lines_name_every_artifact(self, tmp_path):
        clean = make_journal(tmp_path / "j.jsonl")
        report = fsck_paths([clean])
        lines = report.summary_lines()
        assert lines[0] == f"journal {clean}: clean"
        assert lines[-1] == "fsck: clean"


class TestCli:
    def test_fsck_command_exit_codes_and_json(self, tmp_path, capsys):
        from repro.cli import main

        path = make_journal(tmp_path / "j.jsonl", torn_lines=1)
        out_json = str(tmp_path / "report.json")
        assert main(["fsck", path, "--json", out_json]) == 1
        data = json.load(open(out_json))
        assert data["format"] == "repro-fsck-v1" and data["exit_code"] == 1
        assert "UNREPAIRED" in capsys.readouterr().out
        assert main(["fsck", path, "--repair"]) == 0
        assert main(["fsck", path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_json_to_stdout(self, tmp_path, capsys):
        from repro.cli import main

        path = make_journal(tmp_path / "j.jsonl")
        assert main(["fsck", path, "--json", "-"]) == 0
        out = capsys.readouterr().out
        assert '"format": "repro-fsck-v1"' in out
