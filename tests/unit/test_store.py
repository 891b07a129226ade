"""Unit tests: the content-addressed measurement store.

Pins the subsystem's load-bearing invariant — a warm sweep served from
the store produces a SweepReport, journal, and measurement set
byte-identical to the cold sweep that populated it, while skipping the
simulator entirely — plus the key scheme's stability, both backends'
mechanics (atomic writes, LRU GC, verification), the corruption policy
(damaged entries are misses, never crashes), artifact caching, manifest
provenance, archive export, and the `repro store` CLI.
"""

import json
import os

import pytest

from repro import workloads
from repro.core import Experiment, ExperimentalSetup, RunnerConfig, SweepRunner
from repro.core import runner as runner_mod
from repro.core.session import (
    canonical_json,
    load_measurements,
    measurement_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import build_manifest, validate_manifest
from repro.store import (
    KEY_SCHEME,
    DiskBackend,
    MeasurementStore,
    MemoryBackend,
    StoreEntryCorrupt,
    engine_fingerprint,
    open_store,
)
from tests.conftest import example_treatment

WORKLOAD = "sphinx3"

SETUPS = [ExperimentalSetup(env_bytes=e) for e in (100, 116, 132, 148)]


def fresh_experiment():
    return Experiment(workloads.get(WORKLOAD))


def sweep(store, jobs=1, exp=None):
    exp = exp or fresh_experiment()
    runner = SweepRunner(
        exp,
        RunnerConfig(jobs=jobs, backoff_base=0.001),
        store=store,
        sleep=lambda s: None,
    )
    return runner.run(SETUPS)


def engine_runs():
    return obs_metrics.counter("engine.runs").value


def entry_files(root):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out.extend(os.path.join(dirpath, f) for f in files)
    return sorted(out)


# -- keys -------------------------------------------------------------------


class TestKeys:
    def test_key_is_stable_across_store_instances(self):
        exp = fresh_experiment()
        a = MeasurementStore(MemoryBackend()).key_for(exp, SETUPS[0])
        b = MeasurementStore(MemoryBackend()).key_for(exp, SETUPS[0])
        assert a == b
        assert a.startswith("meas-")

    def test_key_varies_with_every_identity_dimension(self):
        exp = fresh_experiment()
        store = MeasurementStore(MemoryBackend())
        base = store.key_for(exp, SETUPS[0])
        assert store.key_for(exp, SETUPS[1]) != base
        assert (
            store.key_for(exp, SETUPS[0].with_changes(opt_level=3)) != base
        )
        seeded = Experiment(workloads.get(WORKLOAD), seed=7)
        assert store.key_for(seeded, SETUPS[0]) != base

    def test_artifact_key_ignores_run_identity(self):
        # Two experiments over the same sources and build flags share
        # binaries even when their input seeds differ.
        store = MeasurementStore(MemoryBackend())
        a = store.artifact_key_for(fresh_experiment(), SETUPS[0])
        b = store.artifact_key_for(
            Experiment(workloads.get(WORKLOAD), seed=9), SETUPS[0]
        )
        assert a == b
        assert a.startswith("art-")

    def test_engine_fingerprint_is_cached_and_hexadecimal(self):
        fp = engine_fingerprint()
        assert fp == engine_fingerprint()
        assert len(fp) == 64
        int(fp, 16)


# -- backends ---------------------------------------------------------------


class TestBackends:
    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_roundtrip_idempotent_put_delete(self, kind, tmp_path):
        backend = (
            MemoryBackend()
            if kind == "memory"
            else DiskBackend(str(tmp_path / "store"))
        )
        assert backend.get("meas-aa") is None
        assert backend.put("meas-aa", b"payload") is True
        assert backend.put("meas-aa", b"other") is False  # first write wins
        assert backend.get("meas-aa") == b"payload"
        assert backend.keys() == ["meas-aa"]
        assert backend.size_bytes() == len(b"payload")
        backend.delete("meas-aa")
        assert backend.get("meas-aa") is None
        assert backend.keys() == []

    def test_disk_gc_evicts_least_recently_used(self, tmp_path):
        backend = DiskBackend(str(tmp_path / "store"))
        for i in range(4):
            backend.put(f"meas-{i:02d}", bytes(100))
            now = 1_000_000 + i
            os.utime(backend._path(f"meas-{i:02d}"), (now, now))
        # Touch the oldest entry: a read refreshes recency.
        backend.get("meas-00")
        evicted, freed = backend.gc(200)
        assert evicted == 2 and freed == 200
        assert backend.get("meas-00") == bytes(100)  # survived via LRU
        assert backend.get("meas-01") is None
        assert backend.get("meas-02") is None

    def test_leaked_tmp_file_is_invisible_and_swept(self, tmp_path):
        """A temp file orphaned by SIGKILL mid-put must not surface as a
        phantom key (which delete/gc could never reclaim — they re-shard
        by key), and a fresh open reclaims it."""
        root = str(tmp_path / "store")
        backend = DiskBackend(root)
        backend.put("meas-aa", b"payload")
        shard = os.path.dirname(backend._path("meas-aa"))
        leaked = [
            os.path.join(shard, ".tmp-deadbeef"),
            os.path.join(shard, ".tmp-cafe.json"),  # pre-fix tmp naming
        ]
        for path in leaked:
            with open(path, "w") as fh:
                fh.write("{ half a write")
        assert backend.keys() == ["meas-aa"]
        assert backend.size_bytes() == len(b"payload")
        assert backend.verify() == (1, [])
        DiskBackend(root)  # re-open sweeps the leftovers
        assert [p for p in leaked if os.path.exists(p)] == []
        assert backend.get("meas-aa") == b"payload"

    def test_disk_verify_flags_damage(self, tmp_path):
        backend = DiskBackend(str(tmp_path / "store"))
        backend.put("meas-ok", b"good")
        backend.put("meas-bad", b"doomed")
        path = backend._path("meas-bad")
        with open(path, "w") as fh:
            fh.write("{ not json")
        ok, corrupt = backend.verify()
        assert ok == 1
        assert corrupt == ["meas-bad"]
        with pytest.raises(StoreEntryCorrupt):
            backend.get("meas-bad")


# -- corruption policy ------------------------------------------------------


class TestCorruption:
    def _seeded_store(self, tmp_path):
        store = open_store(str(tmp_path / "store"))
        exp = fresh_experiment()
        m = exp.run(SETUPS[0])
        assert store.put_measurement(exp, m) is True
        (path,) = entry_files(tmp_path / "store")
        return store, exp, path

    def test_truncated_entry_is_a_counted_miss(self, tmp_path):
        store, exp, path = self._seeded_store(tmp_path)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[:50])
        assert store.get_measurement(exp, SETUPS[0]) is None
        assert store.corrupt == 1 and store.misses == 1
        assert not os.path.exists(path)  # corrupt entries are purged
        # The next sweep simply re-measures: damage costs one miss.
        result = sweep(store, exp=fresh_experiment())
        assert result.report.accounted()

    def test_bitflipped_payload_fails_checksum(self, tmp_path):
        store, exp, path = self._seeded_store(tmp_path)
        with open(path) as fh:
            entry = json.load(fh)
        payload = entry["payload"]
        flipped = ("B" if payload[10] != "B" else "C")
        entry["payload"] = payload[:10] + flipped + payload[11:]
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert store.get_measurement(exp, SETUPS[0]) is None
        assert store.corrupt == 1
        assert not os.path.exists(path)


# -- the invariant: warm == cold -------------------------------------------


class TestWarmRuns:
    def test_warm_sweep_skips_engine_and_matches_cold_bytes(self, tmp_path):
        root = str(tmp_path / "store")
        cold_store = open_store(root)
        cold = sweep(cold_store)
        assert cold_store.puts >= len(SETUPS)

        warm_store = open_store(root)  # fresh handle, same directory
        before = engine_runs()
        warm = sweep(warm_store)
        assert engine_runs() == before  # zero simulator executions
        assert warm_store.hits == len(SETUPS)
        assert warm_store.misses == 0

        # The acceptance bar: a warm re-run skips >= 90% of executions
        # (here: all of them) with a byte-identical report.
        assert warm_store.hits / len(SETUPS) >= 0.9
        assert canonical_json(warm.report.to_dict()) == canonical_json(
            cold.report.to_dict()
        )
        assert [measurement_to_dict(m) for m in warm.measurements] == [
            measurement_to_dict(m) for m in cold.measurements
        ]

    def test_warm_parallel_sweep_never_builds_a_pool(self, tmp_path):
        root = str(tmp_path / "store")
        cold = sweep(open_store(root), jobs=2)
        before = engine_runs()
        warm = sweep(open_store(root), jobs=2)
        assert engine_runs() == before
        assert canonical_json(warm.report.to_dict()) == canonical_json(
            cold.report.to_dict()
        )

    def test_warm_journal_matches_cold_journal(self, tmp_path):
        root = str(tmp_path / "store")
        cold_journal = str(tmp_path / "cold.journal")
        warm_journal = str(tmp_path / "warm.journal")
        exp = fresh_experiment()
        runner = SweepRunner(
            exp,
            RunnerConfig(backoff_base=0.001),
            journal_path=cold_journal,
            store=open_store(root),
            sleep=lambda s: None,
        )
        runner.run(SETUPS)
        exp2 = fresh_experiment()
        runner2 = SweepRunner(
            exp2,
            RunnerConfig(backoff_base=0.001),
            journal_path=warm_journal,
            store=open_store(root),
            sleep=lambda s: None,
        )
        runner2.run(SETUPS)
        with open(cold_journal) as fh:
            cold_lines = fh.readlines()
        with open(warm_journal) as fh:
            warm_lines = fh.readlines()
        assert warm_lines == cold_lines

    def test_warm_journal_embeds_the_store_payloads(self, tmp_path, monkeypatch):
        # A hit's journal line is built around the entry's own payload
        # text: no measurement is encoded again on the way.
        setups = [ExperimentalSetup(env_bytes=100 + 16 * i) for i in range(6)]
        root = str(tmp_path / "store")

        def run(journal):
            SweepRunner(
                fresh_experiment(),
                RunnerConfig(backoff_base=0.001),
                journal_path=str(tmp_path / journal),
                store=open_store(root),
                sleep=lambda s: None,
            ).run(setups)
            with open(tmp_path / journal) as fh:
                return fh.readlines()

        cold = run("cold.jsonl")
        encoded = []

        def counting(m):
            encoded.append(m)
            return measurement_to_dict(m)

        monkeypatch.setattr(runner_mod, "measurement_to_dict", counting)
        assert run("warm.jsonl") == cold
        assert encoded == []

    def test_custom_compiler_profile_sweeps_resume_and_go_warm(self, tmp_path):
        treatment = example_treatment()
        setups = [treatment.with_changes(env_bytes=e) for e in (100, 148)]
        root = str(tmp_path / "store")

        def run(journal):
            return SweepRunner(
                fresh_experiment(),
                RunnerConfig(jobs=2, backoff_base=0.001),
                journal_path=str(tmp_path / journal),
                store=open_store(root),
                sleep=lambda s: None,
            ).run(setups)

        cold = run("a.jsonl")
        assert cold.report.measured == len(setups)
        assert not cold.report.quarantined
        resumed = run("a.jsonl")
        assert (resumed.report.resumed, resumed.report.measured) == (
            len(setups), 0
        )
        before = engine_runs()
        warm_store = open_store(root)
        warm = SweepRunner(
            fresh_experiment(),
            RunnerConfig(jobs=2, backoff_base=0.001),
            store=warm_store,
            sleep=lambda s: None,
        ).run(setups)
        assert engine_runs() == before
        assert warm_store.hits == len(setups)
        assert [measurement_to_dict(m) for m in warm.measurements] == [
            measurement_to_dict(m) for m in cold.measurements
        ]

    def test_memory_store_serves_second_sweep_in_process(self):
        store = MeasurementStore(MemoryBackend())
        sweep(store)
        before = engine_runs()
        sweep(store, exp=fresh_experiment())
        assert engine_runs() == before
        assert store.hits == len(SETUPS)


# -- artifact caching -------------------------------------------------------


class TestArtifacts:
    def test_second_process_skips_compilation(self, tmp_path):
        root = str(tmp_path / "store")
        exp = fresh_experiment()
        exp.attach_store(open_store(root))
        exp.build(SETUPS[0])

        fresh = fresh_experiment()  # simulates a new process: cold caches
        store = open_store(root)
        fresh.attach_store(store)
        builds_before = obs_metrics.counter("experiment.builds").value
        fresh.build(SETUPS[0])
        assert store.artifact_hits == 1
        assert obs_metrics.counter("experiment.builds").value == builds_before

    def test_artifact_entry_refusing_foreign_globals(self, tmp_path):
        import pickle

        store = open_store(str(tmp_path / "store"))
        exp = fresh_experiment()
        key = store.artifact_key_for(exp, SETUPS[0])
        store.backend.put(key, pickle.dumps(os.system))
        assert store.get_artifact(exp, SETUPS[0]) is None
        assert store.corrupt == 1

    def test_artifact_entry_refuses_builtins_and_repro_callables(
        self, tmp_path
    ):
        """The unpickler is a concrete-class allowlist: builtins
        (eval/getattr) and repro-module callables alike are refused —
        anything loadable and callable would hand a crafted entry in a
        shared store directory arbitrary code execution."""
        import pickle

        store = open_store(str(tmp_path / "store"))
        exp = fresh_experiment()
        key = store.artifact_key_for(exp, SETUPS[0])
        for smuggled in (eval, getattr, __import__, open_store):
            store.backend.delete(key)
            store.backend.put(key, pickle.dumps(smuggled))
            before = store.corrupt
            assert store.get_artifact(exp, SETUPS[0]) is None
            assert store.corrupt == before + 1


# -- provenance, export, CLI ------------------------------------------------


class TestOperations:
    def test_manifest_store_section_validates(self, tmp_path):
        store = open_store(str(tmp_path / "store"))
        sweep(store)
        manifest = build_manifest(store=store)
        assert validate_manifest(manifest) == []
        section = manifest["store"]
        assert section["scheme"] == KEY_SCHEME
        assert section["puts"] == store.puts
        manifest["store"] = "not-an-object"
        assert validate_manifest(manifest) != []

    def test_export_roundtrips_into_archive(self, tmp_path):
        store = open_store(str(tmp_path / "store"))
        result = sweep(store)
        out = str(tmp_path / "export.json")
        assert store.export(out) == len(SETUPS)
        loaded = load_measurements(out)
        assert sorted(
            canonical_json(measurement_to_dict(m)) for m in loaded
        ) == sorted(
            canonical_json(measurement_to_dict(m)) for m in result.ok
        )

    def test_cli_store_commands(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        assert (
            main(
                [
                    "run",
                    WORKLOAD,
                    "--env-bytes",
                    "128",
                    "--store",
                    root,
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "store: hits=0" in err

        assert main(["store", "stats", root]) == 0
        out = capsys.readouterr().out
        assert KEY_SCHEME in out and "entries" in out

        assert main(["store", "verify", root]) == 0

        export = str(tmp_path / "archive.json")
        assert main(["store", "export", root, export]) == 0
        capsys.readouterr()
        assert load_measurements(export)

        assert main(["store", "gc", root, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out and "0 entries (0 bytes) remain" in out
        assert main(["store", "stats", root]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("entries"))
        assert line.split()[-1] == "0"

    def test_cli_store_verify_exits_nonzero_on_deep_corruption(
        self, tmp_path, capsys
    ):
        """An entry whose *payload* is junk passes the backend checksum
        but must still fail verification (and the exit code must say
        so): deep verify deserializes every record, not just its bytes."""
        from repro.cli import main
        from repro.store.backend import DiskBackend
        from repro.store.keys import MEASUREMENT_PREFIX

        root = str(tmp_path / "store")
        backend = DiskBackend(root)
        assert backend.put(MEASUREMENT_PREFIX + "0" * 64, b'{"not": "a record"}')
        assert main(["store", "verify", root]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "1 corrupt" in out

    def test_cli_store_requires_a_directory(self, capsys):
        from repro.cli import main

        env_backup = os.environ.pop("REPRO_STORE", None)
        try:
            assert main(["store", "stats"]) == 2
        finally:
            if env_backup is not None:
                os.environ["REPRO_STORE"] = env_backup
        assert "store directory" in capsys.readouterr().err

    def test_cli_no_store_wins_over_store(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "store")
        assert (
            main(
                [
                    "run",
                    WORKLOAD,
                    "--store",
                    root,
                    "--no-store",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert not os.path.exists(root)
