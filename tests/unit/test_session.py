"""Unit tests: measurement archiving and drift verification."""

import json

import pytest

from repro import workloads
from repro.arch import core2
from repro.core import Experiment, ExperimentalSetup
from repro.core.errors import ArchiveCorruption
from repro.core.runner import sweep_id
from repro.core.session import (
    FORMAT_V1,
    canonical_json,
    load_measurement_record,
    load_measurements,
    measurement_from_dict,
    measurement_to_dict,
    record_checksum,
    save_measurements,
    setup_from_dict,
    setup_to_dict,
    verify_against_archive,
)
from repro.store.keys import artifact_key, measurement_key
from tests.conftest import example_treatment


@pytest.fixture(scope="module")
def exp():
    return Experiment(workloads.get("sphinx3"), size="test", seed=0)


class TestSetupSerialization:
    def test_roundtrip_simple(self):
        s = ExperimentalSetup(
            opt_level=3, env_bytes=512, link_order=("a", "b")
        )
        assert setup_from_dict(setup_to_dict(s)) == s

    def test_roundtrip_custom_machine(self):
        s = ExperimentalSetup(machine=core2().with_overrides(has_lsd=False))
        back = setup_from_dict(setup_to_dict(s))
        assert back.machine_config() == s.machine_config()

    def test_json_safe(self):
        import json

        s = ExperimentalSetup(machine=core2(), link_order=("x",))
        json.dumps(setup_to_dict(s))  # must not raise

    def test_custom_compiler_profile_roundtrips_through_json(self):
        # The treatment of examples/evaluate_new_optimization.py.
        treatment = example_treatment()
        data = json.loads(canonical_json(setup_to_dict(treatment)))
        assert data["compiler"] == {
            "__compiler_profile__": treatment.compiler.to_dict()
        }
        assert setup_from_dict(data) == treatment

    @pytest.mark.parametrize("profile", [5, {"name": "x"}, [1, 2]])
    def test_malformed_compiler_profile_is_archive_corruption(
        self, exp, base_setup, profile
    ):
        data = measurement_to_dict(exp.run(base_setup))
        data["setup"]["compiler"] = {"__compiler_profile__": profile}
        with pytest.raises(ArchiveCorruption):
            load_measurement_record(data)

    def test_preset_setups_keep_their_bytes(self):
        # Pinned before custom profiles could be serialized: a preset
        # compiler is still its bare name in keys and sweep ids.
        setups = [
            ExperimentalSetup(
                compiler="icc", opt_level=3, link_order=("b", "a"),
                env_bytes=132,
            ),
            ExperimentalSetup(),
        ]
        args = ("sphinx3", "s" * 64)
        assert measurement_key(
            *args, "test", 0, True, setups[0], "e" * 64
        ) == (
            "meas-b81d743a65654572eee8b7bc06294f65"
            "b98d09d43a38e1bf7a0e584d5d3cb592"
        )
        assert artifact_key(*args, setups[0], "e" * 64) == (
            "art-ac1dca938e427ae9d77b7eb3442c52e5"
            "73bd4a79f6c0cb91717d1dc9af2ba379"
        )
        assert sweep_id("sphinx3", "test", 0, setups) == (
            "b5e58d2c71f24adaa8b33b301fded162"
            "c8e71a626ee616c584d0d914823e1e1e"
        )


class TestMeasurementSerialization:
    def test_roundtrip(self, exp, base_setup):
        m = exp.run(base_setup)
        back = measurement_from_dict(measurement_to_dict(m))
        assert back.exit_value == m.exit_value
        assert back.counters.cycles == m.counters.cycles
        assert back.setup == m.setup

    def test_save_and_load(self, exp, base_setup, tmp_path):
        ms = [
            exp.run(base_setup.with_changes(env_bytes=e))
            for e in (100, 164)
        ]
        path = str(tmp_path / "archive.json")
        save_measurements(path, ms, note="unit test")
        loaded = load_measurements(path)
        assert len(loaded) == 2
        assert [m.counters.cycles for m in loaded] == [
            m.counters.cycles for m in ms
        ]

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="archive"):
            load_measurements(str(path))


class TestArchiveCorruptionDiagnostics:
    """Every load failure must be an ArchiveCorruption naming the file
    and, where applicable, the record — never a raw KeyError or
    JSONDecodeError."""

    def _saved(self, exp, base_setup, tmp_path):
        path = str(tmp_path / "archive.json")
        save_measurements(path, [exp.run(base_setup)], note="corruption test")
        return path

    def test_truncated_file(self, exp, base_setup, tmp_path):
        path = self._saved(exp, base_setup, tmp_path)
        raw = open(path).read()
        open(path, "w").write(raw[: len(raw) // 2])
        with pytest.raises(ArchiveCorruption, match="invalid JSON") as info:
            load_measurements(path)
        assert info.value.path == path

    def test_missing_measurement_keys(self, exp, base_setup, tmp_path):
        path = self._saved(exp, base_setup, tmp_path)
        data = json.load(open(path))
        record = data["measurements"][0]
        del record["measurement"]["counters"]
        record["sha256"] = record_checksum(record["measurement"])
        json.dump(data, open(path, "w"))
        with pytest.raises(ArchiveCorruption, match="counters") as info:
            load_measurements(path)
        assert info.value.record == 0

    def test_checksum_mismatch_names_the_record(
        self, exp, base_setup, tmp_path
    ):
        path = self._saved(exp, base_setup, tmp_path)
        data = json.load(open(path))
        data["measurements"][0]["measurement"]["counters"]["cycles"] += 1.0
        json.dump(data, open(path, "w"))
        with pytest.raises(ArchiveCorruption, match="checksum") as info:
            load_measurements(path)
        assert info.value.path == path
        assert info.value.record == 0
        assert "record 0" in str(info.value)

    def test_measurements_not_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": FORMAT_V1, "measurements": 7}))
        with pytest.raises(ArchiveCorruption, match="list"):
            load_measurements(str(path))

    def test_v1_archive_still_loads(self, exp, base_setup, tmp_path):
        # Pre-checksum archives (bare measurement dicts) must stay
        # readable for old published artifacts.
        m = exp.run(base_setup)
        path = tmp_path / "v1.json"
        path.write_text(
            json.dumps(
                {
                    "format": FORMAT_V1,
                    "measurements": [measurement_to_dict(m)],
                }
            )
        )
        loaded = load_measurements(str(path))
        assert loaded[0].counters.cycles == m.counters.cycles


class TestDriftVerification:
    def test_no_drift_on_deterministic_substrate(self, exp, base_setup):
        archived = [exp.run(base_setup.with_changes(env_bytes=100))]
        assert verify_against_archive(exp, archived) is None

    def test_drift_detected(self, exp, base_setup):
        m = exp.run(base_setup.with_changes(env_bytes=100))
        tampered = measurement_from_dict(measurement_to_dict(m))
        tampered.counters.cycles += 123.0
        assert "drift" in verify_against_archive(exp, [tampered])

    def test_tolerance_allows_small_drift(self, exp, base_setup):
        m = exp.run(base_setup.with_changes(env_bytes=100))
        tampered = measurement_from_dict(measurement_to_dict(m))
        tampered.counters.cycles *= 1.0001
        assert (
            verify_against_archive(exp, [tampered], tolerance=0.01) is None
        )
