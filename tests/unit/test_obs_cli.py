"""Unit tests: the observability CLI surface.

``study --trace-out/--manifest-out/--quiet`` artifact emission, progress
on stderr (stdout stays the published tables), and the ``repro obs``
inspector subcommands.
"""

import json

import pytest

from repro.cli import main
from repro.obs.inspect import validate_manifest, validate_trace


def tiny_study(extra):
    return [
        "study", "sphinx3", "env",
        "--env-start", "100", "--env-stop", "164", "--env-step", "32",
    ] + extra


@pytest.fixture()
def traced_artifacts(tmp_path, capsys):
    """Run one traced study; returns (trace_path, manifest_path)."""
    trace = str(tmp_path / "sweep.json")
    assert main(tiny_study(["--trace-out", trace])) == 0
    capsys.readouterr()
    return trace, str(tmp_path / "sweep.manifest.json")


class TestStudyFlags:
    def test_trace_out_writes_a_valid_chrome_trace(self, traced_artifacts):
        trace, _ = traced_artifacts
        with open(trace) as fh:
            data = json.load(fh)
        assert validate_trace(data) == []
        names = {
            ev["name"] for ev in data["traceEvents"] if ev["ph"] == "X"
        }
        assert {"sweep", "setup", "run", "compile", "load"} <= names

    def test_manifest_lands_next_to_the_trace(self, traced_artifacts):
        trace, manifest_path = traced_artifacts
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert validate_manifest(manifest) == []
        assert manifest["experiment"]["workload"] == "sphinx3"
        assert [s["env_bytes"] for s in manifest["setups"]] == [
            100, 100, 132, 132,
        ]
        assert manifest["artifacts"]
        assert trace in manifest["artifacts"]
        assert manifest["report"]["measured"] == 4

    def test_manifest_out_overrides_the_default_path(self, tmp_path, capsys):
        manifest_path = str(tmp_path / "custom.json")
        assert main(tiny_study(["--manifest-out", manifest_path])) == 0
        capsys.readouterr()
        with open(manifest_path) as fh:
            assert validate_manifest(json.load(fh)) == []

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(tiny_study([])) == 0
        captured = capsys.readouterr()
        assert "sweep [" in captured.err or "sweep " in captured.err
        assert "sweep [" not in captured.out

    def test_quiet_silences_progress(self, capsys):
        assert main(tiny_study(["--quiet"])) == 0
        captured = capsys.readouterr()
        assert "sweep" not in captured.err
        assert "speedup" in captured.out


class TestObsCommand:
    def test_summary_renders_trace_and_manifest(
        self, traced_artifacts, capsys
    ):
        trace, manifest = traced_artifacts
        assert main(["obs", "summary", trace, manifest]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "sweep" in out
        assert "sphinx3" in out

    def test_validate_accepts_good_artifacts(self, traced_artifacts, capsys):
        trace, manifest = traced_artifacts
        assert main(["obs", "validate", trace, manifest]) == 0
        out = capsys.readouterr().out
        assert out.count("OK:") == 2

    def test_validate_rejects_bad_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert main(["obs", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_merge_produces_one_multi_process_trace(
        self, traced_artifacts, tmp_path, capsys
    ):
        trace, _ = traced_artifacts
        merged_path = str(tmp_path / "merged.json")
        assert main(["obs", "merge", merged_path, trace, trace]) == 0
        capsys.readouterr()
        with open(merged_path) as fh:
            merged = json.load(fh)
        pids = {
            ev["pid"] for ev in merged["traceEvents"] if ev["ph"] == "X"
        }
        assert pids == {1, 2}
        assert main(["obs", "summary", merged_path]) == 0

    def test_diff_compares_two_traces(self, traced_artifacts, capsys):
        trace, _ = traced_artifacts
        assert main(["obs", "diff", trace, trace]) == 0
        out = capsys.readouterr().out
        assert "trace diff" in out and "+0.000" in out

    def test_diff_compares_two_manifests(self, traced_artifacts, capsys):
        _, manifest = traced_artifacts
        assert main(["obs", "diff", manifest, manifest]) == 0
        out = capsys.readouterr().out
        assert "manifest diff" in out

    def test_diff_refuses_mixed_kinds(self, traced_artifacts, capsys):
        trace, manifest = traced_artifacts
        assert main(["obs", "diff", trace, manifest]) == 1

    def test_junk_input_is_a_diagnosis_not_a_crash(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("not json")
        assert main(["obs", "summary", str(junk)]) == 1
        assert "error" in capsys.readouterr().err


class TestChaosAndJournalCommands:
    def _chaos_args(self, journal, report):
        return tiny_study([
            "--quiet", "--jobs", "2", "--resume", journal,
            "--fault-plan",
            "seed=3,worker_crash=0.4,worker_hang=0.25,"
            "transient=1.0,max_transient_attempts=1",
            "--report-out", report,
        ])

    @pytest.mark.slow
    def test_chaos_sweep_report_equals_fault_free_serial(
        self, tmp_path, capsys
    ):
        serial = str(tmp_path / "serial.json")
        chaos = str(tmp_path / "chaos.json")
        journal = str(tmp_path / "chaos.jsonl")
        assert main(tiny_study(["--quiet", "--report-out", serial])) == 0
        assert main(self._chaos_args(journal, chaos)) == 0
        capsys.readouterr()
        with open(serial, "rb") as a, open(chaos, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.slow
    def test_journal_compact_summary_and_validate(self, tmp_path, capsys):
        journal = str(tmp_path / "chaos.jsonl")
        report = str(tmp_path / "report.json")
        assert main(self._chaos_args(journal, report)) == 0
        capsys.readouterr()
        assert main(["journal", "compact", journal]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "4 -> 4 records" in out
        assert main(["obs", "validate", journal]) == 0
        assert "OK: valid journal" in capsys.readouterr().out
        assert main(["journal", "summary", journal]) == 0
        out = capsys.readouterr().out
        assert "distinct setups" in out and "metrics" in out
        assert main(["obs", "summary", journal]) == 0

    def test_validate_flags_stale_duplicates_until_compacted(
        self, tmp_path, capsys
    ):
        journal = str(tmp_path / "sweep.jsonl")
        args = tiny_study(["--quiet", "--jobs", "1", "--resume", journal])
        assert main(args) == 0
        assert main(args) == 0  # resumed run appends a second metrics aux
        capsys.readouterr()
        assert main(["obs", "validate", journal]) == 1
        assert "stale duplicate" in capsys.readouterr().out
        assert main(["journal", "compact", journal]) == 0
        capsys.readouterr()
        assert main(["obs", "validate", journal]) == 0
        assert "OK: valid journal" in capsys.readouterr().out

    def test_validate_names_the_line_compaction_drops(self, tmp_path, capsys):
        from repro.core import checklog
        from repro.core.runner import JOURNAL_FORMAT

        journal = tmp_path / "sweep.jsonl"
        header = {
            "format": JOURNAL_FORMAT, "sweep": "s" * 12, "torn_recovered": 0,
        }
        first, _ = checklog.encode({"cycles": 1.0}, index=3)
        other, _ = checklog.encode({"cycles": 2.0}, index=5)
        latest, _ = checklog.encode({"cycles": 3.0}, index=3)
        journal.write_text(
            "\n".join([json.dumps(header), first, other, latest]) + "\n"
        )
        assert main(["obs", "validate", str(journal)]) == 1
        out = capsys.readouterr().out
        assert "line 2: stale duplicate record for setup 3" in out
        assert "line 4" not in out
        assert main(["journal", "compact", str(journal)]) == 0
        capsys.readouterr()
        # Compaction keeps the latest record per setup: line 4, not line 2.
        assert journal.read_text().splitlines()[1:] == [latest, other]

    def test_journal_summary_refuses_non_journals(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"traceEvents": []}))
        assert main(["journal", "summary", str(junk)]) == 1
        assert "not a checkpoint journal" in capsys.readouterr().err

    def test_bad_fault_plan_spec_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(tiny_study(["--fault-plan", "meteor=1.0"]))
        assert "unknown fault-plan key" in capsys.readouterr().err

    @pytest.mark.slow
    def test_degraded_sweep_is_reported_in_summary_and_manifest(
        self, tmp_path, capsys
    ):
        manifest_path = str(tmp_path / "m.json")
        report_path = str(tmp_path / "r.json")
        args = tiny_study([
            "--quiet", "--jobs", "2",
            "--fault-plan",
            "seed=1,worker_crash=1.0,transient=0.0",
            "--manifest-out", manifest_path,
            "--report-out", report_path,
        ])
        assert main(args) == 0  # degraded, not failed: fallback measured all
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["report"]["degraded"] is True
        assert len(manifest["report"]["degraded_setups"]) == 4
        assert manifest["fault_plan"]["worker_crash_rate"] == 1.0
        assert manifest["runner"]["max_respawns"] == 8
