"""Unit tests: the observability layer (repro.obs).

Covers the subsystem's acceptance criteria: deterministic span
identities and byte-identical traces under an injected clock, valid
Chrome-trace output, metrics registry semantics, manifest build /
validate / round-trip (standalone and embedded in a v2 archive),
progress reporter events (including retries and quarantines), metrics
accounting across kill + resume, the engine's per-PC attribution hook,
and the disabled-path overhead guard.
"""

import json

import pytest

from repro import faults, workloads
from repro.analysis import pc_profile_diff
from repro.arch import execute, get_machine
from repro.arch.engine import FASTPATH_ENV
from repro.core import Experiment, ExperimentalSetup
from repro.core.errors import ArchiveCorruption
from repro.core.runner import Journal, RunnerConfig, SweepRunner, sweep_id
from repro.core.session import load_archive, save_measurements
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace
from repro.obs.inspect import validate_trace
from repro.os import Environment, load_process

from tests.conftest import run_exe, shared_experiment

WORKLOAD = "sphinx3"

SETUPS = [ExperimentalSetup(env_bytes=e) for e in (100, 116, 132, 148)]

#: Mixed transient + permanent faults (seed chosen so the sweep above
#: sees at least one retry and at least one quarantine; asserted below).
NOISY_PLAN = faults.FaultPlan(
    seed=3,
    build_rate=0.2,
    hang_rate=0.4,
    counter_rate=0.2,
    verify_rate=0.3,
    transient_fraction=0.7,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    faults.clear()
    obs_trace.install(None)
    yield
    faults.clear()
    obs_trace.install(None)


class FakeClock:
    """Deterministic clock: each read advances by a fixed step."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


# -- tracing ----------------------------------------------------------------


class TestTracer:
    def test_span_paths_number_occurrences_per_parent(self):
        t = obs_trace.Tracer(clock=FakeClock())
        with t.span("sweep"):
            with t.span("run"):
                pass
            with t.span("run"):
                pass
        with t.span("sweep"):
            with t.span("run"):
                pass
        paths = [s.path for s in t.spans]
        assert paths == [
            "sweep#0",
            "sweep#0/run#0",
            "sweep#0/run#1",
            "sweep#1",
            "sweep#1/run#0",
        ]

    def test_ids_are_path_hashes_and_parents_link_up(self):
        t = obs_trace.Tracer(clock=FakeClock())
        with t.span("a") as outer:
            with t.span("b") as inner:
                pass
        assert outer.span_id == obs_trace.span_id_for_path("a#0")
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1

    def test_traces_are_byte_identical_under_a_fake_clock(self):
        def make_trace():
            t = obs_trace.Tracer(clock=FakeClock(), label="test")
            with obs_trace.tracing(t):
                with obs_trace.span("compile", unit="main") as sp:
                    sp.set(instructions=42)
                    with obs_trace.span("parse"):
                        pass
                obs_trace.instant("checkpoint", index=3)
            return t.to_json()

        assert make_trace() == make_trace()

    def test_chrome_trace_passes_schema_validation(self):
        t = obs_trace.Tracer(clock=FakeClock())
        with t.span("outer"):
            t.instant("tick")
            with t.span("inner"):
                pass
        assert validate_trace(t.to_chrome_trace()) == []

    def test_validator_rejects_non_traces(self):
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": [{"ph": "Z"}]}) != []

    def test_exceptions_mark_the_span_and_propagate(self):
        t = obs_trace.Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with t.span("work"):
                raise ValueError("boom")
        assert t.spans[0].attrs["error"] == "ValueError"
        assert t.spans[0].duration is not None

    def test_default_recorder_is_a_shared_noop(self):
        assert obs_trace.active() is obs_trace.NULL_TRACER
        sp = obs_trace.span("anything", whatever=1)
        assert sp is obs_trace.NULL_SPAN
        assert sp.set(x=1) is sp
        with sp:
            pass

    def test_tracing_scope_installs_and_restores(self):
        t = obs_trace.Tracer(clock=FakeClock())
        with obs_trace.tracing(t):
            assert obs_trace.active() is t
        assert obs_trace.active() is obs_trace.NULL_TRACER

    def test_pipeline_emits_the_expected_span_tree(self):
        exp = Experiment(workloads.get(WORKLOAD))
        t = obs_trace.Tracer(clock=FakeClock())
        with obs_trace.tracing(t):
            exp.run(SETUPS[0])
        names = {s.name for s in t.spans}
        assert {"compile", "unit", "parse", "codegen", "link", "load", "run"} <= names
        run = next(s for s in t.spans if s.name == "run")
        assert run.attrs["cycles"] > 0
        load = next(s for s in t.spans if s.name == "load")
        assert load.attrs["env_bytes"] == SETUPS[0].environment().total_bytes
        assert load.attrs["sp_start"] > 0
        # compile nests under run's build; every span has a valid parent
        by_id = {s.span_id: s for s in t.spans}
        for s in t.spans:
            if s.parent_id is not None:
                assert s.parent_id in by_id

    def test_relinks_open_no_compile_span(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        wl = workloads.get(WORKLOAD)
        exp = Experiment(wl)
        names = sorted(wl.sources)
        t = obs_trace.Tracer(clock=FakeClock())
        with obs_trace.tracing(t):
            for order in (names, names[::-1]):
                exp.build(ExperimentalSetup(link_order=order))
        count = {}
        for s in t.spans:
            count[s.name] = count.get(s.name, 0) + 1
        # One real compile; one link and one block-cache warm per build.
        assert count["compile"] == 1
        assert count["link"] == count["blockcache-warm"] == 2


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_semantics(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.gauge("g").set(5)
        for v in (1.0, 3.0):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 5}
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["mean"] == 2.0
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 3.0

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError):
            obs_metrics.MetricsRegistry().counter("c").inc(-1)

    def test_a_name_is_owned_by_its_first_kind(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_counters_view_is_sorted_and_counters_only(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc(4)
        reg.gauge("m").set(1)
        assert list(reg.counters().items()) == [("a", 4), ("z", 1)]

    def test_scoped_registry_isolates_accounting(self):
        before = obs_metrics.registry()
        with obs_metrics.scoped() as reg:
            assert obs_metrics.registry() is reg
            obs_metrics.counter("scoped.events").inc()
            assert reg.counters() == {"scoped.events": 1}
        assert obs_metrics.registry() is before
        assert "scoped.events" not in obs_metrics.registry().counters()

    def test_pipeline_accounts_builds_runs_and_cache_hits(self):
        exp = Experiment(workloads.get(WORKLOAD))
        with obs_metrics.scoped() as reg:
            exp.run(SETUPS[0])
            exp.run(SETUPS[0])  # cache hit
        counters = reg.counters()
        assert counters["experiment.builds"] == 1
        assert counters["engine.runs"] == 1
        assert counters["experiment.run_cache_hits"] == 1
        assert counters["engine.instructions"] > 0
        snap = reg.snapshot()
        assert snap["histograms"]["engine.run_seconds"]["count"] == 1


# -- manifests --------------------------------------------------------------


class TestManifest:
    def build(self, tmp_path, artifacts=None):
        exp = shared_experiment(WORKLOAD)
        return obs_manifest.build_manifest(
            experiment=exp,
            setups=SETUPS,
            runner_config=RunnerConfig(jobs=2, backoff_seed=9),
            fault_plan=NOISY_PLAN,
            metrics=obs_metrics.MetricsRegistry().snapshot(),
            artifacts=artifacts,
            note="unit test",
        )

    def test_manifest_names_the_full_setup_story(self, tmp_path):
        m = self.build(tmp_path)
        assert obs_manifest.validate_manifest(m) == []
        assert m["experiment"]["workload"] == WORKLOAD
        assert [s["env_bytes"] for s in m["setups"]] == [100, 116, 132, 148]
        assert m["toolchain"]["profiles"] == ["gcc"]
        assert m["machines"] == ["core2"]
        assert m["seeds"] == {"input": 0, "backoff": 9, "faults": 3}
        assert m["fault_plan"]["hang_rate"] == NOISY_PLAN.hang_rate
        assert m["sweep_id"] == sweep_id(WORKLOAD, "test", 0, SETUPS)

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "m.json")
        m = self.build(tmp_path)
        obs_manifest.save_manifest(path, m)
        assert obs_manifest.load_manifest(path) == json.loads(json.dumps(m))

    def test_artifact_checksums_are_validated(self, tmp_path):
        artifact = tmp_path / "trace.json"
        artifact.write_text("{}")
        m = self.build(
            tmp_path,
            artifacts={
                str(artifact): obs_manifest.file_checksum(str(artifact))
            },
        )
        assert obs_manifest.validate_manifest(m) == []
        m["artifacts"][str(artifact)] = "nothex"
        assert obs_manifest.validate_manifest(m) != []

    def test_load_rejects_invalid_documents(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump({"format": "wrong"}, fh)
        with pytest.raises(ArchiveCorruption):
            obs_manifest.load_manifest(path)

    def test_archive_v2_round_trips_the_manifest(self, tmp_path):
        exp = shared_experiment(WORKLOAD)
        measurements = [exp.run(s) for s in SETUPS[:2]]
        manifest = obs_manifest.build_manifest(
            experiment=exp, setups=SETUPS[:2], note="archive test"
        )
        path = str(tmp_path / "archive.json")
        save_measurements(path, measurements, manifest=manifest)
        loaded, loaded_manifest = load_archive(path)
        assert [m.cycles for m in loaded] == [m.cycles for m in measurements]
        assert loaded_manifest["note"] == "archive test"
        assert obs_manifest.validate_manifest(loaded_manifest) == []

    def test_archive_without_manifest_loads_none(self, tmp_path):
        exp = shared_experiment(WORKLOAD)
        path = str(tmp_path / "bare.json")
        save_measurements(path, [exp.run(SETUPS[0])])
        _, manifest = load_archive(path)
        assert manifest is None


# -- progress + runner integration ------------------------------------------


class RecordingReporter(obs_progress.ProgressReporter):
    def __init__(self):
        self.events = []

    def sweep_started(self, total, resumed, sweep=""):
        self.events.append(("started", total, resumed))

    def setup_finished(self, index, setup, status, attempts=1):
        self.events.append(("finished", index, status, attempts))

    def retry(self, index, setup, attempt, error_type, message):
        self.events.append(("retry", index, error_type))

    def quarantined(self, index, setup, error_type, fate, attempts, message):
        self.events.append(("quarantined", index, error_type))

    def sweep_finished(self, report):
        self.events.append(("done", report.measured))


def run_sweep(jobs=1, plan=None, journal=None, progress=None, exp=None):
    if exp is None:
        exp = Experiment(workloads.get(WORKLOAD))
    runner = SweepRunner(
        exp,
        RunnerConfig(jobs=jobs, max_retries=2, backoff_base=0.001),
        journal_path=journal,
        fault_plan=plan,
        progress=progress,
        sleep=lambda s: None,
    )
    return runner.run(SETUPS)


class TestRunnerObservability:
    def test_progress_sees_every_setup_exactly_once(self):
        rep = RecordingReporter()
        result = run_sweep(progress=rep)
        assert rep.events[0] == ("started", len(SETUPS), 0)
        assert rep.events[-1] == ("done", len(SETUPS))
        finished = [e for e in rep.events if e[0] == "finished"]
        assert sorted(e[1] for e in finished) == list(range(len(SETUPS)))
        assert result.report.complete

    def test_retries_and_quarantines_surface_as_events(self):
        rep = RecordingReporter()
        result = run_sweep(plan=NOISY_PLAN, progress=rep)
        retries = [e for e in rep.events if e[0] == "retry"]
        quarantines = [e for e in rep.events if e[0] == "quarantined"]
        # The seeded plan must actually exercise both paths.
        assert len(retries) == result.report.retries > 0
        assert len(quarantines) == len(result.report.quarantined) > 0
        terminal = [e for e in rep.events if e[0] in ("finished", "quarantined")]
        assert len(terminal) == len(SETUPS)

    def test_parallel_sweep_emits_the_same_terminal_events(self):
        serial, parallel = RecordingReporter(), RecordingReporter()
        run_sweep(plan=NOISY_PLAN, progress=serial)
        run_sweep(plan=NOISY_PLAN, progress=parallel, jobs=2)
        def terminal(rep):
            return sorted(
                e for e in rep.events if e[0] in ("finished", "quarantined")
            )
        assert terminal(serial) == terminal(parallel)

    def test_report_metrics_match_the_accounting(self):
        result = run_sweep(plan=NOISY_PLAN)
        report = result.report
        metrics = report.metrics
        assert metrics["sweep.setups_measured"] == report.measured
        assert metrics["sweep.setups_quarantined"] == len(report.quarantined)
        assert metrics["sweep.retries"] == report.retries
        assert (
            metrics["sweep.attempts"]
            == report.measured + len(report.quarantined) + report.retries
        )

    def test_report_metrics_identical_serial_vs_parallel(self):
        a = run_sweep(plan=NOISY_PLAN).report
        b = run_sweep(plan=NOISY_PLAN, jobs=2).report
        assert a.metrics == b.metrics
        assert a.to_json() == b.to_json()

    def test_sweep_traces_nest_setups_and_runs(self):
        t = obs_trace.Tracer(clock=FakeClock())
        with obs_trace.tracing(t):
            run_sweep()
        sweep = next(s for s in t.spans if s.name == "sweep")
        assert sweep.attrs["measured"] == len(SETUPS)
        setup_spans = [s for s in t.spans if s.name == "setup"]
        assert len(setup_spans) == len(SETUPS)
        assert all(s.parent_id == sweep.span_id for s in setup_spans)
        assert all(s.attrs["status"] == "measured" for s in setup_spans)

    def test_journal_records_a_metrics_snapshot(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        result = run_sweep(journal=path)
        journal = Journal(path, sweep_id(WORKLOAD, "test", 0, SETUPS))
        done = journal.load()
        assert len(done) == len(SETUPS)
        kinds = [a["kind"] for a in journal.aux]
        assert kinds == ["metrics"]
        snap = journal.aux[0]["data"]["snapshot"]
        assert (
            snap["counters"]["sweep.setups_measured"]
            == result.report.measured
        )

    def test_kill_and_resume_accounts_cached_vs_rerun(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = run_sweep(journal=path)
        assert first.report.measured == len(SETUPS)
        second = run_sweep(journal=path)
        assert second.report.resumed == len(SETUPS)
        assert second.report.measured == 0
        metrics = second.report.metrics
        assert metrics == {"sweep.setups_resumed": len(SETUPS)}
        # Both sweeps' snapshots survive in the journal, in order.
        journal = Journal(path, sweep_id(WORKLOAD, "test", 0, SETUPS))
        journal.load()
        snaps = [a["data"]["snapshot"]["counters"] for a in journal.aux]
        assert snaps[0]["sweep.setups_measured"] == len(SETUPS)
        assert snaps[1]["sweep.setups_resumed"] == len(SETUPS)

    def test_aux_records_survive_journal_compaction(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        run_sweep(journal=path)
        with open(path, "a") as fh:
            fh.write('{"torn": ')  # simulated mid-write kill
        journal = Journal(path, sweep_id(WORKLOAD, "test", 0, SETUPS))
        assert len(journal.load()) == len(SETUPS)
        assert len(journal.aux) == 1
        # The torn line was compacted away; aux record still present.
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + len(SETUPS) + 1


# -- per-PC profiling --------------------------------------------------------


class TestPCProfiling:
    def test_pc_cycles_sum_to_total_cycles(self, small_exe_o2):
        total = run_exe(small_exe_o2).counters.cycles
        image = load_process(small_exe_o2, environment=Environment.typical())
        profiled = execute(
            image, get_machine("core2").build(), profile_pcs=True
        )
        assert profiled.pc_cycles
        assert sum(profiled.pc_cycles) == pytest.approx(total)

    def test_pc_cycles_empty_when_disabled(self, small_exe_o2):
        assert run_exe(small_exe_o2).pc_cycles == ()

    def test_pc_profile_diff_localizes_the_bias(self):
        exp = shared_experiment(WORKLOAD)
        a = ExperimentalSetup(env_bytes=100)
        b = ExperimentalSetup(env_bytes=116)
        diff = pc_profile_diff(exp, a, b)
        assert diff.total_delta == pytest.approx(
            exp.run(b).cycles - exp.run(a).cycles
        )
        assert sum(p.delta for p in diff.pcs) == pytest.approx(diff.total_delta)
        exe = exp.build(a)
        names = {f.name for f in exe.placed}
        assert all(p.function in names for p in diff.pcs)
        assert all(exe.addrs[p.index] == p.addr for p in diff.ranked(5))

    def test_pc_profile_diff_requires_a_shared_build(self):
        exp = shared_experiment(WORKLOAD)
        with pytest.raises(ValueError):
            pc_profile_diff(
                exp,
                ExperimentalSetup(opt_level=2),
                ExperimentalSetup(opt_level=3),
            )


# -- overhead guard ----------------------------------------------------------


class TestDisabledOverhead:
    def test_disabled_observability_does_no_recording(self):
        exp = Experiment(workloads.get(WORKLOAD))
        assert obs_trace.active() is obs_trace.NULL_TRACER
        m = exp.run(SETUPS[0])
        assert obs_trace.NULL_TRACER.spans == ()
        assert m.cycles > 0

    def test_default_engine_path_is_not_slower_than_instrumented(
        self, small_exe_o2
    ):
        """The disabled path must not secretly pay for profiling: the
        default execute (no per-PC attribution, null tracer) should be
        at most marginally slower than the fully instrumented one,
        which does strictly more bookkeeping per instruction."""
        import time as _time

        machine = get_machine("core2").build()

        def best_of(profile_pcs, repeats=3):
            best = float("inf")
            for _ in range(repeats):
                image = load_process(small_exe_o2, Environment.typical())
                t0 = _time.perf_counter()
                execute(image, machine, profile_pcs=profile_pcs)
                best = min(best, _time.perf_counter() - t0)
            return best

        best_of(False, repeats=1)  # warm-up
        disabled = best_of(False)
        instrumented = best_of(True)
        # Generous margin: the guard catches structural regressions
        # (accidental always-on profiling), not scheduler noise.
        assert disabled <= instrumented * 1.5 + 0.01
