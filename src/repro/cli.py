"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``workloads`` — list the benchmark suite,
- ``machines`` — list machine models and their key properties,
- ``run`` — measure one workload under one explicit setup,
- ``study`` — sweep environment size or link order for O-level pairs,
- ``randomized`` — the paper's randomized-setup evaluation protocol,

``study`` and ``randomized`` execute their sweeps through the
fault-tolerant :class:`~repro.core.runner.SweepRunner`: ``--jobs N``
parallelizes across processes, ``--timeout``/``--max-retries`` bound and
retry faulty measurements, and ``--resume PATH`` checkpoints every
completed measurement so an interrupted sweep picks up where it left
off (see docs/robustness.md).  They also carry the observability
surface (see docs/observability.md): live per-setup progress on stderr
(``--quiet`` silences it), ``--trace-out FILE`` records a Chrome-trace
span timeline of the whole sweep, and ``--manifest-out FILE`` writes the
run's provenance manifest (written next to the trace by default).

Remaining commands:

- ``characterize`` — static + dynamic shape of one workload,
- ``archive`` / ``verify-archive`` — persist a sweep as JSON (with an
  embedded provenance manifest) and later re-measure it, reporting any
  drift,
- ``audit`` — flag benchmarking crimes (single-setup conclusions,
  pseudoreplication, weak CIs, selective reporting, ratio
  mis-aggregation) in any manifest, archive, or sweep report; exits
  nonzero when a crime is present (see docs/statistics.md),
- ``obs`` — summarize / validate / merge / diff traces, manifests, and
  checkpoint journals,
- ``journal`` — compact or summarize a sweep's checkpoint journal,
- ``store`` — stats / gc / verify / export for a content-addressed
  measurement store (see docs/store.md),
- ``survey`` — print the literature-survey table.

Incremental sweeps: ``--store DIR`` (or ``$REPRO_STORE``) backs
``run``/``study``/``randomized`` with a content-addressed store —
setups measured by any earlier run are served from the store instead of
executed, with the report, journal, and published tables byte-identical
to a cold run; ``--no-store`` opts out.  A ``store: hits=…`` summary
goes to stderr and the provenance manifest records the hit counts.

Chaos engineering: ``--fault-plan SPEC`` installs a deterministic
:class:`~repro.faults.FaultPlan` (``seed=3,worker_crash=0.4,...`` or a
JSON object) for the sweep, so the runner's supervision and recovery
paths can be exercised from the command line; ``--report-out FILE``
writes the canonical SweepReport JSON for byte-identity comparisons.

Distributed sweeps (see docs/distributed.md): ``agent`` starts a sweep
agent (``repro agent --listen HOST:PORT --jobs N``) and
``--hosts host1:port,host2:port`` on ``study``/``randomized`` dispatches
the sweep to those agents over TCP instead of local worker processes —
same report bytes, same journal, same trace (with host-qualified span
aliases), and the manifest names every agent that served results.

The sweep service (see docs/service.md): ``serve`` runs a long-lived
coordinator with a durable study queue — agents dial *in* with
``repro agent --connect HOST:PORT`` (reconnecting across coordinator
restarts on seeded backoff), clients submit studies with ``submit`` and
inspect them with ``status`` over a local HTTP/JSON API, and a
coordinator killed mid-study restarts from its write-ahead log and
finishes with byte-identical reports (``repro fsck`` audits the WAL).

Every command prints plain text (the same renderers the benchmark
harness uses) and exits non-zero on verification failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import faults, workloads
from repro.arch import available_machines, get_machine
from repro.core import Experiment, ExperimentalSetup
from repro.core.bias import StudySpec
from repro.core.errors import ReproError
from repro.core.randomization import (
    evaluate_with_randomization,
    paired_random_setups,
)
from repro.core.report import render_table
from repro.core.runner import RunnerConfig, SweepRunner
from repro.core.survey import generate_corpus, survey_table


def _setup_from_args(args: argparse.Namespace, opt_level: int) -> ExperimentalSetup:
    return ExperimentalSetup(
        machine=args.machine,
        compiler=args.compiler,
        opt_level=opt_level,
        env_bytes=getattr(args, "env_bytes", None),
    )


def _add_setup_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine", default="core2", choices=list(available_machines())
    )
    parser.add_argument("--compiler", default="gcc", choices=["gcc", "icc"])
    parser.add_argument("--size", default="test", choices=["test", "train", "ref"])
    parser.add_argument("--seed", type=int, default=0)


def _add_study_args(parser: argparse.ArgumentParser) -> None:
    """One :class:`~repro.core.bias.StudySpec`'s fields, shared by
    ``study`` and ``submit``."""
    parser.add_argument("workload", choices=workloads.all_names())
    parser.add_argument("parameter", choices=["env", "link"])
    parser.add_argument(
        "--base-opt", type=int, default=2, choices=[0, 1, 2, 3]
    )
    parser.add_argument(
        "--treatment-opt", type=int, default=3, choices=[0, 1, 2, 3]
    )
    parser.add_argument("--env-start", type=int, default=100)
    parser.add_argument("--env-stop", type=int, default=356)
    parser.add_argument("--env-step", type=int, default=16)
    parser.add_argument("--orders", type=int, default=6)
    _add_setup_args(parser)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _fault_plan_arg(text: str) -> faults.FaultPlan:
    try:
        return faults.parse_plan(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _hosts_arg(text: str) -> str:
    from repro.core.distributed import parse_hosts

    try:
        parse_hosts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _listen_arg(text: str):
    from repro.core.distributed import parse_host

    try:
        return parse_host(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerant sweep execution knobs (see docs/robustness.md)."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the sweep (1 = serial, in-process)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock seconds allowed per measurement attempt",
    )
    parser.add_argument(
        "--max-retries", type=_non_negative_int, default=2,
        help="retries for retryable faults before quarantining a setup",
    )
    parser.add_argument(
        "--hang-timeout", type=float, default=None,
        help=(
            "seconds of heartbeat silence before a busy worker is "
            "declared hung and failed over (default: adapt to observed "
            "task durations; parallel mode only)"
        ),
    )
    parser.add_argument(
        "--max-respawns", type=_non_negative_int, default=8,
        help=(
            "replacement workers the pool may start before the sweep "
            "degrades to in-process execution (with --hosts: the "
            "coordinator's reconnection budget)"
        ),
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help=(
            "checkpoint journal path; measurements land here as they "
            "complete, and an interrupted sweep re-run with the same "
            "PATH resumes without re-measuring"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the live per-setup progress on stderr",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help=(
            "record the sweep as a Chrome-trace JSON file (open in "
            "chrome://tracing or https://ui.perfetto.dev)"
        ),
    )
    parser.add_argument(
        "--manifest-out", metavar="FILE", default=None,
        help=(
            "write the run's provenance manifest here (defaults to "
            "FILE.manifest.json next to --trace-out)"
        ),
    )
    parser.add_argument(
        "--trace-sample", metavar="N", type=_positive_int, default=1,
        help=(
            "keep per-setup trace spans for 1 in N setups (deterministic "
            "by setup identity; default 1 = every setup).  Measurements "
            "and reports are unaffected; the rate lands in the manifest"
        ),
    )
    parser.add_argument(
        "--timeline-out", metavar="FILE", default=None,
        help=(
            "stream a metrics timeline (throughput, worker utilisation, "
            "store hits) to this JSONL file; render with "
            "'repro obs timeline FILE'"
        ),
    )
    parser.add_argument(
        "--timeline-interval", metavar="SECONDS", type=float, default=1.0,
        help="seconds between timeline samples (default: 1.0)",
    )
    parser.add_argument(
        "--engine-profile", action="store_true",
        default=bool(os.environ.get("REPRO_ENGINE_PROFILE", "").strip()),
        help=(
            "collect engine self-profiling (opcode-class dispatch "
            "counts, block replay stats, per-class wall time) into the "
            "manifest's perf section (default: $REPRO_ENGINE_PROFILE); "
            "in-process runs only — use --jobs 1"
        ),
    )
    parser.add_argument(
        "--fault-plan", metavar="SPEC", type=_fault_plan_arg, default=None,
        help=(
            "deterministic chaos: inject faults per SPEC "
            "('seed=3,worker_crash=0.4,...' or a JSON object); kinds: "
            + ", ".join(faults.KINDS)
        ),
    )
    parser.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="write the canonical SweepReport JSON here",
    )
    parser.add_argument(
        "--journal-max-records", metavar="N", type=_positive_int,
        default=None,
        help=(
            "auto-compact the --resume journal after the sweep once it "
            "exceeds N records"
        ),
    )
    parser.add_argument(
        "--hosts", metavar="H1:P1,H2:P2", type=_hosts_arg, default=None,
        help=(
            "dispatch the sweep to these remote agents (repro agent) "
            "over TCP instead of local worker processes; --jobs is "
            "ignored (each agent brings its own)"
        ),
    )
    parser.add_argument(
        "--secret", metavar="SECRET",
        default=os.environ.get("REPRO_AGENT_SECRET"),
        help=(
            "shared secret for the --hosts agent handshake (default: "
            "$REPRO_AGENT_SECRET); must match each agent's --secret"
        ),
    )
    _add_store_args(parser)


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """Content-addressed store flags (see docs/store.md)."""
    parser.add_argument(
        "--store", metavar="DIR", default=os.environ.get("REPRO_STORE"),
        help=(
            "content-addressed measurement store directory (default: "
            "$REPRO_STORE); setups already held there skip execution "
            "with byte-identical reports"
        ),
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="ignore $REPRO_STORE / --store and measure everything",
    )


def _store_from_args(args: argparse.Namespace):
    """The :class:`~repro.store.MeasurementStore` the flags ask for, or
    None (no --store/$REPRO_STORE, or --no-store)."""
    if getattr(args, "no_store", False) or not getattr(args, "store", None):
        return None
    from repro.store import open_store

    return open_store(args.store)


def _manifest_path(args: argparse.Namespace) -> Optional[str]:
    if args.manifest_out is not None:
        return args.manifest_out
    if args.trace_out is None:
        return None
    stem = args.trace_out
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    return stem + ".manifest.json"


def _run_sweep(
    exp: Experiment,
    setups,
    args: argparse.Namespace,
    stats_provider=None,
) -> int:
    """Measure ``setups`` through the fault-tolerant runner, priming
    ``exp``'s run cache so the serial study code below is all cache
    hits.  Returns the number of quarantined setups.

    Observability: progress goes to stderr (stdout stays exactly the
    published tables), ``--trace-out`` scopes a real tracer around the
    sweep, and a provenance manifest is written when asked for.
    ``stats_provider`` (optional, ``() -> Optional[dict]``) supplies the
    manifest's statistical-inference section; it is called only after a
    fully-covered sweep (every run a cache hit, no quarantines), so a
    partial sweep never records confident-looking statistics.
    """
    from repro.obs import manifest as obs_manifest
    from repro.obs import metrics as obs_metrics
    from repro.obs import perf as obs_perf
    from repro.obs import progress as obs_progress
    from repro.obs import trace as obs_trace

    config = RunnerConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        max_retries=args.max_retries,
        hang_timeout=args.hang_timeout,
        max_respawns=args.max_respawns,
        journal_max_records=args.journal_max_records,
        hosts=args.hosts,
        secret=args.secret,
        trace_sample=args.trace_sample,
        timeline_interval=args.timeline_interval,
    )
    if args.engine_profile:
        obs_perf.enable_engine_profiling()
    store = _store_from_args(args)
    runner = SweepRunner(
        exp,
        config,
        journal_path=args.resume,
        fault_plan=args.fault_plan,
        progress=obs_progress.for_stream(sys.stderr, quiet=args.quiet),
        timeline_path=args.timeline_out,
        store=store,
    )
    tracer = (
        obs_trace.Tracer(label=f"repro {args.command}")
        if args.trace_out
        else None
    )
    with obs_trace.tracing(tracer):
        result = runner.run(setups)
    report = result.report
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.timeline_out:
        print(f"timeline written to {args.timeline_out}", file=sys.stderr)
    manifest_path = _manifest_path(args)
    if manifest_path is not None:
        artifacts = {}
        if args.trace_out:
            artifacts[args.trace_out] = obs_manifest.file_checksum(
                args.trace_out
            )
        if args.timeline_out:
            artifacts[args.timeline_out] = obs_manifest.file_checksum(
                args.timeline_out
            )
        stats = (
            stats_provider()
            if stats_provider is not None and not report.quarantined
            else None
        )
        manifest = obs_manifest.build_manifest(
            experiment=exp,
            setups=setups,
            runner_config=config,
            fault_plan=args.fault_plan,
            report=report,
            metrics=obs_metrics.registry().snapshot(),
            artifacts=artifacts,
            hosts=runner.hosts_served,
            store=store,
            perf=obs_perf.snapshot(),
            stats=stats,
            note=f"repro {args.command} {args.workload}",
        )
        obs_manifest.save_manifest(manifest_path, manifest)
        print(f"manifest written to {manifest_path}", file=sys.stderr)
    if args.report_out is not None:
        with open(args.report_out, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report written to {args.report_out}", file=sys.stderr)
    if store is not None:
        # stderr, like progress: stdout stays exactly the published
        # tables (CI compares it byte-for-byte across runs).
        print(store.summary(), file=sys.stderr)
    interesting = (
        report.resumed or report.retries or report.quarantined
        or report.degraded or args.jobs > 1 or args.resume
        or args.fault_plan is not None
    )
    if interesting:
        print(report.summary_line())
    return len(report.quarantined)


def cmd_workloads(args: argparse.Namespace) -> int:
    """`repro workloads`: list the workload suite."""
    rows = [
        [wl.name, len(wl.sources), wl.description]
        for wl in workloads.suite()
    ]
    print(render_table(["name", "modules", "description"], rows))
    return 0


def cmd_machines(args: argparse.Namespace) -> int:
    """`repro machines`: list the modeled platforms."""
    rows = []
    headers: Optional[List[str]] = None
    for name in available_machines():
        summary = get_machine(name).summary()
        if headers is None:
            headers = list(summary)
        rows.append([summary[h] for h in headers])
    assert headers is not None
    print(render_table(headers, rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run`: one measurement, with counters and verification."""
    exp = Experiment(workloads.get(args.workload), size=args.size, seed=args.seed)
    setup = _setup_from_args(args, args.opt)
    store = _store_from_args(args)
    if store is not None:
        exp.attach_store(store)
        m = store.get_measurement(exp, setup)
        if m is None:
            m = exp.run(setup)
            store.put_measurement(exp, m)
        print(store.summary(), file=sys.stderr)
    else:
        m = exp.run(setup)
    c = m.counters
    rows = [[k, f"{v:,.0f}" if v >= 100 else f"{v:g}"] for k, v in c.as_dict().items()]
    print(render_table(["counter", "value"], rows, title=m.setup.describe()))
    print(f"\nexit value {m.exit_value} (verified against reference)")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    """`repro study`: an env-size or link-order bias study."""
    spec = _spec_from_args(args)
    exp, setups, base, treatment, points = spec.build()
    quarantined = _run_sweep(exp, setups, args)
    if quarantined:
        print(
            f"error: {quarantined} setup(s) quarantined — study needs every "
            "point; see the report above"
        )
        return 1
    sys.stdout.write(spec.tables(exp, base, treatment, points))
    return 0


def cmd_randomized(args: argparse.Namespace) -> int:
    """`repro randomized`: the paper's setup-randomization protocol.

    Beyond the t interval, the verdict block carries the full inference
    work-up (see docs/statistics.md): a BCa bootstrap interval, the
    paired Wilcoxon signed-rank test with its rank-biserial effect
    size, robust aggregates, and the sequential required-sample-size
    recommendation.  The same bundle lands in the provenance manifest's
    ``stats`` section when ``--manifest`` is set, which is what
    ``repro audit`` later recomputes claims from.
    """
    from repro.core.errors import StatsError

    exp = Experiment(workloads.get(args.workload), size=args.size, seed=args.seed)
    base = _setup_from_args(args, args.base_opt)
    treatment = _setup_from_args(args, args.treatment_opt)
    pairs = paired_random_setups(
        exp, base, treatment, args.setups, seed=args.seed
    )

    # Computed at most once, after the sweep primes the run cache: the
    # manifest's stats section and the printed verdict block must come
    # from the same evaluation.
    cache = {}

    def evaluated():
        if "ev" not in cache:
            cache["ev"] = evaluate_with_randomization(
                exp, base, treatment, n_setups=args.setups, seed=args.seed
            )
            try:
                cache["analysis"] = cache["ev"].analysis(seed=args.seed)
            except StatsError as exc:
                cache["analysis"] = None
                cache["skip_reason"] = str(exc)
        return cache

    def stats_provider():
        analysis = evaluated()["analysis"]
        return analysis.to_dict() if analysis is not None else None

    quarantined = _run_sweep(
        exp,
        [s for pair in pairs for s in pair],
        args,
        stats_provider=stats_provider,
    )
    if quarantined:
        print(
            f"error: {quarantined} setup(s) quarantined — the protocol "
            "needs every sampled setup; see the report above"
        )
        return 1
    state = evaluated()
    print(state["ev"].summary_line())
    analysis = state["analysis"]
    if analysis is not None:
        for line in analysis.summary_lines():
            print(line)
    else:
        print(f"inference skipped: {state['skip_reason']}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """`repro characterize`: a workload's static + dynamic shape."""
    from repro.workloads.characterize import (
        dynamic_character,
        opcode_mix,
        static_character,
    )

    exp = Experiment(workloads.get(args.workload), size=args.size, seed=args.seed)
    setup = _setup_from_args(args, args.opt)
    st = static_character(exp.build(setup))
    dyn = dynamic_character(exp, setup)
    mix = opcode_mix(exp.build(setup))
    rows = [
        ("modules", st.modules),
        ("functions", st.functions),
        ("static instructions", st.instructions),
        ("code bytes", st.code_bytes),
        ("data bytes", st.data_bytes),
        ("static loops", st.loops),
        ("dynamic instructions", f"{dyn.instructions:,}"),
        ("cycles", f"{dyn.cycles:,.0f}"),
        ("memory intensity", f"{dyn.memory_intensity:.1%}"),
        ("branch intensity", f"{dyn.branch_intensity:.1%}"),
        ("call intensity", f"{dyn.call_intensity:.2%}"),
        ("mispredict rate", f"{dyn.mispredict_rate:.1%}"),
        ("L1D miss rate", f"{dyn.l1d_miss_rate:.1%}"),
        ("hottest function", f"{dyn.hot_function} ({dyn.hot_share:.0%})"),
        ("opcode mix", ", ".join(f"{k}={v}" for k, v in mix.items())),
    ]
    print(
        render_table(
            ["property", "value"],
            rows,
            title=f"{args.workload} at {setup.describe()}",
        )
    )
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """`repro archive`: measure a sweep and save it as an archive."""
    from repro.core.session import save_measurements
    from repro.obs import metrics as obs_metrics
    from repro.obs.manifest import build_manifest

    exp = Experiment(workloads.get(args.workload), size=args.size, seed=args.seed)
    setups = [
        _setup_from_args(args, args.opt).with_changes(env_bytes=env)
        for env in range(args.env_start, args.env_stop, args.env_step)
    ]
    measurements = [exp.run(s) for s in setups]
    manifest = build_manifest(
        experiment=exp,
        setups=setups,
        metrics=obs_metrics.registry().snapshot(),
        note=f"{args.workload} sweep",
    )
    save_measurements(
        args.path,
        measurements,
        note=f"{args.workload} sweep",
        manifest=manifest,
    )
    print(f"archived {len(measurements)} measurements to {args.path}")
    return 0


def cmd_verify_archive(args: argparse.Namespace) -> int:
    """`repro verify-archive`: re-measure an archive and compare."""
    from repro.core.errors import ArchiveCorruption
    from repro.core.session import load_measurements, verify_against_archive

    try:
        archived = load_measurements(args.path)
    except ArchiveCorruption as exc:
        print(f"CORRUPT: {exc}")
        return 1
    if not archived:
        print("archive is empty")
        return 1
    wl = archived[0].workload
    exp = Experiment(
        workloads.get(wl), size=archived[0].size, seed=archived[0].seed
    )
    drift = verify_against_archive(exp, archived)
    if drift is None:
        print(f"OK: {len(archived)} measurements reproduce exactly")
        return 0
    print(f"DRIFT: {drift}")
    return 1


def cmd_audit(args: argparse.Namespace) -> int:
    """`repro audit`: flag benchmarking crimes in a study document.

    ``PATH`` is a provenance manifest, a measurement archive, or a bare
    sweep report; the auditor names every statistical crime it finds
    (stable codes — see docs/statistics.md) and exits nonzero when any
    is present.  ``--json`` prints the machine-readable verdict;
    ``--record`` writes the verdict back into the document's manifest
    as an ``audit`` provenance section.
    """
    import json
    import time

    from repro.audit import audit_file
    from repro.obs.manifest import MANIFEST_FORMAT, save_manifest

    result = audit_file(args.path)
    if args.record:
        with open(args.path) as fh:
            document = json.load(fh)
        verdict = dict(result.to_dict(), created_unix=time.time())
        if document.get("format") == MANIFEST_FORMAT:
            document["audit"] = verdict
            save_manifest(args.path, document)
        elif isinstance(document.get("manifest"), dict):
            from repro import storageio

            document["manifest"]["audit"] = verdict
            storageio.atomic_write_text(
                args.path,
                json.dumps(document, indent=1),
                key=f"archive:{os.path.basename(args.path)}",
            )
        else:
            print(
                "error: --record needs a manifest (or an archive with an "
                "embedded manifest) to attach the verdict to",
                file=sys.stderr,
            )
            return 2
        print(f"audit verdict recorded in {args.path}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=1, sort_keys=True))
    else:
        print("\n".join(result.summary_lines()))
    return 0 if result.clean else 1


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    """`repro obs flame`: simulated-cycle flamegraph of one measurement.

    ``PATH`` is a measurement archive (the per-PC profile is re-derived
    by deterministic re-execution, like ``verify-archive``) or a
    Chrome-trace file (folded wall-clock span self-times).  The folded
    output is checked against the engine's cycle counter before anything
    is printed — a flamegraph that does not account for every simulated
    cycle is an error, not a rendering.
    """
    import json

    from repro.obs import flame as obs_flame
    from repro.obs import inspect as obs_inspect

    data = obs_inspect.load_json_artifact(args.path)
    if obs_inspect.is_trace(data):
        lines = obs_flame.fold_trace(data)
        if args.folded:
            with open(args.folded, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            print(f"folded stacks written to {args.folded}", file=sys.stderr)
        else:
            for line in lines:
                print(line)
        return 0

    exp, setup, frames, result = obs_flame.frames_for_archive(
        args.path, index=args.index
    )
    errors = obs_flame.validate_fold(frames, result.counters.cycles)
    if errors:
        print(f"INVALID flamegraph for {args.path}:")
        for problem in errors:
            print(f"  - {problem}")
        return 1
    if args.against is not None:
        frames_b, result_b = obs_flame.profile_flame(
            exp, load_archived_setup(args.path, args.against)
        )
        deltas = obs_flame.diff(frames, frames_b)
        rows = [
            [
                d.function,
                d.module,
                f"{d.centi_a / 100.0:.2f}",
                f"{d.centi_b / 100.0:.2f}",
                f"{d.delta_cycles:+.2f}",
            ]
            for d in deltas[: args.top]
        ]
        print(
            render_table(
                ["function", "module", "cycles A", "cycles B", "delta"],
                rows,
                title=(
                    f"flame diff [{args.index}] vs [{args.against}]: "
                    f"culprit {deltas[0].function} "
                    f"({deltas[0].delta_cycles:+.2f} cycles)"
                ),
            )
        )
    else:
        print(
            obs_flame.render_flame(
                frames,
                top=args.top,
                title=(
                    f"flame [{args.index}] {setup.describe()}: "
                    f"{result.counters.cycles:.2f} cycles"
                ),
            )
        )
    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write("\n".join(obs_flame.folded_lines(frames)) + "\n")
        print(f"folded stacks written to {args.folded}", file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(obs_flame.flame_tree(frames), fh, indent=1)
        print(f"flame tree written to {args.json_out}", file=sys.stderr)
    return 0


def load_archived_setup(path: str, index: int) -> ExperimentalSetup:
    """The setup of measurement ``index`` in the archive at ``path``."""
    from repro.core.session import load_measurements

    archived = load_measurements(path)
    if not (0 <= index < len(archived)):
        raise ReproError(
            f"archive {path} holds measurements 0..{len(archived) - 1}, "
            f"asked for {index}"
        )
    return archived[index].setup


def cmd_obs(args: argparse.Namespace) -> int:
    """`repro obs`: summarize/validate/merge/diff observability artifacts."""
    import json

    from repro.obs import inspect as obs_inspect

    if args.obs_command == "summary":
        for path in args.paths:
            data = obs_inspect.load_json_artifact(path)
            if getattr(args, "json", False):
                # Machine-readable: the loaded artifact verbatim (JSONL
                # artifacts appear under their wrapper key), so scripts
                # can pick out e.g. manifest perf/store sections.
                print(json.dumps(data, indent=1, sort_keys=True))
                continue
            if obs_inspect.is_trace(data):
                print(obs_inspect.summarize_trace(data))
            elif obs_inspect.is_manifest(data):
                print(obs_inspect.summarize_manifest(data))
            elif obs_inspect.is_journal(data):
                print(obs_inspect.summarize_journal(data))
            elif obs_inspect.is_timeline(data):
                from repro.obs import perf as obs_perf

                print(obs_perf.summarize_timeline(data))
            else:
                print(
                    f"error: {path} is not a trace, manifest, journal, "
                    "or timeline",
                    file=sys.stderr,
                )
                return 1
        return 0

    if args.obs_command == "validate":
        from repro.obs import perf as obs_perf

        failures = 0
        for path in args.paths:
            data = obs_inspect.load_json_artifact(path)
            if obs_inspect.is_trace(data):
                kind, errors = "trace", obs_inspect.validate_trace(data)
            elif obs_inspect.is_manifest(data):
                kind, errors = "manifest", obs_inspect.validate_manifest(data)
            elif obs_inspect.is_journal(data):
                kind, errors = "journal", obs_inspect.validate_journal(data)
            elif obs_inspect.is_timeline(data):
                kind, errors = "timeline", obs_perf.validate_timeline(data)
            else:
                kind, errors = "artifact", [
                    "not a trace, manifest, journal, or timeline"
                ]
            if errors:
                failures += 1
                print(f"INVALID {kind} {path}:")
                for problem in errors:
                    print(f"  - {problem}")
            else:
                print(f"OK: valid {kind}: {path}")
        return 1 if failures else 0

    if args.obs_command == "flame":
        return _cmd_obs_flame(args)

    if args.obs_command == "timeline":
        from repro.obs import perf as obs_perf

        data = obs_inspect.load_json_artifact(args.path)
        if not obs_inspect.is_timeline(data):
            print(
                f"error: {args.path} is not a metrics timeline",
                file=sys.stderr,
            )
            return 1
        errors = obs_perf.validate_timeline(data)
        if errors:
            print(f"INVALID timeline {args.path}:")
            for problem in errors:
                print(f"  - {problem}")
            return 1
        print(obs_perf.summarize_timeline(data, rows=args.rows))
        return 0

    if args.obs_command == "merge":
        traces = [obs_inspect.load_json_artifact(p) for p in args.paths]
        bad = [
            p for p, t in zip(args.paths, traces) if not obs_inspect.is_trace(t)
        ]
        if bad:
            print(f"error: not traces: {', '.join(bad)}", file=sys.stderr)
            return 1
        merged = obs_inspect.merge_traces(traces, labels=list(args.paths))
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1)
        print(f"merged {len(traces)} traces into {args.out}")
        return 0

    # diff
    a = obs_inspect.load_json_artifact(args.a)
    b = obs_inspect.load_json_artifact(args.b)
    if obs_inspect.is_trace(a) and obs_inspect.is_trace(b):
        print(obs_inspect.diff_traces(a, b))
        return 0
    if obs_inspect.is_manifest(a) and obs_inspect.is_manifest(b):
        print(obs_inspect.diff_manifests(a, b))
        return 0
    print(
        "error: diff needs two traces or two manifests", file=sys.stderr
    )
    return 1


def cmd_journal(args: argparse.Namespace) -> int:
    """`repro journal`: compact or summarize checkpoint journals."""
    from repro.obs import inspect as obs_inspect

    if args.journal_command == "compact":
        from repro.core.runner import compact_journal

        for path in args.paths:
            print(compact_journal(path).summary_line())
        return 0

    # summary
    failures = 0
    for path in args.paths:
        data = obs_inspect.load_json_artifact(path)
        if not obs_inspect.is_journal(data):
            print(f"error: {path} is not a checkpoint journal", file=sys.stderr)
            failures += 1
            continue
        print(obs_inspect.summarize_journal(data))
    return 1 if failures else 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """`repro fsck`: audit (and with --repair, heal) on-disk artifacts.

    Walks journals, archives, store directories and manifests; exits
    nonzero when damage is found that this run did not (or could not)
    repair, so recovery scripts and CI can gate on it directly.
    """
    from repro.fsck import fsck_paths

    report = fsck_paths(args.paths, repair=args.repair)
    for line in report.summary_lines():
        print(line)
    if args.json is not None:
        text = report.to_json() + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text)
            print(f"report written to {args.json}", file=sys.stderr)
    return report.exit_code


def cmd_store(args: argparse.Namespace) -> int:
    """`repro store`: stats/gc/verify/export on a measurement store."""
    from repro.store import open_store

    if not args.dir:
        print(
            "error: no store directory (pass one or set $REPRO_STORE)",
            file=sys.stderr,
        )
        return 2
    store = open_store(args.dir)
    if args.store_command == "stats":
        stats = store.stats()
        rows = [[k, str(stats[k])] for k in sorted(stats)]
        print(render_table(["property", "value"], rows, title=args.dir))
        return 0

    if args.store_command == "gc":
        evicted, freed = store.gc(args.max_bytes)
        stats = store.stats()
        print(
            f"gc: evicted {evicted} entries ({freed} bytes); "
            f"{stats['entries']} entries ({stats['bytes']} bytes) remain"
        )
        return 0

    if args.store_command == "verify":
        ok, corrupt = store.verify()
        for key in corrupt:
            print(f"CORRUPT: {key}")
        print(f"{ok} entries verified, {len(corrupt)} corrupt")
        return 1 if corrupt else 0

    # export
    count = store.export(args.out, note=args.note)
    print(f"exported {count} measurements to {args.out}")
    return 0


def cmd_agent(args: argparse.Namespace) -> int:
    """`repro agent`: serve sweeps to remote coordinators over TCP.

    Two rendezvous directions share one agent: ``--listen`` waits for a
    coordinator to dial it (static ``--hosts`` rosters), ``--connect``
    dials a ``repro serve`` coordinator and re-dials it across restarts
    on seeded exponential backoff.
    """
    from repro.core.distributed import AgentServer

    server = AgentServer(
        host=args.listen[0],
        port=args.listen[1],
        jobs=args.jobs,
        port_file=args.port_file,
        quiet=args.quiet,
        secret=args.secret,
    )
    try:
        if args.connect is not None:
            host, port = args.connect
            if port == 0:
                print("error: --connect needs an explicit port", file=sys.stderr)
                return 2
            print(
                f"agent dialing coordinator {host}:{port} "
                f"({args.jobs} worker job(s)); Ctrl-C to stop",
                file=sys.stderr,
            )
            server.serve_connect(
                host,
                port,
                backoff_seed=args.backoff_seed,
                max_retries=args.reconnect_retries,
            )
        else:
            bound = server.bind()
            print(
                f"agent listening on {bound[0]}:{bound[1]} "
                f"({args.jobs} worker job(s)); Ctrl-C to stop",
                file=sys.stderr,
            )
            server.serve_forever()
    except KeyboardInterrupt:
        print("agent stopped", file=sys.stderr)
        return 0
    # A non-zero exit on an injected crash lets a process supervisor
    # (and the chaos harness) tell a killed agent from a retired one.
    return 1 if server.crashed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """`repro serve`: the resilient sweep service coordinator."""
    from repro.core.service import ServiceCoordinator

    coordinator = ServiceCoordinator(
        workdir=args.workdir,
        http_addr=args.http,
        agent_addr=args.listen,
        secret=args.secret,
        fault_plan=args.fault_plan,
        max_queue=args.max_queue,
        max_retries=args.max_retries,
        timeout=args.timeout,
        heartbeat_interval=args.heartbeat_interval,
        lease_timeout=args.lease_timeout,
        agentless_grace=args.agentless_grace,
        port_file=args.port_file,
        quiet=args.quiet,
        note=args.note,
    )
    return coordinator.run()


def _spec_from_args(args: argparse.Namespace) -> StudySpec:
    return StudySpec(
        workload=args.workload,
        parameter=args.parameter,
        base_opt=args.base_opt,
        treatment_opt=args.treatment_opt,
        env_start=args.env_start,
        env_stop=args.env_stop,
        env_step=args.env_step,
        orders=args.orders,
        machine=args.machine,
        compiler=args.compiler,
        size=args.size,
        seed=args.seed,
        tag=getattr(args, "tag", ""),
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """`repro submit`: send a study to a running `repro serve`."""
    from repro.core import service

    host, port = args.http
    spec = _spec_from_args(args)
    doc = service.submit_study(host, port, spec)
    sid = doc["study"]
    print(f"study {sid} {doc['state']}", file=sys.stderr)
    if args.no_wait:
        return 0
    doc = service.wait_for_study(
        host, port, sid, poll_interval=args.poll_interval,
        timeout=args.wait_timeout,
    )
    if doc["state"] != "done":
        print(f"error: study failed: {doc.get('error', '?')}", file=sys.stderr)
        return 1
    # Same bytes a local `repro study` would print / --report-out.
    sys.stdout.write(doc["tables"])
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(doc["report"] + "\n")
        print(f"report: wrote {args.report_out}", file=sys.stderr)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """`repro status`: inspect a running `repro serve`."""
    import json as _json

    from repro.core import service

    import http.client as _http_client

    host, port = args.http

    def _fetch(call):
        # Unlike submit (idempotent, so it retries) a status probe of an
        # unreachable service is a plain diagnosis: one line, exit 1.
        try:
            return call()
        except (ConnectionError, _http_client.HTTPException, OSError) as exc:
            raise ReproError(
                f"could not reach service at {host}:{port}: {exc}"
            ) from exc

    if args.study:
        doc = _fetch(lambda: service.get_study(host, port, args.study))
        if args.json:
            print(_json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(f"study {doc['study']}")
        print(f"  state: {doc['state']}")
        print(f"  completed: {doc['completed']}/{doc['requested'] or '?'}")
        if doc.get("error"):
            print(f"  error: {doc['error']}")
        return 0
    doc = _fetch(lambda: service.get_status(host, port))
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    states = ", ".join(
        f"{count} {state}" for state, count in sorted(doc["studies"].items())
    ) or "none"
    print(f"studies: {states} (queue limit {doc['queue_limit']})")
    print(f"agents: {len(doc['agents'])} registered")
    for agent in doc["agents"]:
        print(
            f"  {agent['label']}: {agent['jobs']} job(s), "
            f"{agent['in_flight']} in flight, {agent['results']} result(s)"
        )
    if doc["draining"]:
        print("draining: yes")
    for line in doc["degraded"]:
        print(f"degraded: {line}")
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    """`repro survey`: the paper's 133-paper literature survey."""
    print(
        render_table(
            ["metric", "value"],
            survey_table(generate_corpus(args.seed)),
            title="literature survey (synthetic corpus; see DESIGN.md)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (one subcommand per cmd_* handler)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Measurement-bias laboratory (ASPLOS 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the benchmark suite").set_defaults(
        func=cmd_workloads
    )
    sub.add_parser("machines", help="list machine models").set_defaults(
        func=cmd_machines
    )

    run = sub.add_parser("run", help="measure one workload once")
    run.add_argument("workload", choices=workloads.all_names())
    run.add_argument("--opt", type=int, default=2, choices=[0, 1, 2, 3])
    run.add_argument("--env-bytes", type=int, default=None)
    _add_setup_args(run)
    _add_store_args(run)
    run.set_defaults(func=cmd_run)

    study = sub.add_parser("study", help="sweep an 'innocuous' parameter")
    _add_study_args(study)
    _add_runner_args(study)
    study.set_defaults(func=cmd_study)

    rand = sub.add_parser(
        "randomized", help="the paper's randomized evaluation protocol"
    )
    rand.add_argument("workload", choices=workloads.all_names())
    rand.add_argument("--base-opt", type=int, default=2, choices=[0, 1, 2, 3])
    rand.add_argument(
        "--treatment-opt", type=int, default=3, choices=[0, 1, 2, 3]
    )
    rand.add_argument("--setups", type=int, default=12)
    _add_setup_args(rand)
    _add_runner_args(rand)
    rand.set_defaults(func=cmd_randomized)

    char = sub.add_parser("characterize", help="profile one workload's shape")
    char.add_argument("workload", choices=workloads.all_names())
    char.add_argument("--opt", type=int, default=2, choices=[0, 1, 2, 3])
    _add_setup_args(char)
    char.set_defaults(func=cmd_characterize)

    archive = sub.add_parser(
        "archive", help="measure an env sweep and save it as JSON"
    )
    archive.add_argument("workload", choices=workloads.all_names())
    archive.add_argument("path")
    archive.add_argument("--opt", type=int, default=2, choices=[0, 1, 2, 3])
    archive.add_argument("--env-start", type=int, default=100)
    archive.add_argument("--env-stop", type=int, default=196)
    archive.add_argument("--env-step", type=int, default=32)
    _add_setup_args(archive)
    archive.set_defaults(func=cmd_archive)

    verify = sub.add_parser(
        "verify-archive", help="re-measure an archive and report drift"
    )
    verify.add_argument("path")
    verify.set_defaults(func=cmd_verify_archive)

    audit = sub.add_parser(
        "audit",
        help="flag benchmarking crimes in a report/archive/manifest",
    )
    audit.add_argument(
        "path", help="study document: manifest, archive, or sweep report"
    )
    audit.add_argument(
        "--json",
        action="store_true",
        help="machine-readable verdict with stable finding codes",
    )
    audit.add_argument(
        "--record",
        action="store_true",
        help="write the verdict into the document's manifest as an "
        "'audit' provenance section",
    )
    audit.set_defaults(func=cmd_audit)

    obs = sub.add_parser(
        "obs", help="inspect traces and provenance manifests"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="summarize traces/manifests as tables"
    )
    obs_summary.add_argument("paths", nargs="+")
    obs_summary.add_argument(
        "--json", action="store_true",
        help="print the loaded artifact as JSON instead of tables",
    )
    obs_validate = obs_sub.add_parser(
        "validate", help="schema-check traces/manifests (exit 1 on problems)"
    )
    obs_validate.add_argument("paths", nargs="+")
    obs_flame = obs_sub.add_parser(
        "flame",
        help=(
            "simulated-cycle flamegraph of an archived measurement "
            "(or wall-clock span folding of a trace)"
        ),
    )
    obs_flame.add_argument("path", help="measurement archive or trace file")
    obs_flame.add_argument(
        "--index", type=_non_negative_int, default=0,
        help="which archived measurement to profile (default: 0)",
    )
    obs_flame.add_argument(
        "--against", type=_non_negative_int, default=None, metavar="M",
        help=(
            "diff against archived measurement M (same build): prints "
            "per-function cycle deltas, culprit first"
        ),
    )
    obs_flame.add_argument(
        "--folded", metavar="FILE", default=None,
        help="write collapsed stacks (module;function centicycles) here",
    )
    obs_flame.add_argument(
        "--json", dest="json_out", metavar="FILE", default=None,
        help="write a d3-flame-graph JSON tree here",
    )
    obs_flame.add_argument(
        "--top", type=_positive_int, default=20,
        help="rows to print (default: 20)",
    )
    obs_timeline = obs_sub.add_parser(
        "timeline", help="render a sweep's metrics-timeline JSONL"
    )
    obs_timeline.add_argument("path")
    obs_timeline.add_argument(
        "--rows", type=_positive_int, default=20,
        help="samples to show (long timelines are downsampled)",
    )
    obs_merge = obs_sub.add_parser(
        "merge", help="merge traces into one Perfetto-loadable file"
    )
    obs_merge.add_argument("out")
    obs_merge.add_argument("paths", nargs="+")
    obs_diff = obs_sub.add_parser(
        "diff", help="compare two traces (or two manifests)"
    )
    obs_diff.add_argument("a")
    obs_diff.add_argument("b")
    obs.set_defaults(func=cmd_obs)

    journal = sub.add_parser(
        "journal", help="manage sweep checkpoint journals"
    )
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    journal_compact = journal_sub.add_parser(
        "compact",
        help=(
            "atomically rewrite a journal down to one record per setup "
            "(+ latest aux records), with integrity verification"
        ),
    )
    journal_compact.add_argument("paths", nargs="+")
    journal_summary = journal_sub.add_parser(
        "summary", help="summarize a journal's contents"
    )
    journal_summary.add_argument("paths", nargs="+")
    journal.set_defaults(func=cmd_journal)

    fsck = sub.add_parser(
        "fsck",
        help="audit (and repair) journals, archives, stores, manifests",
    )
    fsck.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=(
            "artifacts to audit: journal/archive/manifest files or "
            "store directories (classified by content)"
        ),
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help=(
            "apply each artifact's safe recovery action (compact "
            "journals, drop damaged archive records, purge corrupt "
            "store entries); manifests are never rewritten"
        ),
    )
    fsck.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the machine-readable fsck report to FILE ('-': stdout)",
    )
    fsck.set_defaults(func=cmd_fsck)

    store = sub.add_parser(
        "store", help="manage a content-addressed measurement store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_dir_help = "store directory (default: $REPRO_STORE)"

    def _store_dir(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "dir", nargs="?", default=os.environ.get("REPRO_STORE"),
            help=store_dir_help,
        )

    store_stats = store_sub.add_parser(
        "stats", help="entry counts, footprint, and key scheme"
    )
    _store_dir(store_stats)
    store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a size cap"
    )
    _store_dir(store_gc)
    store_gc.add_argument(
        "--max-bytes", type=_non_negative_int, required=True,
        help="target payload footprint in bytes",
    )
    store_verify = store_sub.add_parser(
        "verify",
        help="audit every entry's checksum (exit 1 if any are corrupt)",
    )
    _store_dir(store_verify)
    store_export = store_sub.add_parser(
        "export", help="write every stored measurement to a v2 archive"
    )
    _store_dir(store_export)
    store_export.add_argument("out", help="archive path to write")
    store_export.add_argument(
        "--note", default="", help="note recorded in the archive"
    )
    store.set_defaults(func=cmd_store)

    agent = sub.add_parser(
        "agent", help="serve sweep setups to remote coordinators over TCP"
    )
    agent.add_argument(
        "--listen", metavar="HOST:PORT", type=_listen_arg,
        default=("127.0.0.1", 0),
        help=(
            "interface and port to listen on (port 0 picks a free one; "
            "default 127.0.0.1:0)"
        ),
    )
    agent.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="local worker processes this agent runs per session",
    )
    agent.add_argument(
        "--port-file", metavar="FILE", default=None,
        help=(
            "write the bound port here after binding (the race-free way "
            "for scripts to use --listen HOST:0)"
        ),
    )
    agent.add_argument(
        "--quiet", action="store_true",
        help="suppress per-session log lines on stderr",
    )
    agent.add_argument(
        "--secret", metavar="SECRET",
        default=os.environ.get("REPRO_AGENT_SECRET"),
        help=(
            "require coordinators to present this shared secret in the "
            "hello handshake (default: $REPRO_AGENT_SECRET; unset = "
            "no authentication)"
        ),
    )
    agent.add_argument(
        "--connect", metavar="HOST:PORT", type=_listen_arg, default=None,
        help=(
            "dial in to a `repro serve` coordinator instead of listening; "
            "the agent re-dials across coordinator restarts"
        ),
    )
    agent.add_argument(
        "--backoff-seed", type=int, default=0,
        help=(
            "seed for the --connect reconnect backoff (give each agent in "
            "a fleet its own seed to de-synchronize re-registration)"
        ),
    )
    agent.add_argument(
        "--reconnect-retries", type=_non_negative_int, default=None,
        help=(
            "give up after this many failed --connect redials per outage "
            "(default: keep trying forever)"
        ),
    )
    agent.set_defaults(func=cmd_agent)

    serve = sub.add_parser(
        "serve", help="run the resilient sweep service coordinator"
    )
    serve.add_argument(
        "--workdir", metavar="DIR", required=True,
        help=(
            "durable state directory: study-queue WAL, content-addressed "
            "store, and result documents all live here"
        ),
    )
    serve.add_argument(
        "--http", metavar="HOST:PORT", type=_listen_arg,
        default=("127.0.0.1", 0),
        help="client API address (port 0 picks a free one; see --port-file)",
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT", type=_listen_arg,
        default=("127.0.0.1", 0),
        help="agent rendezvous address (agents dial it with --connect)",
    )
    serve.add_argument(
        "--port-file", metavar="FILE", default=None,
        help='write {"http": P, "agents": P} here once both ports are bound',
    )
    serve.add_argument(
        "--secret", metavar="SECRET",
        default=os.environ.get("REPRO_AGENT_SECRET"),
        help=(
            "require registering agents to prove this shared secret "
            "(default: $REPRO_AGENT_SECRET; unset = open rendezvous)"
        ),
    )
    serve.add_argument(
        "--fault-plan", metavar="SPEC", type=_fault_plan_arg, default=None,
        help="install a deterministic chaos plan for every study served",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=16,
        help="admission control: reject submissions past this many queued "
             "studies with a typed queue_full error (default 16)",
    )
    serve.add_argument(
        "--max-retries", type=_non_negative_int, default=2,
        help="per-setup measurement retry budget (default 2)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-measurement timeout in seconds",
    )
    serve.add_argument(
        "--heartbeat-interval", type=float, default=0.2,
        help="agent liveness cadence in seconds (default 0.2)",
    )
    serve.add_argument(
        "--lease-timeout", type=float, default=None,
        help=(
            "fixed lease expiry in seconds (default: adapt to observed "
            "lease durations, like the worker hang deadline)"
        ),
    )
    serve.add_argument(
        "--agentless-grace", type=float, default=30.0,
        help=(
            "seconds to wait for an agent rendezvous before a study "
            "degrades to in-process execution (default 30)"
        ),
    )
    serve.add_argument(
        "--note", default="",
        help="free-form text echoed to registering agents and the WAL header",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-event log lines on stderr",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a study to a running `repro serve`"
    )
    _add_study_args(submit)
    submit.add_argument(
        "--tag", default="",
        help=(
            "client label folded into the study's identity (distinct tags "
            "make distinct studies whose measurements still dedup through "
            "the service's store)"
        ),
    )
    submit.add_argument(
        "--http", metavar="HOST:PORT", type=_listen_arg, required=True,
        help="the service's client API address",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="enqueue and exit instead of waiting for the result",
    )
    submit.add_argument(
        "--poll-interval", type=float, default=0.5,
        help="seconds between result polls while waiting (default 0.5)",
    )
    submit.add_argument(
        "--wait-timeout", type=float, default=None,
        help="give up waiting after this many seconds (default: never)",
    )
    submit.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="also write the canonical SweepReport JSON here (byte-"
             "identical to a local `repro study --report-out`)",
    )
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="inspect a running `repro serve`"
    )
    status.add_argument(
        "study", nargs="?", default=None,
        help="a study id to show in detail (default: service overview)",
    )
    status.add_argument(
        "--http", metavar="HOST:PORT", type=_listen_arg, required=True,
        help="the service's client API address",
    )
    status.add_argument(
        "--json", action="store_true",
        help="print the raw API document instead of the summary",
    )
    status.set_defaults(func=cmd_status)

    survey = sub.add_parser("survey", help="print the literature survey")
    survey.add_argument("--seed", type=int, default=0)
    survey.set_defaults(func=cmd_survey)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Taxonomy errors are diagnoses, not crashes: one line, exit 1.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
