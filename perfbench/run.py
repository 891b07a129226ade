"""Lab benchmark: one workload, its end-to-end or per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload envsweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, host-normalized (see
hostspeed.py); ``--trace 1`` then repeats the set-up and window with
every layer's entry points wrapped and prints per-layer self times and
counts.  Human-readable lines go first; the last line of stdout is one
JSON object.  The exit code is nonzero when any output differs from its
pinned digest, a deterministic count differs between repeats of one
input, or the traced layers do not partition the window.  ``--pin``
prints fresh digests for studies.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up repetitions per run; set-up time is their median.
SETUP_REPEATS = 3
#: Fresh-interpreter start-ups per run; start-up time is their median.
START_UP_REPEATS = 7
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


# -- helpers (tested in test_perfbench.py) -----------------------------------


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def beyond(p: float, n: int) -> int:
    """Samples above the nearest-rank ``p`` percentile of ``n``."""
    return n - _rank(p, n)


def tail_percentile(
    values: Sequence[float],
    candidates: Sequence[float] = TAIL_CANDIDATES,
    least: int = 10,
) -> Tuple[float, float]:
    """``(p, value)`` for the highest candidate percentile that leaves
    at least ``least`` samples above its rank."""
    n = len(values)
    for p in sorted(candidates, reverse=True):
        if beyond(p, n) >= least:
            return p, percentile(values, p)
    raise ValueError(f"{n} samples leave fewer than {least} beyond any percentile")


def count_calls(spans, start: int, end: int) -> Dict[str, int]:
    """Calls per entry point among ``spans`` (sorted by start) that start
    in ``[start, end)``, plus the engine's instructions and cycles."""
    lo = bisect.bisect_left(spans, start, key=lambda s: s[2])
    hi = bisect.bisect_left(spans, end, key=lambda s: s[2])
    counts: Dict[str, int] = {}
    for _layer, name, _s, _e, note in spans[lo:hi]:
        counts[name] = counts.get(name, 0) + 1
        if name == "execute":
            counts["instructions"] = counts.get("instructions", 0) + note[0]
            counts["cycles"] = counts.get("cycles", 0) + note[1]
    return counts


def check_repeats(spans, repeats):
    """Every run of one input must make the same calls; returns
    ``{label: counts}``.  (No service study repeats in a window: its
    agents split setups and poll on timers, so its calls would not.)"""
    from studies import CheckFailed

    first: Dict[str, Dict[str, int]] = {}
    for label, start, end in repeats:
        counts = count_calls(spans, start, end)
        if label not in first:
            first[label] = counts
        elif counts != first[label]:
            raise CheckFailed(
                f"{label}: a repeat made different calls: {counts} != {first[label]}"
            )
    return first


# -- metrics ------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(window, setup: Tuple[float, float], rss_mb: float) -> Tuple[Dict, List[str]]:
    """The end-to-end metrics and their human-readable lines.

    ``setup`` is the set-up time in ns, (host-normalized, raw): start-up
    plus set-up, each the median of its repetitions.
    """
    from hostspeed import normalized_ns

    n = len(window.latencies)
    lat_ms = [normalized_ns(u) / 1e6 for u in window.latencies]
    raw_ms = [u[0] / 1e6 for u in window.latencies]
    times = {  # name: (normalized, raw, unit)
        "wall_s": (sum(normalized_ns(u) for u in window.units) / 1e9,
                   sum(u[0] for u in window.units) / 1e9, "s"),
        "setup_s": (setup[0] / 1e9, setup[1] / 1e9, "s"),
        "rerun_p50_ms": (percentile(lat_ms, 50), percentile(raw_ms, 50), "ms"),
        "rerun_p90_ms": (percentile(lat_ms, 90), percentile(raw_ms, 90), "ms"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, _raw, u) in times.items()}
    lines = [
        f"{k} = {v:.6g} {u}  (raw {raw:.6g} {u}, host-speed index {v / raw:.4f})"
        for k, (v, raw, u) in times.items()
    ]
    lines.append(
        f"rerun percentiles over {n} {window.latency_unit} latencies "
        f"({beyond(90, n)} beyond p90)"
    )
    try:
        p, value = tail_percentile(lat_ms)
        lines.append(f"highest percentile with 10 or more beyond it: p{p:g} = {value:.6g} ms")
    except ValueError as exc:
        lines.append(f"no well-supported tail: {exc}")
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
    lines.append(f"peak_rss_mb = {rss_mb:.6g} MiB")
    lines.append(
        f"failed_frac = {window.failed / max(1, window.attempted):.6g} "
        f"({window.failed} failed of {window.attempted} setups attempted)"
    )
    return metrics, lines


def per_layer(window, spans, wall_untraced: float):
    """Per-layer metrics of a traced window; checks its partition and
    that every repeat of one input made the same calls."""
    import spans as sp
    from hostspeed import normalized_ns, speed_index

    start, end = window.start_ns, window.end_ns
    self_ns, other_ns = sp.partition(spans, start, end)
    sp.check_partition(self_ns, other_ns, end - start)
    inside = sorted((s for s in spans if start <= s[2] < end), key=lambda s: s[2])
    repeats = check_repeats(inside, window.repeats)
    counts = count_calls(inside, start, end)

    def calls(*names: str) -> int:
        return sum(counts.get(n, 0) for n in names)

    engine_ns = sum(s[3] - s[2] for s in inside if s[1] == "execute")
    insns = counts.get("instructions", 0)
    gets = [s for s in inside if s[0] == "store.get"]
    builds, compiles = calls("Experiment.build"), calls("compile_program")
    trips = [t / 1e6 for t in sp.lease_round_trips(inside)]

    m: Dict[str, Tuple[float, str]] = {}
    for layer, metric in sp.SELF_METRIC.items():
        m[metric] = (self_ns[layer] / 1e9, "s")
    m["other.self_s"] = (other_ns / 1e9, "s")
    m.update({
        "toolchain.compiles": (compiles, "count"),
        "toolchain.links": (calls("link"), "count"),
        "blockcache.warms": (calls("warm"), "count"),
        "experiment.build_hit_ratio": (
            (builds - compiles) / builds if builds else 0.0, "ratio"),
        "loader.loads": (calls("load_process"), "count"),
        "engine.runs": (calls("execute"), "count"),
        "engine.instructions": (insns, "count"),
        "engine.ns_per_insn": (engine_ns / insns if insns else 0.0, "ns"),
        "store.gets": (len(gets), "count"),
        "store.hit_ratio": (
            sum(1 for s in gets if s[4]) / len(gets) if gets else 0.0, "ratio"),
        "store.puts": (calls("MeasurementStore.put_measurement",
                             "MeasurementStore.put_artifact"), "count"),
        "journal.appends": (calls("Journal.append"), "count"),
        "wal.appends": (calls("ServiceWAL.append"), "count"),
        "supervisor.tasks": (calls("SupervisedPool.submit"), "count"),
        "service.lease_p50_ms": (percentile(trips, 50) if trips else 0.0, "ms"),
        "service.lease_p90_ms": (percentile(trips, 90) if trips else 0.0, "ms"),
        "trace.window_s": ((end - start) / 1e9, "s"),
        "trace.host_index": (speed_index(window.units), "ratio"),
    })
    traced_wall = sum(normalized_ns(u) for u in window.units) / 1e9
    m["trace.overhead_frac"] = (traced_wall / wall_untraced - 1.0, "ratio")
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in m.items()]
    parts = dict(self_ns, other=other_ns)
    lines.append("largest shares of the window: " + ", ".join(
        f"{layer} {ns / (end - start):.1%}"
        for layer, ns in sorted(parts.items(), key=lambda kv: -kv[1])[:6]))
    lines.append(f"partition: {len(self_ns)} layers + other = {end - start} ns (exact)")
    lines.append(
        f"deterministic: {len(window.repeats)} input runs, {len(repeats)} inputs, "
        "every repeat made the same calls"
    )
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return metrics, lines


# -- driver -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="print fresh output digests and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    return args


def import_lab():
    """Put the checkout's sources on the path and import the workloads."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import studies

    return studies


def start_up() -> None:
    """A fresh interpreter that imports the lab and exits: what every
    process pays before its first set-up."""
    subprocess.run(
        [sys.executable, "-c", "import studies"], cwd=HERE, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
    )


def timed(host, fn, then=lambda result: None):
    """Time one call of ``fn``; returns its (raw ns, local kernel ns)
    unit.  The kernel runs just before the call and just after
    ``then(result)``, whose time is left out."""
    before = host.sample()
    start = time.perf_counter_ns()
    result = fn()
    raw = time.perf_counter_ns() - start
    then(result)
    return raw, (before + host.sample()) / 2


def median_time(units) -> Tuple[float, float]:
    """(host-normalized, raw) medians of ``units``, in ns."""
    from hostspeed import normalized_ns

    return (statistics.median(normalized_ns(u) for u in units),
            statistics.median(u[0] for u in units))


def set_up(wl, ctx) -> Tuple[object, Tuple[float, float]]:
    """Time :data:`SETUP_REPEATS` set-ups, then set up once more for the
    window; returns that state and the median set-up time, (normalized,
    raw) ns.

    Each timed set-up is torn down before its second kernel run, so that
    neither of its kernel runs shares the host with what the set-up
    started (the service and its agents).
    """
    units = [timed(ctx.host, lambda: wl.setup(ctx), wl.teardown)
             for _ in range(SETUP_REPEATS)]
    return wl.setup(ctx), median_time(units)


def run(args, studies, workdir: str) -> Tuple[dict, List[str]]:
    import spans as sp
    from hostspeed import HostSpeed

    wl = studies.WORKLOADS[args.workload]
    ctx = studies.Context(workdir=workdir, seed=args.seed,
                          seconds=args.seconds, host=HostSpeed())
    state, setup = set_up(wl, ctx)
    try:
        window = wl.window(ctx, state)
    finally:
        wl.teardown(state)
    # A process imports the lab only once, and one import's time varies
    # by a third from run to run, so start-up is timed in fresh
    # interpreters and repeated like the set-up; after the window, so
    # that they do not count in peak_rss_mb.
    rss = peak_rss_mb()
    boot = median_time([timed(ctx.host, start_up) for _ in range(START_UP_REPEATS)])
    metrics, lines = end_to_end(window, (boot[0] + setup[0], boot[1] + setup[1]), rss)
    lines.insert(0, f"workload {args.workload} seed {args.seed}: "
                 f"{len(window.repeats)} input runs, {len(window.digests)} "
                 "output digests, all match their pins")
    result = {"correct": True, "attempted": window.attempted,
              "failed": window.failed, "metrics": metrics}
    if not args.trace:
        return result, lines

    # Traced run: a fresh set-up under the tracer (forked workers must
    # inherit the wrappers), then the same window with every span kept.
    tracer = sp.Tracer(os.path.join(workdir, "trace"))
    ctx.tracer = tracer
    with tracer:
        state = wl.setup(ctx)
        try:
            traced = wl.window(ctx, state)
        finally:
            wl.teardown(state)
    layer_metrics, layer_lines = per_layer(
        traced, tracer.collect(), metrics["wall_s"]["value"]
    )
    result = {"correct": True, "attempted": traced.attempted,
              "failed": traced.failed, "metrics": layer_metrics}
    return result, lines + layer_lines


def pin(studies) -> None:
    for wl in studies.WORKLOADS.values():
        for label, job in wl.pin_jobs():
            print(f"    {label!r}: {studies.digest(job())!r},", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        studies = import_lab()
        from spans import PartitionError
    except ImportError as exc:
        print(f"perfbench: cannot import the lab from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    scratch_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch_root)
    # Keep every temporary file inside the checkout, including the
    # directory multiprocessing makes (and removes at exit) for its
    # sockets and arenas.
    tempfile.tempdir = scratch_root
    try:
        if args.pin:
            pin(studies)
            return 0
        try:
            result, lines = run(args, studies, workdir)
        except (studies.CheckFailed, PartitionError) as exc:
            print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
