#!/usr/bin/env python
"""Bench regression gate: diff two benchmark sidecar directories.

Each directory holds ``<id>.txt`` artifacts and ``<id>.meta.json``
provenance sidecars written by :func:`benchmarks.common.publish`
(redirect the tree with ``REPRO_BENCH_RESULTS``).  The comparison
enforces the repo's determinism contract (docs/observability.md):

- **deterministic facts must match exactly** — the published artifact's
  bytes (via its sha256), event counters (``engine.instructions``,
  ``engine.simulated_cycles``, cache hits, ...), engine-profile dispatch
  and basic-block counts, and the recorded harness configuration
  (jobs/hosts/fault plan/trace sampling/heartbeat interval);
- **wall-clock facts and timestamps are ignored** — ``engine.ips``,
  ``*_seconds`` histograms, ``*_wall_ns`` tallies and ``created_unix``
  are facts about one host on one day.  Wall-time claims are made with
  perfbench's repeated, bounded runs (docs/performance.md), not here.

Exit codes: 0 = no drift, 1 = drift detected, 2 = usage/IO error.

Usage::

    python tools/bench_compare.py RESULTS_A RESULTS_B

The perf-smoke CI job runs the pinned micro-bench twice into two fresh
directories and gates the build on this script: any nonzero exit means
the lab produced different numbers from the same inputs — exactly the
class of silent drift the source paper is about.
"""

from __future__ import annotations

import argparse
import copy
import glob
import hashlib
import json
import os
import sys
from typing import Any, Dict, Iterator, List

#: Metric-name suffixes that mark a value as wall-clock (host-local,
#: never byte-stable): timings, rates derived from timings.
WALL_SUFFIXES = ("_seconds", "_wall_ns", ".ips", "_wall")

#: Top-level sidecar keys that are pure timestamps — not compared at all.
IGNORED_KEYS = ("created_unix",)


def is_wall_metric(name: str) -> bool:
    """True when a metric name denotes a wall-clock quantity."""
    return name.endswith(WALL_SUFFIXES)


def load_sidecars(directory: str) -> Dict[str, Dict[str, Any]]:
    """All ``*.meta.json`` sidecars in ``directory``, keyed by bench id."""
    if not os.path.isdir(directory):
        raise OSError(f"not a directory: {directory}")
    out: Dict[str, Dict[str, Any]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.meta.json"))):
        name = os.path.basename(path)[: -len(".meta.json")]
        with open(path) as fh:
            out[name] = json.load(fh)
    return out


def verify_artifact(directory: str, sidecar: Dict[str, Any]) -> List[str]:
    """Check the sidecar's artifact checksum against the file on disk."""
    artifact = sidecar.get("artifact") or {}
    fname, want = artifact.get("file"), artifact.get("sha256")
    if not fname or not want:
        return [f"sidecar lacks an artifact checksum ({directory})"]
    path = os.path.join(directory, fname)
    if not os.path.exists(path):
        return [f"artifact missing on disk: {path}"]
    with open(path, "rb") as fh:
        got = hashlib.sha256(fh.read()).hexdigest()
    if got != want:
        return [f"artifact corrupt on disk: {path} sha256 {got[:12]}... != recorded {want[:12]}..."]
    return []


def deterministic_view(sidecar: Dict[str, Any]) -> Dict[str, Any]:
    """Project a sidecar down to its byte-stable fields.

    Drops timestamps, wall-clock gauges and wall-clock histogram
    statistics (the observation *count* of a wall histogram is an event
    count, so it stays), and the engine profile's per-class nanosecond
    tallies.  Whatever survives must compare equal between two runs of
    the same bench.
    """
    out = copy.deepcopy(sidecar)
    for key in IGNORED_KEYS:
        out.pop(key, None)
    metrics = out.get("metrics") or {}
    for name in list(metrics.get("gauges") or {}):
        if is_wall_metric(name):
            metrics["gauges"].pop(name)
    for name, summary in list((metrics.get("histograms") or {}).items()):
        if is_wall_metric(name) and isinstance(summary, dict):
            metrics["histograms"][name] = {"count": summary.get("count")}
    perf = out.get("perf")
    if isinstance(perf, dict) and isinstance(perf.get("engine"), dict):
        perf["engine"].pop("opcode_wall_ns", None)
        # Which engine path ran (and how warm its decode cache was) is a
        # host/session fact, not a measurement: the block-cache tallies
        # are all zeros under REPRO_ENGINE_FASTPATH=0 and nonzero
        # otherwise, while every simulated result stays byte-identical.
        perf["engine"].pop("block_cache", None)
    return out


def diff_paths(a: Any, b: Any, prefix: str = "") -> Iterator[str]:
    """Human-readable dotted paths where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                yield f"{sub}: only in B ({b[key]!r})"
            elif key not in b:
                yield f"{sub}: only in A ({a[key]!r})"
            else:
                yield from diff_paths(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{prefix}: list length {len(a)} != {len(b)}"
        else:
            for i, (va, vb) in enumerate(zip(a, b)):
                yield from diff_paths(va, vb, f"{prefix}[{i}]")
    elif a != b:
        yield f"{prefix}: {a!r} != {b!r}"


def compare_dirs(dir_a: str, dir_b: str) -> List[str]:
    """All drift findings between two result directories."""
    side_a, side_b = load_sidecars(dir_a), load_sidecars(dir_b)
    problems: List[str] = []
    if not side_a and not side_b:
        problems.append("no sidecars found in either directory")
    for name in sorted(set(side_a) - set(side_b)):
        problems.append(f"{name}: only in {dir_a}")
    for name in sorted(set(side_b) - set(side_a)):
        problems.append(f"{name}: only in {dir_b}")
    for name in sorted(set(side_a) & set(side_b)):
        a, b = side_a[name], side_b[name]
        problems += [f"{name}: {p}" for p in verify_artifact(dir_a, a)]
        problems += [f"{name}: {p}" for p in verify_artifact(dir_b, b)]
        problems += [
            f"{name}: deterministic field differs — {d}"
            for d in diff_paths(deterministic_view(a), deterministic_view(b))
        ]
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="Diff two benchmark sidecar directories "
        "(exact on deterministic facts; wall clock is not compared).",
    )
    parser.add_argument("dir_a", help="baseline results directory")
    parser.add_argument("dir_b", help="candidate results directory")
    args = parser.parse_args(argv)
    try:
        problems = compare_dirs(args.dir_a, args.dir_b)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 2
    if problems:
        print(f"DRIFT: {len(problems)} problem(s) comparing "
              f"{args.dir_a} vs {args.dir_b}")
        for p in problems:
            print(f"  - {p}")
        return 1
    shared = len(set(load_sidecars(args.dir_a)) & set(load_sidecars(args.dir_b)))
    print(f"OK: {shared} bench result(s) match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
