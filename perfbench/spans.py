"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps each layer's public entry points where their
callers look them up (callers import names directly, so
``repro.core.experiment.execute`` is patched, not
``repro.arch.engine.execute``) and keeps one span per call in memory.
Forked children (the service agents' worker processes) inherit the
wrappers; after a fork each child appends its spans to a file of its
own under the trace directory, which :meth:`Tracer.collect` reads back
into the same trace.  ``time.perf_counter_ns`` reads CLOCK_MONOTONIC
on Linux, so parent and child timestamps share one clock.

:func:`partition` splits a window into per-layer self time.  Spans run
on several threads and processes at once, so "self time" is decided
per instant: each nanosecond of the window goes to the active layer
that comes first in :data:`PRECEDENCE` (the layer doing the work), or to
``other`` when no layer is active.  On one thread this is exactly
"span time not covered by a child layer", because every child layer
ranks above its callers.  The result sums to the window in integer
nanoseconds, which :func:`check_partition` verifies.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers, highest precedence first.  A layer ranks above every layer
#: that can call it.
PRECEDENCE: Tuple[str, ...] = (
    "calib",
    "engine",
    "loader",
    "blockcache",
    "link",
    "compile",
    "store.get",
    "store.put",
    "journal",
    "wal",
    "stats.interval",
    "stats.analyze",
    "build",
    "supervisor",
    "lease",
    "api",
    "runner",
)

#: Self-time metric name of each layer.
SELF_METRIC: Dict[str, str] = {
    "calib": "calib.self_s",
    "engine": "engine.run_s",
    "loader": "loader.load_s",
    "blockcache": "blockcache.warm_s",
    "link": "toolchain.link_s",
    "compile": "toolchain.compile_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "journal": "journal.append_s",
    "wal": "wal.append_s",
    "stats.interval": "stats.interval_s",
    "stats.analyze": "stats.analyze_s",
    "build": "experiment.build_s",
    "supervisor": "supervisor.poll_s",
    "lease": "service.lease_s",
    "api": "service.api_s",
    "runner": "runner.self_s",
}


@dataclass(frozen=True)
class Entry:
    """One public entry point and the layer its calls belong to.

    ``attr`` is ``name`` for a module function or ``Class.name`` for a
    method.  ``note`` selects what the span records besides its times:
    ``insns`` (the engine's retired instructions and simulated cycles), ``hit`` (whether a
    store read found its record) or ``wal`` (the record's kind, study
    and setup index).
    """

    layer: str
    module: str
    attr: str
    note: str = ""


ENTRIES: Tuple[Entry, ...] = (
    Entry("engine", "repro.core.experiment", "execute", "insns"),
    Entry("loader", "repro.core.experiment", "load_process"),
    Entry("blockcache", "repro.arch.blockcache", "warm"),
    Entry("link", "repro.core.experiment", "link"),
    Entry("compile", "repro.core.experiment", "compile_program"),
    Entry("store.get", "repro.store.store", "MeasurementStore.get_measurement", "hit"),
    Entry("store.get", "repro.store.store", "MeasurementStore.get_artifact", "hit"),
    Entry("store.put", "repro.store.store", "MeasurementStore.put_measurement"),
    Entry("store.put", "repro.store.store", "MeasurementStore.put_artifact"),
    Entry("journal", "repro.core.runner", "Journal.append"),
    Entry("wal", "repro.core.servicewal", "ServiceWAL.append", "wal"),
    Entry("stats.interval", "repro.core.randomization", "t_confidence_interval"),
    Entry("stats.interval", "repro.stats.speedup", "t_confidence_interval"),
    Entry("stats.analyze", "repro.stats.speedup", "analyze_speedups"),
    Entry("build", "repro.core.experiment", "Experiment.build"),
    Entry("supervisor", "repro.core.supervisor", "SupervisedPool.submit"),
    Entry("supervisor", "repro.core.supervisor", "SupervisedPool.poll"),
    Entry("lease", "repro.core.service", "LeasePool.submit"),
    Entry("lease", "repro.core.service", "LeasePool.poll"),
    Entry("api", "repro.core.service", "submit_study"),
    Entry("api", "repro.core.service", "get_study"),
    Entry("runner", "repro.core.runner", "SweepRunner.run"),
)

#: A span: (layer, entry attr, start ns, end ns, note value).
Span = Tuple[str, str, int, int, Any]

_active: Optional["Tracer"] = None
_fork_hook_installed = False


def _after_fork_in_child() -> None:
    if _active is not None:
        _active._forked()


def _note_value(note: str, args: tuple, result: Any) -> Any:
    if note == "insns":
        return [result.counters.instructions, result.counters.cycles]
    if note == "hit":
        return result is not None
    if note == "wal":
        kind, data = args[1], args[2]
        return [kind, data.get("study", ""), data.get("index", -1)]
    return None


class Tracer:
    """Wraps entry points and keeps their spans.

    Use as a context manager: entering installs every wrapper, leaving
    restores the original functions.  ``trace_dir`` receives the span
    files of forked children.
    """

    def __init__(
        self, trace_dir: str, entries: Sequence[Entry] = ENTRIES
    ) -> None:
        self.trace_dir = trace_dir
        self.entries = tuple(entries)
        self.spans: List[Span] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._sink = None

    # -- recording --------------------------------------------------------

    def add(self, span: Span) -> None:
        """Record one finished span (to a file in a forked child)."""
        if self._sink is None:
            self.spans.append(span)
        else:
            self._sink.write(json.dumps(span) + "\n")

    def span(self, layer: str, name: str, start: int, note: Any = None) -> None:
        """Record a span the caller timed itself, ending now."""
        self.add((layer, name, start, time.perf_counter_ns(), note))

    def _forked(self) -> None:
        self.spans = []
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        self._sink = open(path, "a", buffering=1)

    def collect(self) -> List[Span]:
        """This process's spans plus every forked child's."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.trace_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                for line in fh:
                    try:
                        layer, name, start, end, note = json.loads(line)
                    except ValueError:
                        continue  # a child killed mid-line
                    spans.append((layer, name, start, end, note))
        return spans

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, entry: Entry, fn: Callable) -> Callable:
        layer, name, note = entry.layer, entry.attr, entry.note
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            self.add((layer, name, start, clock(),
                      _note_value(note, args, result) if note else None))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every entry point (idempotence is not supported)."""
        global _active, _fork_hook_installed
        if _active is not None:
            raise RuntimeError("another tracer is installed")
        os.makedirs(self.trace_dir, exist_ok=True)
        for entry in self.entries:
            owner = importlib.import_module(entry.module)
            parts = entry.attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(entry, original))
        _active = self
        if not _fork_hook_installed:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _fork_hook_installed = True

    def uninstall(self) -> None:
        """Restore every original function, in reverse patch order."""
        global _active
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if _active is self:
            _active = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- partition ---------------------------------------------------------------


class PartitionError(AssertionError):
    """Layer self times do not sum to the window."""


def partition(
    spans: Iterable[Span], start: int, end: int,
    precedence: Sequence[str] = PRECEDENCE,
) -> Tuple[Dict[str, int], int]:
    """Self time (ns) of each layer in ``[start, end)``, and the rest.

    Returns ``(self_ns, other_ns)``; each instant goes to the active
    layer earliest in ``precedence``, or to ``other_ns`` when none is.
    """
    rank = {layer: i for i, layer in enumerate(precedence)}
    events: List[Tuple[int, int, int]] = []
    for layer, _name, s, e, _note in spans:
        s, e = max(s, start), min(e, end)
        if e > s:
            events.append((s, 1, rank[layer]))
            events.append((e, -1, rank[layer]))
    events.sort()
    active = [0] * len(precedence)
    self_ns = [0] * len(precedence)
    other_ns = 0
    now = start
    for t, delta, r in events:
        if t > now:
            owner = next((i for i, n in enumerate(active) if n), None)
            if owner is None:
                other_ns += t - now
            else:
                self_ns[owner] += t - now
            now = t
        active[r] += delta
    other_ns += end - now
    return dict(zip(precedence, self_ns)), other_ns


def check_partition(self_ns: Dict[str, int], other_ns: int, window_ns: int) -> None:
    """Raise :class:`PartitionError` unless the parts are non-negative
    integers summing exactly to ``window_ns``."""
    parts = list(self_ns.values()) + [other_ns]
    if any(not isinstance(p, int) or p < 0 for p in parts):
        raise PartitionError(f"negative or non-integer part in {parts}")
    total = sum(parts)
    if total != window_ns:
        raise PartitionError(
            f"layers sum to {total} ns but the window is {window_ns} ns"
        )


def lease_round_trips(spans: Iterable[Span], study: Optional[str] = None) -> List[int]:
    """Lease-to-complete time (ns) of every setup in the WAL spans, of
    one ``study`` when given; a setup leased again counts from its last
    lease."""
    leased: Dict[Tuple[str, int], int] = {}
    trips: List[int] = []
    for s in sorted((s for s in spans if s[0] == "wal"), key=lambda s: s[3]):
        kind, sid, index = s[4]
        if study is not None and sid != study:
            continue
        if kind == "lease":
            leased[(sid, index)] = s[3]
        elif kind == "complete" and (sid, index) in leased:
            trips.append(s[3] - leased.pop((sid, index)))
    return trips
