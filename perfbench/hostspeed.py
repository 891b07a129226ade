"""Host-speed calibration: a fixed interpreter-bound kernel.

The host this benchmark was tuned on (a 2-vCPU VM) slows down in
episodes: for seconds at a time every thread runs 1.5-2x slower, and CPU
time grows with wall time, so it is the host and not the scheduler.  A
fixed kernel run on the driving thread between units of work sees the
same slowdown as the work around it.

The kernel chases values through a 32K-entry dict (about 2.5 MiB with
its int objects, more than the 2 MiB L2 cache) and allocates one small
object per step.  A kernel that stays in the L1 cache slowed 1.9x in the
slow episodes while the lab's work slowed 1.6x; this one slows by the
same factor as the work (log-log slope 0.95-1.0 against engine runs and
warm re-runs), so it corrects the work rather than over-corrects it.
Its time also depends on what ran just before it: about 1.3 ms right
after itself, 2 ms after a unit of the lab's work.  So every kernel run
follows a unit of work, never another kernel run.

:class:`Timeline` splits a timed window into units, with one kernel run
at every boundary.  A unit's host-normalized time is its raw time scaled
by ``REFERENCE_NS`` over the mean of the kernel runs on either side of
it (the median, when the driving thread also ran the kernel during the
unit).  The host-speed index of a set of units is their normalized over
their raw time: 1.0 on the reference host, below 1.0 in a slow episode.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Kernel time on the reference host (2-vCPU VM, Python 3.11, outside a
#: slow episode, after a unit of the lab's work).  Pinned: changing it
#: rescales every normalized figure.
REFERENCE_NS = 2_350_000
TABLE_BITS = 15
ROUNDS = 4_000


class _Cell:
    __slots__ = ("value", "link")

    def __init__(self, value: int, link: Optional["_Cell"]) -> None:
        self.value = value
        self.link = link


def make_table(bits: int = TABLE_BITS) -> Dict[int, int]:
    """The kernel's lookup table (built once per process)."""
    return {i: (i * 2654435761) & 0xFFFFF for i in range(1 << bits)}


def kernel(table: Dict[int, int], rounds: int = ROUNDS) -> int:
    """Dict lookups, attribute reads and calls, about 2 ms.

    Returns a checksum so the work cannot be skipped.
    """
    mask = len(table) - 1
    x, acc = 1, 0
    for i in range(rounds):
        x = table[(x * 7 + i) & mask]
        acc += x & 1023
        acc += _Cell(x, None).value & 1
    return acc


class HostSpeed:
    """The kernel and its table."""

    def __init__(self) -> None:
        self.table = make_table()

    def sample(self) -> int:
        """Run the kernel once; returns the CPU time the calling thread
        spent in it, in ns.

        CPU time rather than wall time, so that time spent waiting for
        the interpreter lock, held by other threads of the lab (the
        service's), is left out.  The cyclic collector is off meanwhile:
        a collection the work left due would otherwise land in the
        kernel, at a cost that grows with the work's heap rather than
        with the host's speed.
        """
        gc.disable()
        try:
            start = time.thread_time_ns()
            kernel(self.table)
            elapsed = time.thread_time_ns() - start
        finally:
            gc.enable()
        return elapsed


Unit = Tuple[int, float]
"""A unit of work: (raw ns, local kernel ns), the local kernel time being
the median of the kernel runs in and on either side of it."""


def normalized_ns(unit: Unit, reference_ns: int = REFERENCE_NS) -> float:
    """A unit's time as it would read on the reference host."""
    raw, local = unit
    return raw * reference_ns / local


def speed_index(units: Sequence[Unit], reference_ns: int = REFERENCE_NS) -> float:
    """Normalized over raw time of ``units``."""
    raw = sum(u[0] for u in units)
    return sum(normalized_ns(u, reference_ns) for u in units) / raw


class Timeline:
    """Units of work, with a kernel run on the driving thread between each.

    ``calibrate`` runs the kernel once and returns its time.  Construction
    runs it once; each :meth:`mark` ends the unit in progress, runs it
    once more and starts the next unit, so a unit's raw time leaves out
    the kernel runs at its ends.

    When other threads or processes do the work while the driving thread
    waits for it (the service), the driving thread also calls
    :meth:`sample` while it waits.  Those kernel runs overlap the work,
    so they stay in the unit's raw time, and the unit is normalized by
    the median of every kernel run in and around it.
    """

    def __init__(self, calibrate: Callable[[], int]) -> None:
        self.calibrate = calibrate
        self.units: List[Unit] = []
        self._samples = [calibrate()]
        self._last = time.perf_counter_ns()

    def sample(self) -> None:
        """Run the kernel inside the current unit."""
        self._samples.append(self.calibrate())

    def pause(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` outside the time of every unit."""
        start = time.perf_counter_ns()
        fn()
        self._last += time.perf_counter_ns() - start

    def mark(self) -> Unit:
        """End the current unit; returns it."""
        raw = time.perf_counter_ns() - self._last
        after = self.calibrate()
        unit = (raw, statistics.median(self._samples + [after]))
        self.units.append(unit)
        self._samples = [after]
        self._last = time.perf_counter_ns()
        return unit
