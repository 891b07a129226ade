"""Fault-aware I/O shim for the coordinator's durable artifacts.

Every byte the coordinator persists — checkpoint journal and service
WAL lines (appended and rewritten by :mod:`repro.core.checklog`), v2
archives, content-addressed store entries — flows through the small
functions here, which consult the active :class:`~repro.faults.FaultPlan`
before touching the disk.  That gives the storage failure domain the
same property the worker and network domains already have: faults are
*injected at the real write sites*, deterministically, from the same
seeded plan, so crash consistency is a tested invariant instead of a
docs claim.

The shim stays honest about which side of the durability line each
fault lands on:

- :func:`check_disk_full` fires **before** any bytes are written — an
  injected ``ENOSPC`` leaves the artifact exactly as it was;
- :func:`fsync` injects **latency only** (``journal_fsync_stall``) —
  the data is still synced, just late (:func:`fsync_stall` draws it
  for each further record a group commit's one sync makes durable);
- :func:`maybe_bitflip` fires **after** a successful publish — the
  write succeeded, the media rotted later;
- :func:`torn_tail_fires` lets the journal writer emulate a power cut
  between the page-cache write and the fsync: a truncated line lands,
  nothing is synced, and only resume-time recovery notices.

Draws are keyed on the artifact's own identity (fault key, store key,
path) — never on a global write ordinal — so the schedule is a pure
function of the plan and the artifact, independent of completion order
in parallel sweeps.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from typing import IO

from repro import faults
from repro.obs import metrics as obs_metrics


def check_disk_full(key: str, attempt: int = 1, *, path: str = "") -> None:
    """Raise a deterministic ``ENOSPC`` when the plan's ``disk_full``
    fires for ``key`` — called before the first byte of a durable write.
    """
    if faults.should_inject_at("disk_full", key, attempt):
        obs_metrics.counter("storage.disk_full").inc()
        raise OSError(
            errno.ENOSPC,
            f"injected disk_full fault ({key})",
            path or None,
        )


def fsync(fh: IO, key: str, attempt: int = 1) -> None:
    """``os.fsync`` with injected ``journal_fsync_stall`` latency.

    The stall sleeps :attr:`FaultPlan.fsync_stall_seconds` *before* the
    sync — modelling a slow disk, not a lost one; the data always lands.
    """
    fsync_stall(key, attempt)
    os.fsync(fh.fileno())


def fsync_stall(key: str, attempt: int = 1) -> None:
    """The ``journal_fsync_stall`` draw alone, for a record that a sync
    drawn on another key makes durable (a group commit's other lines)."""
    plan = faults.active()
    if plan is not None and plan.fires("journal_fsync_stall", key, attempt):
        obs_metrics.counter("storage.fsync_stalls").inc()
        time.sleep(plan.fsync_stall_seconds)


def torn_tail_fires(key: str, attempt: int = 1) -> bool:
    """Does ``journal_torn_tail`` fire for this append?  The journal
    writer owns the mechanics (truncate the line, skip the fsync); the
    shim owns the draw so all storage kinds share one schedule."""
    fired = faults.should_inject_at("journal_torn_tail", key, attempt)
    if fired:
        obs_metrics.counter("storage.torn_tails").inc()
    return fired


def maybe_bitflip(path: str, key: str, attempt: int = 1) -> bool:
    """Corrupt one byte of the published entry at ``path`` when the
    plan's ``store_bitflip`` fires; True when a flip happened.

    The flipped offset is itself a deterministic draw, so the same plan
    rots the same byte of the same entry on every run.  Flipping any
    byte of a store entry breaks either its JSON framing or its payload
    checksum — both are caught by the next read and served as a miss.
    """
    plan = faults.active()
    if plan is None or not plan.fires("store_bitflip", key, attempt):
        return False
    size = os.path.getsize(path)
    if size == 0:
        return False
    offset = int(faults._uniform(plan.seed, "bitflip:offset", key) * size)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x01]))
        fh.flush()
        os.fsync(fh.fileno())
    obs_metrics.counter("storage.bitflips").inc()
    return True


def atomic_write_text(path: str, text: str, key: str = "") -> None:
    """Durably publish ``text`` at ``path``: tmp + fsync + rename.

    The archive writer's crash-consistency primitive — a reader (or a
    crash at any barrier) sees either the old file or the complete new
    one, never a truncated hybrid.  The tmp file lands in ``path``'s own
    directory (rename must not cross filesystems) with the store's
    ``.tmp-`` prefix so ``repro fsck`` can sweep orphans after a crash.
    """
    directory = os.path.dirname(os.path.abspath(path))
    base = os.path.basename(path)
    check_disk_full(key or base, path=path)
    fd, tmp = tempfile.mkstemp(prefix=f".tmp-{base}-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            fsync(fh, key or base)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
