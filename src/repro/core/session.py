"""Measurement persistence: archive runs as JSON, reload them later.

Reproducibility bookkeeping: a study's measurements can be archived with
their *complete* setups (the paper's complaint is precisely that setups
go unreported), reloaded, and re-analyzed — or re-measured and compared
against the archive to confirm the substrate hasn't drifted.

Format v2 adds a per-record SHA-256 checksum so a truncated, bit-rotted
or hand-edited archive is *detected* (raising
:class:`~repro.core.errors.ArchiveCorruption` with file and record
context) instead of silently yielding wrong data — van der Kouwe et
al.'s "benchmarking crimes" include exactly this failure mode.  v1
archives (no checksums) are still readable.  The sweep runner's
append-only checkpoint journal (:mod:`repro.core.runner`) reuses the
same record schema and checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Union

from repro import storageio
from repro._errors import ArchiveCorruption
from repro.arch.counters import PerfCounters
from repro.arch.machines import MachineConfig
from repro.core.experiment import Measurement
from repro.core.setup import CompilerLike, ExperimentalSetup
from repro.toolchain.profiles import CompilerProfile

#: ``PerfCounters`` field names, in order: the encoder copies them one by
#: one, where ``dataclasses.asdict`` would deep-copy every number.
_COUNTER_FIELDS = tuple(f.name for f in fields(PerfCounters))

#: Legacy format marker (no per-record checksums).
FORMAT_V1 = "repro-measurements-v1"
#: Current format marker: every measurement record carries a checksum.
FORMAT_V2 = "repro-measurements-v2"
#: Format written by :func:`save_measurements`.
FORMAT = FORMAT_V2

_SETUP_KEYS = (
    "machine",
    "compiler",
    "opt_level",
    "link_order",
    "env_bytes",
    "stack_align",
    "function_alignment",
)
_MEASUREMENT_KEYS = ("workload", "size", "seed", "setup", "counters", "exit_value")


def compiler_to_data(compiler: CompilerLike) -> Union[str, Dict]:
    """A setup's ``compiler`` as JSON: a preset's name as it stands, a
    custom :class:`CompilerProfile` as ``{"__compiler_profile__": ...}``."""
    if isinstance(compiler, CompilerProfile):
        return {"__compiler_profile__": compiler.to_dict()}
    return compiler


def setup_to_dict(setup: ExperimentalSetup) -> Dict:
    """Serialize a setup, embedding custom machine configs and compiler
    profiles inline."""
    machine: Union[str, Dict]
    if isinstance(setup.machine, MachineConfig):
        machine = {"__machine_config__": setup.machine.to_dict()}
    else:
        machine = setup.machine
    return {
        "machine": machine,
        "compiler": compiler_to_data(setup.compiler),
        "opt_level": setup.opt_level,
        "link_order": list(setup.link_order) if setup.link_order else None,
        "env_bytes": setup.env_bytes,
        "stack_align": setup.stack_align,
        "function_alignment": setup.function_alignment,
    }


def setup_from_dict(data: Dict) -> ExperimentalSetup:
    """Inverse of :func:`setup_to_dict` (default base environment)."""
    machine = data["machine"]
    if isinstance(machine, dict):
        machine = MachineConfig.from_dict(machine["__machine_config__"])
    compiler = data["compiler"]
    if isinstance(compiler, dict):
        compiler = CompilerProfile.from_dict(compiler["__compiler_profile__"])
    return ExperimentalSetup(
        machine=machine,
        compiler=compiler,
        opt_level=data["opt_level"],
        link_order=tuple(data["link_order"]) if data["link_order"] else None,
        env_bytes=data["env_bytes"],
        stack_align=data["stack_align"],
        function_alignment=data["function_alignment"],
    )


def measurement_to_dict(m: Measurement) -> Dict:
    return {
        "workload": m.workload,
        "size": m.size,
        "seed": m.seed,
        "setup": setup_to_dict(m.setup),
        "counters": {f: getattr(m.counters, f) for f in _COUNTER_FIELDS},
        "exit_value": m.exit_value,
        "function_cycles": dict(m.function_cycles),
    }


def measurement_from_dict(data: Dict) -> Measurement:
    return Measurement(
        workload=data["workload"],
        size=data["size"],
        seed=data["seed"],
        setup=setup_from_dict(data["setup"]),
        counters=PerfCounters(**data["counters"]),
        exit_value=data["exit_value"],
        function_cycles=dict(data.get("function_cycles", {})),
    )


def canonical_json(data: Dict) -> str:
    """Canonical serialization used for checksums: sorted keys, no
    whitespace — byte-identical for equal payloads in any process."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def record_checksum(data: Dict) -> str:
    """SHA-256 over the canonical serialization of one record payload."""
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def _validate_measurement_dict(data: Dict, *, path: str, record: int) -> None:
    if not isinstance(data, dict):
        raise ArchiveCorruption(
            f"measurement record is {type(data).__name__}, not an object",
            path=path,
            record=record,
        )
    missing = [k for k in _MEASUREMENT_KEYS if k not in data]
    if missing:
        raise ArchiveCorruption(
            f"measurement record missing keys {missing}",
            path=path,
            record=record,
        )
    setup = data["setup"]
    if not isinstance(setup, dict):
        raise ArchiveCorruption(
            "setup field is not an object", path=path, record=record
        )
    missing = [k for k in _SETUP_KEYS if k not in setup]
    if missing:
        raise ArchiveCorruption(
            f"setup record missing keys {missing}", path=path, record=record
        )


def load_measurement_record(
    data: Dict, *, path: str = "<archive>", record: int = 0
) -> Measurement:
    """Validate and deserialize one measurement dict, raising
    :class:`ArchiveCorruption` (never a raw ``KeyError``) on bad input."""
    _validate_measurement_dict(data, path=path, record=record)
    try:
        return measurement_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArchiveCorruption(
            f"measurement record does not deserialize: {exc!r}",
            path=path,
            record=record,
        ) from exc


def save_measurements(
    path: str,
    measurements: Sequence[Measurement],
    note: str = "",
    manifest: Optional[Dict] = None,
) -> None:
    """Write measurements (with full setups) to a v2 JSON archive.

    Each record carries a SHA-256 checksum over its canonical form so
    :func:`load_measurements` can detect corruption per record.
    ``manifest`` optionally embeds a provenance manifest
    (:func:`repro.obs.manifest.build_manifest`) so the archive records
    *how* its measurements were produced, not just their values; v1/v2
    readers that predate the field ignore it.

    The write is atomic and durable (tmp + fsync + rename through the
    fault-aware I/O shim, :func:`repro.storageio.atomic_write_text`): a
    crash at any point — and any reader at any time — sees either the
    previous archive or the complete new one, never a truncated hybrid.
    """
    records = []
    for m in measurements:
        data = measurement_to_dict(m)
        records.append({"measurement": data, "sha256": record_checksum(data)})
    payload = {
        "format": FORMAT_V2,
        "note": note,
        "measurements": records,
    }
    if manifest is not None:
        payload["manifest"] = manifest
    storageio.atomic_write_text(
        path,
        json.dumps(payload, indent=1),
        key=f"archive:{os.path.basename(path)}",
    )


def load_measurements(path: str) -> List[Measurement]:
    """Read a JSON archive written by :func:`save_measurements`.

    Accepts both v1 (legacy, no checksums) and v2 archives.  Raises
    :class:`~repro.core.errors.ArchiveCorruption` — with file and record
    context — on truncated files, invalid JSON, missing keys or checksum
    mismatches, never a raw ``KeyError``/``JSONDecodeError``.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ArchiveCorruption(
            f"invalid JSON (truncated or hand-edited archive?): {exc}",
            path=path,
        ) from exc
    if not isinstance(payload, dict):
        raise ArchiveCorruption("archive root is not an object", path=path)
    fmt = payload.get("format")
    if fmt not in (FORMAT_V1, FORMAT_V2):
        raise ArchiveCorruption(
            f"not a {FORMAT_V1}/{FORMAT_V2} archive (got {fmt!r})", path=path
        )
    records = payload.get("measurements")
    if not isinstance(records, list):
        raise ArchiveCorruption(
            "archive has no 'measurements' list", path=path
        )
    out: List[Measurement] = []
    for i, rec in enumerate(records):
        if fmt == FORMAT_V1:
            out.append(load_measurement_record(rec, path=path, record=i))
            continue
        if not isinstance(rec, dict) or "measurement" not in rec:
            raise ArchiveCorruption(
                "v2 record lacks a 'measurement' payload", path=path, record=i
            )
        data = rec["measurement"]
        _validate_measurement_dict(data, path=path, record=i)
        expected = rec.get("sha256")
        actual = record_checksum(data)
        if expected != actual:
            raise ArchiveCorruption(
                f"checksum mismatch (stored {str(expected)[:12]}…, "
                f"computed {actual[:12]}…) — record was altered or damaged",
                path=path,
                record=i,
            )
        out.append(load_measurement_record(data, path=path, record=i))
    return out


def load_archive(path: str):
    """Read an archive and its embedded provenance manifest (or None).

    Returns ``(measurements, manifest)``.  The measurement side is
    exactly :func:`load_measurements` (same validation and corruption
    errors); the manifest side returns the embedded dict untouched —
    validate it with :func:`repro.obs.manifest.validate_manifest` if the
    archive crossed a trust boundary.
    """
    measurements = load_measurements(path)
    with open(path) as fh:
        payload = json.load(fh)
    manifest = payload.get("manifest")
    if manifest is not None and not isinstance(manifest, dict):
        raise ArchiveCorruption(
            "embedded manifest is not an object", path=path
        )
    return measurements, manifest


def verify_against_archive(
    experiment, archived: Sequence[Measurement], tolerance: float = 0.0
) -> Optional[str]:
    """Re-measure every archived setup; return a description of the first
    drift found, or None when everything matches.

    With a deterministic substrate ``tolerance=0.0`` is the right
    setting: any cycle difference means the toolchain or model changed.
    """
    for m in archived:
        fresh = experiment.run(m.setup)
        if fresh.exit_value != m.exit_value:
            return (
                f"{m.setup.describe()}: exit {fresh.exit_value} != archived "
                f"{m.exit_value}"
            )
        delta = abs(fresh.cycles - m.counters.cycles)
        allowed = tolerance * m.counters.cycles
        if delta > allowed:
            return (
                f"{m.setup.describe()}: cycles {fresh.cycles:.0f} != archived "
                f"{m.counters.cycles:.0f} (drift {delta:.0f})"
            )
    return None
