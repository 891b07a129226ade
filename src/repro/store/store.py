"""The measurement store facade: typed entries over a byte backend.

:class:`MeasurementStore` is what the rest of the stack talks to.  It
owns the mapping from domain objects to store entries:

- a **measurement** entry is the canonical JSON of
  :func:`~repro.core.session.measurement_to_dict` — the same record
  schema archives and checkpoint journals use, so a store can be
  exported straight into a v2 archive;
- an **artifact** entry is a pickled
  :class:`~repro.isa.program.Executable`, letting a fresh process skip
  compilation entirely for build keys another run already paid for.

Misses are always safe: a corrupt entry (torn write, bit flip,
truncation — surfaced by the backend as
:class:`~repro.store.backend.StoreEntryCorrupt`, or by record
validation as :class:`~repro.core.errors.ArchiveCorruption`) is
counted, deleted, and reported as a miss, so the worst a damaged store
can do is cost one re-measurement.  Hit/miss/byte tallies go to the
**global** obs metrics registry only — never the sweep-scoped registry
that lands in ``SweepReport.metrics`` — which is what keeps warm-run
reports byte-identical to cold ones.
"""

from __future__ import annotations

import errno
import io
import json
import pickle
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro._errors import ArchiveCorruption
from repro.core.experiment import Measurement
from repro.core.session import (
    canonical_json,
    load_measurement_record,
    measurement_to_dict,
    save_measurements,
)
from repro.core.setup import ExperimentalSetup
from repro.isa.program import Executable
from repro.obs import metrics as obs_metrics
from repro.store.backend import (
    DiskBackend,
    MemoryBackend,
    StoreBackend,
    StoreEntryCorrupt,
)
from repro.store.keys import (
    ARTIFACT_PREFIX,
    KEY_SCHEME,
    MEASUREMENT_PREFIX,
    artifact_key,
    engine_fingerprint,
    measurement_key,
    source_digest,
)


class MeasurementStore:
    """Content-addressed store for measurements and compiled artifacts.

    Thin, typed, and strictly optional: every ``get_*`` returns ``None``
    on any problem (absent, corrupt, undecodable) and every ``put_*`` is
    idempotent, so callers can treat the store as a pure accelerator —
    correctness never depends on it.
    """

    def __init__(self, backend: StoreBackend) -> None:
        self.backend = backend
        self.engine = engine_fingerprint()
        # Per-instance tallies feed manifest provenance; the global obs
        # counters mirror them for `repro obs` and bench sidecars.
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.artifact_hits = 0
        self.artifact_misses = 0
        #: Sick-disk degradation: the first failed write (ENOSPC, I/O
        #: error) disables every further put for this store instance —
        #: reads keep serving hits, measurements keep landing, and the
        #: sweep report records the loss instead of the sweep dying.
        self.write_disabled = False
        self.disabled_reason = ""
        #: Source digest by workload name, with the sources it hashed.
        self._sources: Dict[str, Tuple[Mapping[str, str], str]] = {}

    # -- keys --------------------------------------------------------------

    def key_for(self, experiment, setup: ExperimentalSetup) -> str:
        """The measurement key of ``setup`` under ``experiment``."""
        return measurement_key(
            experiment.workload.name,
            self._source_digest(experiment.workload),
            experiment.size,
            experiment.seed,
            experiment.verify,
            setup,
            self.engine,
        )

    def artifact_key_for(self, experiment, setup: ExperimentalSetup) -> str:
        """The artifact key of ``setup``'s build under ``experiment``."""
        return artifact_key(
            experiment.workload.name,
            self._source_digest(experiment.workload),
            setup,
            self.engine,
        )

    def _source_digest(self, workload) -> str:
        """:func:`~repro.store.keys.source_digest` of ``workload``'s
        sources, hashed once per sources mapping rather than per key."""
        cached = self._sources.get(workload.name)
        if cached is None or cached[0] is not workload.sources:
            cached = (workload.sources, source_digest(workload.sources))
            self._sources[workload.name] = cached
        return cached[1]

    # -- measurements ------------------------------------------------------

    def _get(self, key: str) -> Optional[bytes]:
        """Backend read with the corrupt-entry policy applied: count it,
        delete it, miss."""
        try:
            return self.backend.get(key)
        except StoreEntryCorrupt:
            self.corrupt += 1
            obs_metrics.counter("store.corrupt").inc()
            self.backend.delete(key)
            return None

    def get_measurement(
        self, experiment, setup: ExperimentalSetup, *, with_text: bool = False
    ) -> Union[None, Measurement, Tuple[Measurement, str]]:
        """Return the stored measurement for ``setup``, or None (miss).

        With ``with_text`` a hit is ``(measurement, text)``: ``text`` is
        the entry's checksum-verified payload, the canonical JSON of the
        measurement's record, which the sweep journal embeds verbatim
        instead of encoding the measurement again.
        """
        key = self.key_for(experiment, setup)
        payload = self._get(key)
        if payload is not None:
            try:
                text = payload.decode()
                m = load_measurement_record(json.loads(text), path=key)
            except (ArchiveCorruption, UnicodeDecodeError, ValueError):
                self.corrupt += 1
                obs_metrics.counter("store.corrupt").inc()
                self.backend.delete(key)
            else:
                self.hits += 1
                obs_metrics.counter("store.hits").inc()
                obs_metrics.counter("store.bytes_read").inc(len(payload))
                return (m, text) if with_text else m
        self.misses += 1
        obs_metrics.counter("store.misses").inc()
        return None

    def _put(self, key: str, payload: bytes) -> bool:
        """Backend write with the sick-disk policy applied: the first
        ``OSError`` (ENOSPC above all) disables writes for this store
        instance and reads as "not written", never as a failed
        measurement — the store is an accelerator, not a dependency."""
        if self.write_disabled:
            obs_metrics.counter("store.puts_skipped").inc()
            return False
        try:
            return self.backend.put(key, payload)
        except OSError as exc:
            name = (
                errno.errorcode.get(exc.errno, "OSError")
                if exc.errno
                else type(exc).__name__
            )
            self.write_disabled = True
            self.disabled_reason = f"{name}: {exc}"
            obs_metrics.counter("store.write_errors").inc()
            obs_metrics.counter("store.write_disabled").inc()
            return False

    def put_measurement(self, experiment, m: Measurement) -> bool:
        """Store a measurement; True when a new entry was written."""
        key = self.key_for(experiment, m.setup)
        payload = canonical_json(measurement_to_dict(m)).encode()
        written = self._put(key, payload)
        if written:
            self.puts += 1
            obs_metrics.counter("store.puts").inc()
            obs_metrics.counter("store.bytes_written").inc(len(payload))
        return written

    # -- artifacts ---------------------------------------------------------

    def get_artifact(
        self, experiment, setup: ExperimentalSetup
    ) -> Optional[Executable]:
        """Return the stored executable for ``setup``'s build key, or
        None — unpickling failures count as corruption, not errors."""
        key = self.artifact_key_for(experiment, setup)
        payload = self._get(key)
        if payload is not None:
            try:
                exe = _restricted_loads(payload)
            except Exception:
                self.corrupt += 1
                obs_metrics.counter("store.corrupt").inc()
                self.backend.delete(key)
            else:
                if isinstance(exe, Executable):
                    self.artifact_hits += 1
                    obs_metrics.counter("store.artifact_hits").inc()
                    obs_metrics.counter("store.bytes_read").inc(len(payload))
                    return exe
                self.corrupt += 1
                obs_metrics.counter("store.corrupt").inc()
                self.backend.delete(key)
        self.artifact_misses += 1
        obs_metrics.counter("store.artifact_misses").inc()
        return None

    def put_artifact(
        self, experiment, setup: ExperimentalSetup, exe: Executable
    ) -> bool:
        """Store a compiled executable; True when newly written."""
        key = self.artifact_key_for(experiment, setup)
        payload = pickle.dumps(exe, protocol=4)
        written = self._put(key, payload)
        if written:
            self.puts += 1
            obs_metrics.counter("store.puts").inc()
            obs_metrics.counter("store.bytes_written").inc(len(payload))
        return written

    # -- operations --------------------------------------------------------

    def stats(self) -> Dict:
        """Entry counts, footprint, and scheme — `repro store stats`."""
        keys = self.backend.keys()
        return {
            "scheme": KEY_SCHEME,
            "engine": self.engine,
            "entries": len(keys),
            "measurements": sum(
                1 for k in keys if k.startswith(MEASUREMENT_PREFIX)
            ),
            "artifacts": sum(1 for k in keys if k.startswith(ARTIFACT_PREFIX)),
            "bytes": self.backend.size_bytes(),
        }

    def verify(self) -> Tuple[int, List[str]]:
        """Deep audit of every entry; ``(ok_count, corrupt_keys)``.

        Goes beyond the backend's payload-checksum pass: a measurement
        entry must decode into a valid v2 record and an artifact entry
        must unpickle (under the restricted loader) into an
        :class:`Executable` — so a checksum-intact entry holding garbage
        content, or a key outside the store's scheme, is flagged too.
        Read-only: nothing is deleted (``repro fsck --repair`` purges).
        """
        ok = 0
        corrupt: List[str] = []
        for key in self.backend.keys():
            try:
                payload = self.backend.get(key)
            except StoreEntryCorrupt:
                corrupt.append(key)
                continue
            if payload is None:
                continue  # deleted underneath the audit
            if key.startswith(MEASUREMENT_PREFIX):
                try:
                    data = json.loads(payload.decode())
                    load_measurement_record(data, path=key)
                except (ArchiveCorruption, UnicodeDecodeError, ValueError):
                    corrupt.append(key)
                    continue
            elif key.startswith(ARTIFACT_PREFIX):
                try:
                    valid = isinstance(_restricted_loads(payload), Executable)
                except Exception:  # noqa: BLE001 — any unpickle failure
                    valid = False
                if not valid:
                    corrupt.append(key)
                    continue
            else:
                # Not part of the store's key scheme at all: flag it —
                # an unaudited blob in a shared store dir is exactly the
                # kind of quiet rot fsck exists to surface.
                corrupt.append(key)
                continue
            ok += 1
        return ok, sorted(corrupt)

    def gc(self, max_bytes: int) -> Tuple[int, int]:
        """LRU-evict down to ``max_bytes``; ``(evicted, bytes_freed)``."""
        return self.backend.gc(max_bytes)

    def export(self, path: str, note: str = "") -> int:
        """Write every stored measurement to a v2 archive at ``path``.

        Returns the number of measurements exported.  Entries are sorted
        by their record's canonical JSON so the archive is deterministic
        regardless of insertion or LRU order; corrupt entries are
        skipped (and counted) rather than poisoning the export.
        """
        records: List[Tuple[str, Measurement]] = []
        for key in self.backend.keys():
            if not key.startswith(MEASUREMENT_PREFIX):
                continue
            payload = self._get(key)
            if payload is None:
                continue
            try:
                data = json.loads(payload.decode())
                m = load_measurement_record(data, path=key)
            except (ArchiveCorruption, UnicodeDecodeError, ValueError):
                self.corrupt += 1
                obs_metrics.counter("store.corrupt").inc()
                continue
            records.append((canonical_json(measurement_to_dict(m)), m))
        records.sort(key=lambda pair: pair[0])
        save_measurements(
            path,
            [m for _canon, m in records],
            note=note or f"exported from store ({KEY_SCHEME})",
        )
        return len(records)

    def provenance(self) -> Dict:
        """The manifest's ``store`` section: scheme + this run's tallies."""
        return {
            "scheme": KEY_SCHEME,
            "engine": self.engine,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "artifact_hits": self.artifact_hits,
            "artifact_misses": self.artifact_misses,
            "write_disabled": self.write_disabled,
        }

    def summary(self) -> str:
        """One greppable line for stderr: ``store: hits=… misses=…``."""
        line = (
            f"store: hits={self.hits} misses={self.misses} "
            f"puts={self.puts} corrupt={self.corrupt} "
            f"artifact_hits={self.artifact_hits}"
        )
        if self.write_disabled:
            line += f" (writes disabled: {self.disabled_reason})"
        return line

    def __repr__(self) -> str:
        backend = type(self.backend).__name__
        return f"MeasurementStore({backend}, {self.hits} hits, {self.misses} misses)"


#: The only globals an artifact pickle may reference: the two classes a
#: pickled Executable is actually composed of (its operand arrays and
#: maps are plain ints/strs/lists/dicts, which pickle encodes as
#: opcodes, not globals).  An *allowlist of concrete classes* — not a
#: module-prefix check — because any loadable callable (``builtins.eval``,
#: ``os.system`` reachable through a permissive prefix) would hand a
#: hand-crafted entry in a shared store directory arbitrary code
#: execution via pickle's REDUCE opcode.
_ALLOWED_GLOBALS = {
    ("repro.isa.program", "Executable"),
    ("repro.isa.program", "PlacedFunction"),
}


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler limited to :data:`_ALLOWED_GLOBALS` — a hand-crafted
    artifact entry cannot smuggle in arbitrary callables (no builtins,
    no ``repro.*`` outside the Executable's own classes) the way a bare
    ``pickle.loads`` would allow."""

    def find_class(self, module: str, name: str):  # noqa: D102
        if (module, name) in _ALLOWED_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"artifact entry references forbidden global {module}.{name}"
        )


def _restricted_loads(payload: bytes):
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


def open_store(path: Optional[str]) -> MeasurementStore:
    """Build a store: disk-backed at ``path``, in-memory when None."""
    if path:
        return MeasurementStore(DiskBackend(path))
    return MeasurementStore(MemoryBackend())
