"""The store's canonical key scheme: what makes two runs "the same run".

The whole pipeline is deterministic — the same (program source,
toolchain profile, setup, machine model, seed, engine) always yields a
byte-identical measurement — so memoization is sound *exactly when the
key covers everything the result depends on*.  This module is that
contract, written down in one place:

- :func:`measurement_key` — identity of one measured run: the workload's
  minic sources, input class and seed, the verify flag, the complete
  :class:`~repro.core.setup.ExperimentalSetup` (machine model, compiler
  profile, opt level, link order, env bytes, alignments), and the
  engine fingerprint;
- :func:`artifact_key` — identity of one compiled-and-linked executable:
  the sources plus only the setup fields that reach the toolchain
  (:meth:`~repro.core.setup.ExperimentalSetup.build_key`);
- :func:`engine_fingerprint` — a SHA-256 over the source bytes of every
  module that can change a measured number (toolchain, ISA, OS model,
  machine models, workload definitions, the experiment harness).  Edit
  one line of the simulator and every cached entry silently becomes a
  miss — invalidation is structural, never manual.

Keys are versioned by :data:`KEY_SCHEME`; bumping it (e.g. because the
key gains a field) orphans old entries instead of misreading them.
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from typing import Mapping

from repro.core.session import canonical_json, compiler_to_data, setup_to_dict
from repro.core.setup import ExperimentalSetup

#: Key-scheme version, recorded in provenance manifests.  Bump whenever
#: the key payload changes shape; old entries then simply never match.
KEY_SCHEME = "repro-store-k1"

#: Key prefixes: the entry kind is part of the address, so measurement
#: and artifact namespaces can never collide.
MEASUREMENT_PREFIX = "meas-"
ARTIFACT_PREFIX = "art-"

#: Packages whose source bytes feed the engine fingerprint: everything
#: between a setup and a perf-counter value.
_ENGINE_PACKAGES = ("arch", "isa", "os", "toolchain", "workloads")

#: Single modules that also shape results (the measurement harness
#: itself, and the fault machinery it consults).
_ENGINE_MODULES = ("core/experiment.py", "core/setup.py", "faults.py")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=1)
def engine_fingerprint() -> str:
    """SHA-256 over the simulator's own source code.

    Walks the measurement-relevant modules under ``src/repro`` in sorted
    order and hashes ``(relative path, file bytes)`` pairs, so any edit
    to the toolchain, ISA, OS model, machine models, workloads, or the
    experiment harness yields a new fingerprint — and therefore a cold
    store.  Cached per process (the tree does not change mid-run).
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    paths = []
    for package in _ENGINE_PACKAGES:
        base = os.path.join(root, package)
        for dirpath, _dirnames, filenames in sorted(os.walk(base)):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    paths.append(os.path.join(dirpath, name))
    for rel in _ENGINE_MODULES:
        paths.append(os.path.join(root, *rel.split("/")))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        digest.update(b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def source_digest(sources: Mapping[str, str]) -> str:
    """SHA-256 over a workload's minic sources (module name + text)."""
    return _digest(
        canonical_json({name: sources[name] for name in sorted(sources)})
    )


def measurement_key(
    workload: str,
    sources: str,
    size: str,
    seed: int,
    verify: bool,
    setup: ExperimentalSetup,
    engine: str,
) -> str:
    """The content address of one measured run.

    Everything a :class:`~repro.core.experiment.Measurement` depends on
    is in the payload (``sources`` is the workload's
    :func:`source_digest`, which a caller computes once per workload);
    two runs share a key exactly when the pipeline guarantees them
    byte-identical results.  (Like the archive schema
    and :func:`~repro.core.runner.sweep_id`, the setup's identity is its
    :func:`~repro.core.session.setup_to_dict` form — a custom
    ``env_base`` is the one field outside it; see docs/store.md.)
    """
    payload = {
        "scheme": KEY_SCHEME,
        "kind": "measurement",
        "engine": engine,
        "workload": workload,
        "sources": sources,
        "size": size,
        "seed": seed,
        "verify": verify,
        "setup": setup_to_dict(setup),
    }
    return MEASUREMENT_PREFIX + _digest(canonical_json(payload))


def artifact_key(
    workload: str,
    sources: str,
    setup: ExperimentalSetup,
    engine: str,
) -> str:
    """The content address of one compiled-and-linked executable.

    ``sources`` is the workload's :func:`source_digest`.  Narrower than
    :func:`measurement_key` on purpose: only the setup
    fields that reach the toolchain participate, so one artifact serves
    every environment size and seed measured on top of it — the same
    sharing :meth:`ExperimentalSetup.build_key` gives the in-memory
    build cache, made durable.
    """
    compiler, opt_level, link_order, function_alignment = setup.build_key()
    payload = {
        "scheme": KEY_SCHEME,
        "kind": "artifact",
        "engine": engine,
        "workload": workload,
        "sources": sources,
        "build": {
            "compiler": compiler_to_data(compiler),
            "opt_level": opt_level,
            "link_order": list(link_order) if link_order else None,
            "function_alignment": function_alignment,
        },
    }
    return ARTIFACT_PREFIX + _digest(canonical_json(payload))
