"""Experiments: measure a workload under explicit setups.

An :class:`Experiment` fixes a (workload, input) pair and measures it
under any number of :class:`~repro.core.setup.ExperimentalSetup`\\ s.
Every run is **self-checking** — the simulated exit value is compared
against the workload's Python reference — so a miscompilation can never
masquerade as a performance result.

Builds and measurements are memoized: sweeping 100 environment sizes
compiles twice (O2 and O3), not 200 times.  Link order and function
alignment are link-time choices, so sweeping every link order compiles
twice too: each (compiler, opt level) is compiled once per experiment
and only relinked per layout.  Relinks share compiled block code
through the experiment's :class:`~repro.arch.blockcache.CodePool`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro import faults
from repro._errors import BuildError, SimulationError, VerificationError
from repro.arch import blockcache
from repro.arch.counters import PerfCounters, RunResult
from repro.arch.engine import execute, fastpath_enabled
from repro.core.setup import ExperimentalSetup
from repro.isa.program import Executable, Module
from repro.obs import metrics as obs_metrics
from repro.obs import perf as obs_perf
from repro.obs import trace as obs_trace
from repro.os.loader import load_process
from repro.toolchain.compiler import compile_program
from repro.toolchain.errors import ToolchainError
from repro.toolchain.linker import LinkLayout, link
from repro.workloads.base import Workload


@dataclass(frozen=True)
class Measurement:
    """One measured run."""

    workload: str
    size: str
    seed: int
    setup: ExperimentalSetup
    counters: PerfCounters
    exit_value: int
    function_cycles: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def cycles(self) -> float:
        """The headline quantity every experiment compares."""
        return self.counters.cycles

    def __repr__(self) -> str:
        return (
            f"Measurement({self.workload}/{self.size} @ {self.setup.describe()}: "
            f"{self.cycles:.0f} cycles)"
        )


class Experiment:
    """Measurement harness for one (workload, input) pair.

    Args:
        workload: the benchmark to measure.
        size: input class ("test", "train", "ref").
        seed: input generator seed.
        verify: check every run against the Python reference (default on;
            disable only in throughput-critical sweeps where the same
            binary/input pair was verified before).
    """

    def __init__(
        self,
        workload: Workload,
        size: str = "test",
        seed: int = 0,
        verify: bool = True,
    ) -> None:
        self.workload = workload
        self.size = size
        self.seed = seed
        self.verify = verify
        self._bindings = workload.input_for(size, seed)
        self._expected: Optional[int] = None
        self._build_cache: Dict[tuple, Executable] = {}
        self._run_cache: Dict[ExperimentalSetup, Measurement] = {}
        #: Compiled modules per (compiler, opt level); relinks reuse them.
        self._modules: Dict[Tuple[str, int], List[Module]] = {}
        #: Block code shared by this experiment's executables.
        self._code_pool = blockcache.CodePool()
        #: Optional content-addressed store (see :meth:`attach_store`).
        self._store = None

    def attach_store(self, store) -> None:
        """Back the build cache with a content-addressed store.

        ``store`` is a :class:`repro.store.MeasurementStore` (typed
        loosely to keep this module store-agnostic).  Once attached,
        :meth:`build` probes the store before compiling and publishes
        fresh executables to it, so a new process — or a new machine
        sharing the store directory — skips compilation for any build
        key some earlier run already paid for.  Measurement-level
        probing stays in the sweep runner; the experiment only ever
        sees the artifact side.
        """
        self._store = store

    @property
    def expected(self) -> int:
        """Reference exit value (computed lazily, once)."""
        if self._expected is None:
            self._expected = self.workload.expected(self._bindings)
        return self._expected

    # -- building ---------------------------------------------------------

    def _fault_key(self, setup: ExperimentalSetup) -> str:
        return faults.fault_key(self.workload.name, self.size, self.seed, setup)

    def build(self, setup: ExperimentalSetup) -> Executable:
        """Compile and link the workload for ``setup`` (memoized).

        Raises :class:`~repro.core.errors.BuildError` when the toolchain
        fails (retryable when the failure is crash-style, e.g. an
        injected internal compiler error).
        """
        if faults.should_inject("build", self._fault_key(setup)):
            raise BuildError(
                f"internal compiler error (injected) building "
                f"{self.workload.name} at {setup.describe()}",
                retryable=True,
            )
        key = setup.build_key()
        exe = self._build_cache.get(key)
        if exe is None and self._store is not None:
            exe = self._store.get_artifact(self, setup)
            if exe is not None:
                self._build_cache[key] = exe
        if exe is None:
            try:
                modules = self._compiled(setup)
                layout = LinkLayout(function_alignment=setup.function_alignment)
                with obs_trace.span(
                    "link", category="toolchain", modules=len(modules)
                ):
                    exe = link(modules, order=setup.link_order, layout=layout)
            except ToolchainError as exc:
                raise BuildError(
                    f"{self.workload.name} at {setup.describe()}: {exc}",
                    context={"workload": self.workload.name},
                ) from exc
            self._build_cache[key] = exe
            obs_metrics.counter("experiment.builds").inc()
            if self._store is not None:
                self._store.put_artifact(self, setup, exe)
        else:
            obs_metrics.counter("experiment.build_cache_hits").inc()
        if fastpath_enabled():
            # Pre-compile the engine's block table at build time so the
            # one-time decode-cache cost never lands inside a measured
            # run (idempotent: a warm cache returns immediately).
            with obs_trace.span(
                "blockcache-warm",
                category="toolchain",
                workload=self.workload.name,
            ):
                blockcache.warm(exe, setup.machine_config(), self._code_pool)
        return exe

    def _compiled(self, setup: ExperimentalSetup) -> List[Module]:
        """The workload's modules for ``setup``'s compiler and opt level.

        Compiled once per experiment: link order and function alignment
        do not reach the compiler, and :func:`link` copies every
        instruction it places, so relinks never alter these modules.
        """
        key = (setup.compiler, setup.opt_level)
        modules = self._modules.get(key)
        if modules is None:
            with obs_trace.span(
                "compile",
                category="toolchain",
                workload=self.workload.name,
                setup=setup.describe(),
            ):
                modules = compile_program(
                    dict(self.workload.sources),
                    opt_level=setup.opt_level,
                    profile=setup.compiler,
                )
            self._modules[key] = modules
        return modules

    # -- running ----------------------------------------------------------

    def run(
        self,
        setup: ExperimentalSetup,
        profile_functions: bool = False,
        max_cycles: Optional[float] = None,
    ) -> Measurement:
        """Measure the workload under ``setup`` (memoized per setup).

        ``max_cycles`` arms the engine's cycle-budget watchdog (used by
        the sweep runner against hung runs); a blown budget raises
        :class:`~repro.core.errors.RunTimeout`.  Raises
        :class:`VerificationError` if the run's exit value differs from
        the Python reference.
        """
        if not profile_functions:
            cached = self._run_cache.get(setup)
            if cached is not None:
                obs_metrics.counter("experiment.run_cache_hits").inc()
                return cached
        fkey = self._fault_key(setup)
        exe = self.build(setup)
        image = load_process(
            exe,
            environment=setup.environment(),
            inputs=self._bindings,
            stack_align=setup.stack_align,
        )
        budget = max_cycles
        if faults.should_inject("hang", fkey):
            budget = faults.HANG_CYCLE_BUDGET
        with obs_trace.span(
            "run",
            category="engine",
            workload=self.workload.name,
            size=self.size,
            setup=setup.describe(),
        ) as run_span:
            wall_start = time.perf_counter()
            result: RunResult = execute(
                image,
                setup.machine_config().build(),
                profile_functions=profile_functions,
                max_cycles=budget,
                engine_profile=obs_perf.engine_profile(),
            )
            wall = time.perf_counter() - wall_start
            run_span.set(
                cycles=result.counters.cycles,
                instructions=result.counters.instructions,
            )
        reg = obs_metrics.registry()
        reg.counter("engine.runs").inc()
        reg.counter("engine.instructions").inc(result.counters.instructions)
        reg.counter("engine.simulated_cycles").inc(result.counters.cycles)
        reg.histogram("engine.run_seconds").observe(wall)
        if wall > 0:
            # Retirement rate of the most recent run: the headline
            # throughput figure for "how fast is the lab itself?".
            reg.gauge("engine.ips").set(
                round(result.counters.instructions / wall)
            )
        if faults.should_inject("counters", fkey):
            result.counters.cycles = -result.counters.cycles
        if not (
            result.counters.cycles > 0
            and result.counters.instructions > 0
            and result.counters.cycles != float("inf")
        ):
            raise SimulationError(
                f"{self.workload.name}/{self.size} under {setup.describe()}: "
                f"implausible counters (cycles={result.counters.cycles}) — "
                "corrupted measurement",
                retryable=True,
            )
        exit_value = result.exit_value
        if faults.should_inject("verify", fkey):
            exit_value = exit_value + 1
        if self.verify:
            obs_metrics.counter("experiment.verifications").inc()
            if exit_value != self.expected:
                raise VerificationError(
                    f"{self.workload.name}/{self.size} under {setup.describe()}: "
                    f"exit {exit_value} != expected {self.expected}"
                )
        measurement = Measurement(
            workload=self.workload.name,
            size=self.size,
            seed=self.seed,
            setup=setup,
            counters=result.counters,
            exit_value=exit_value,
            function_cycles=result.function_cycles,
        )
        if not profile_functions:
            self._run_cache[setup] = measurement
        return measurement

    def profile(
        self,
        setup: ExperimentalSetup,
        functions: bool = True,
        pcs: bool = False,
        max_cycles: Optional[float] = None,
    ) -> RunResult:
        """Instrumented, *uncached* run returning the raw engine result.

        Enables per-function cycle attribution (``functions``) and the
        per-PC profile hook (``pcs``) — the inputs to
        :mod:`repro.analysis.profilediff`.  Profiling runs skip the
        measurement cache and the verification/fault machinery: they
        explain a measurement, they are not one.
        """
        exe = self.build(setup)
        image = load_process(
            exe,
            environment=setup.environment(),
            inputs=self._bindings,
            stack_align=setup.stack_align,
        )
        with obs_trace.span(
            "profile",
            category="engine",
            workload=self.workload.name,
            setup=setup.describe(),
            pcs=pcs,
        ):
            return execute(
                image,
                setup.machine_config().build(),
                profile_functions=functions,
                profile_pcs=pcs,
                max_cycles=max_cycles,
                engine_profile=obs_perf.engine_profile(),
            )

    def prime(self, measurements: Iterable[Measurement]) -> None:
        """Seed the run cache with externally produced measurements.

        Used by the sweep runner: measurements made in worker processes
        (or reloaded from a checkpoint journal) are primed here so that
        subsequent :meth:`run` calls for the same setups are cache hits
        — the serial analysis code never re-measures what a parallel
        sweep already measured.
        """
        for m in measurements:
            if m is not None:
                self._run_cache.setdefault(m.setup, m)

    def sweep(self, setups: Iterable[ExperimentalSetup]) -> List[Measurement]:
        """Measure under every setup, in order."""
        return [self.run(s) for s in setups]

    def speedup(
        self, base: ExperimentalSetup, treatment: ExperimentalSetup
    ) -> float:
        """cycles(base) / cycles(treatment): > 1 means treatment wins."""
        return self.run(base).cycles / self.run(treatment).cycles

    def speedups(
        self,
        pairs: Iterable[Tuple[ExperimentalSetup, ExperimentalSetup]],
    ) -> List[float]:
        """Speedups for many (base, treatment) pairs."""
        return [self.speedup(b, t) for b, t in pairs]

    def clear_caches(self) -> None:
        """Drop memoized builds, compiled modules, shared block code and
        runs (used by ablations that mutate global state between
        sweeps)."""
        self._build_cache.clear()
        self._run_cache.clear()
        self._modules.clear()
        self._code_pool = blockcache.CodePool()

    def clear_run_cache(self) -> None:
        """Drop memoized measurements but keep compiled executables
        (used to time fresh runs of an already-built binary)."""
        self._run_cache.clear()

    def __repr__(self) -> str:
        return f"Experiment({self.workload.name}, size={self.size!r}, seed={self.seed})"
