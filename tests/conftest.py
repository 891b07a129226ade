"""Shared fixtures.

Compilation and simulation are the expensive operations, so fixtures that
build executables or run experiments are session-scoped and shared across
test modules.
"""

from __future__ import annotations

import importlib.util
import math
import os
from typing import Dict, Sequence

import pytest

from repro.arch import execute, get_machine
from repro.core import Experiment, ExperimentalSetup
from repro.os import Environment, load_process
from repro.core.errors import StatsError
from repro.stats import SummaryStats, normal_cdf, normal_ppf, t_cdf, t_ppf
from repro.stats.samplesize import MAX_PROJECTED_N, SampleSizeEstimate
from repro.toolchain import compile_program, compile_unit, link
from repro import workloads

#: A small but representative two-module program used across toolchain
#: and engine tests: loops, calls, globals, a local array, branches.
SMALL_SOURCES = {
    "kernel": """
int table[128];

func fill(n) {
    var i;
    for (i = 0; i < n; i = i + 1) {
        table[i] = i * 3 + 1;
    }
    return 0;
}

func total(n) {
    var i; var s; var buf[8];
    for (i = 0; i < 8; i = i + 1) { buf[i] = i; }
    s = 0;
    for (i = 0; i < n; i = i + 1) {
        s = s + table[i] + buf[i & 7];
    }
    return s;
}
""",
    "main": """
int table[128];

func main() {
    fill(96);
    return total(96);
}
""",
}

SMALL_EXPECTED = sum(i * 3 + 1 for i in range(96)) + sum(i & 7 for i in range(96))


def build_small(opt_level: int = 2, profile: str = "gcc", order=None):
    """Compile+link the shared small program."""
    modules = compile_program(SMALL_SOURCES, opt_level=opt_level, profile=profile)
    return link(modules, order=order)


def run_exe(exe, env=None, inputs=None, machine="core2", stack_align=4):
    """Load and execute an executable on a fresh machine."""
    image = load_process(
        exe,
        environment=env if env is not None else Environment.typical(),
        inputs=inputs,
        stack_align=stack_align,
    )
    return execute(image, get_machine(machine).build())


@pytest.fixture(scope="session")
def small_exe_o2():
    return build_small(2)


@pytest.fixture(scope="session")
def small_exe_o0():
    return build_small(0)


#: Session-wide compiled-workload cache: one Experiment (and therefore
#: one set of memoized builds/runs) per (workload, size, seed), shared
#: across every test module that asks for it.
_EXPERIMENT_CACHE = {}


def shared_experiment(name: str, size: str = "test", seed: int = 0):
    """Session-cached experiment handle for ``name``.

    Compilation dominates test wall-clock; sharing one Experiment per
    (workload, size, seed) means each binary is built once per pytest
    session, not once per test module.  Only use it for tests that do
    not mutate the experiment's caches.
    """
    key = (name, size, seed)
    exp = _EXPERIMENT_CACHE.get(key)
    if exp is None:
        exp = Experiment(workloads.get(name), size=size, seed=seed)
        _EXPERIMENT_CACHE[key] = exp
    return exp


@pytest.fixture(scope="session")
def workload_experiments():
    """Fixture face of :func:`shared_experiment` — a callable
    ``(name, size="test", seed=0) -> Experiment`` backed by the
    session-wide compiled-workload cache."""
    return shared_experiment


@pytest.fixture(scope="session")
def perlbench_experiment():
    """Session-shared perlbench experiment (builds are memoized on it)."""
    return shared_experiment("perlbench")


@pytest.fixture(scope="session")
def base_setup():
    return ExperimentalSetup(machine="core2", compiler="gcc", opt_level=2)


def compile_single(source: str, opt_level: int = 2, profile: str = "gcc"):
    """Compile a single-module program and return the executable."""
    return link([compile_unit(source, "m", opt_level=opt_level, profile=profile)])


def run_main(source: str, opt_level: int = 2, profile: str = "gcc", inputs=None):
    """Compile and run a single-module program; returns the exit value."""
    return run_exe(
        compile_single(source, opt_level, profile), inputs=inputs
    ).exit_value


def example_treatment() -> ExperimentalSetup:
    """The treatment setup of examples/evaluate_new_optimization.py: gcc
    O3 with the example's custom ``CompilerProfile``."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "examples",
        "evaluate_new_optimization.py",
    )
    spec = importlib.util.spec_from_file_location("evaluate_new_optimization", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    return ExperimentalSetup(compiler="gcc", opt_level=3).with_changes(
        compiler=example.AGGRESSIVE
    )


def reference_normal_ppf(p: float) -> float:
    """``normal_ppf`` as a fixed 200-halving bisection: the reference its
    early-stopping kernel must match bit for bit."""
    lo, hi = -40.0, 40.0
    for __ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_t_ppf(p: float, df: float) -> float:
    """``t_ppf`` as a fixed 400-halving bisection: the reference its
    early-stopping kernel must match bit for bit."""
    lo, hi = -1e6, 1e6
    for __ in range(400):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_lcg_stream(seed: int):
    """The suite's LCG as one state step per call: the recurrence that
    ``lcg_values``' 256-lane rounds must reproduce value for value."""
    mask = (1 << 63) - 1
    state = (seed * 2862933555777941757 + 3037000493) & mask

    def next_value() -> int:
        nonlocal state
        state = (state * 3202034522624059733 + 4354685564936845319) & mask
        return state >> 16

    return next_value


def reference_bootstrap_estimates(values, stat, n_resamples: int, seed: int):
    """``_bootstrap_estimates`` as a per-draw loop over
    :func:`reference_lcg_stream`: the reference its bulk reads must
    match bit for bit."""
    rng = reference_lcg_stream(seed + 7919)
    n = len(values)
    estimates = []
    for __ in range(n_resamples):
        sample = [values[rng() % n] for __ in range(n)]
        estimates.append(stat(sample))
    estimates.sort()
    return estimates


def reference_required_setups(
    speedups: Sequence[float],
    level: float = 0.95,
    target_rel_width: float = 0.01,
) -> SampleSizeEstimate:
    """``required_setups`` with every t quantile bisected: the reference
    its bracket decisions must match bit for bit (the function before
    the projection read certified brackets, verbatim)."""
    if len(speedups) < 2:
        raise StatsError(
            "sample-size estimation needs at least 2 observed setups, "
            f"got {len(speedups)}"
        )
    if not 0.0 < level < 1.0:
        raise StatsError(f"level must be in (0, 1), got {level}")
    if target_rel_width <= 0.0:
        raise StatsError(
            f"target relative width must be positive, got {target_rel_width}"
        )
    stats = SummaryStats.from_values(speedups)
    if stats.mean == 0.0:
        raise StatsError(
            "relative interval width is undefined for a zero-mean sample"
        )
    n = stats.n
    if stats.std == 0.0:
        return SampleSizeEstimate(
            n_observed=n,
            half_width=0.0,
            rel_half_width=0.0,
            target_rel_width=target_rel_width,
            level=level,
            recommended_n=n,
            converged=True,
        )
    q = 0.5 + level / 2.0
    # t_{m-1} at each size m, computed at most once per call: the
    # half-width, the fixed point and the final scan share these values.
    crit: Dict[int, float] = {}

    def t_crit(m: int) -> float:
        if m not in crit:
            crit[m] = t_ppf(q, m - 1)
        return crit[m]

    half = t_crit(n) * stats.std / math.sqrt(n)
    rel = half / abs(stats.mean)
    target_half = target_rel_width * abs(stats.mean)
    recommended = n
    if half > target_half:
        # Solve t_{m-1} * s / sqrt(m) <= target by fixed point: seed with
        # the normal-quantile solution (a lower bound, since t_crit >= z)
        # and re-solve with the t quantile at the current guess until it
        # stabilizes — a handful of t_ppf calls instead of one per
        # candidate m.
        z = normal_ppf(q)
        m = max(n + 1, int(math.ceil((z * stats.std / target_half) ** 2)))
        for __ in range(16):
            if m >= MAX_PROJECTED_N:
                m = MAX_PROJECTED_N
                break
            needed = max(
                n + 1,
                int(math.ceil((t_crit(m) * stats.std / target_half) ** 2)),
            )
            if needed <= m:
                break
            m = needed
        while (
            m < MAX_PROJECTED_N
            and t_crit(m) * stats.std / math.sqrt(m) > target_half
        ):
            m += 1
        recommended = m
    return SampleSizeEstimate(
        n_observed=n,
        half_width=half,
        rel_half_width=rel,
        target_rel_width=target_rel_width,
        level=level,
        recommended_n=recommended,
        converged=half <= target_half,
    )
