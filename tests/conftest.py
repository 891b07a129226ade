"""Shared fixtures.

Compilation and simulation are the expensive operations, so fixtures that
build executables or run experiments are session-scoped and shared across
test modules.
"""

from __future__ import annotations

import pytest

from repro.arch import execute, get_machine
from repro.core import Experiment, ExperimentalSetup
from repro.core.stats import normal_cdf, t_cdf
from repro.os import Environment, load_process
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
