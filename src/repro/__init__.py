"""repro — a measurement-bias laboratory.

Reproduction of Mytkowicz, Diwan, Hauswirth & Sweeney, *"Producing Wrong
Data Without Doing Anything Obviously Wrong!"* (ASPLOS 2009).

The library bundles a complete simulated systems stack — a compiler and
linker for the minic language, a UNIX-style process loader, and
cycle-level machine models of Core 2 / Pentium 4 / m5-O3CPU-class
processors — plus the paper's actual contribution: tooling to *measure*,
*detect*, *explain* and *avoid* measurement bias in performance
experiments.

Quickstart::

    from repro import Experiment, ExperimentalSetup, workloads

    exp = Experiment(workloads.get("perlbench"), size="test")
    o2 = ExperimentalSetup(machine="core2", compiler="gcc", opt_level=2)
    o3 = o2.with_changes(opt_level=3)
    print(exp.speedup(o2, o3))   # is O3 beneficial ... in THIS setup?

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro import analysis, workloads
from repro.arch import (
    MachineConfig,
    PerfCounters,
    RunResult,
    available_machines,
    core2,
    get_machine,
    m5_o3cpu,
    pentium4,
)
from repro.core import (
    BiasReport,
    Experiment,
    ExperimentalSetup,
    Measurement,
    RandomizedEvaluation,
    StudyResult,
    VerificationError,
    detect_bias,
    env_size_study,
    evaluate_with_randomization,
    link_order_study,
)
from repro.os import Environment
from repro.stats import (
    ConfidenceInterval,
    SummaryStats,
    geometric_mean,
    t_confidence_interval,
)
from repro.toolchain import (
    GCC,
    ICC,
    CompilerProfile,
    LinkLayout,
    compile_program,
    compile_unit,
    link,
)

__version__ = "1.0.0"

__all__ = [
    "BiasReport",
    "CompilerProfile",
    "ConfidenceInterval",
    "Environment",
    "Experiment",
    "ExperimentalSetup",
    "GCC",
    "ICC",
    "LinkLayout",
    "MachineConfig",
    "Measurement",
    "PerfCounters",
    "RandomizedEvaluation",
    "RunResult",
    "StudyResult",
    "SummaryStats",
    "VerificationError",
    "analysis",
    "available_machines",
    "compile_program",
    "compile_unit",
    "core2",
    "detect_bias",
    "env_size_study",
    "evaluate_with_randomization",
    "geometric_mean",
    "get_machine",
    "link",
    "link_order_study",
    "m5_o3cpu",
    "pentium4",
    "t_confidence_interval",
    "workloads",
]
