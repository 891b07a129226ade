"""The paper's contribution: measurement-bias methodology.

- :mod:`~repro.core.setup` — experimental setups as first-class values,
- :mod:`~repro.core.experiment` — self-checking measurement harness,
- :mod:`~repro.core.bias` — bias metrics and the env-size / link-order
  study protocols,
- :mod:`~repro.core.randomization` — the paper's setup-randomization
  evaluation protocol,
- :mod:`~repro.core.errors` — the structured error taxonomy with its
  retryable/fatal classification,
- :mod:`~repro.core.runner` — fault-tolerant parallel sweep execution
  with retries, quarantine and resumable, compactable checkpoints,
- :mod:`~repro.core.supervisor` — the supervised worker pool behind
  parallel sweeps (heartbeats, crash/hang failover, respawn budget),
- :mod:`~repro.core.distributed` — multi-host sweeps: TCP sweep agents
  and the coordinator pool that dispatches to them (same supervision
  guarantees, same report bytes; see docs/distributed.md),
- :mod:`~repro.core.survey` — the 133-paper literature survey analysis,
- :mod:`~repro.core.report` — plain-text table/figure rendering.

The statistics these protocols report (intervals, summaries, violin
densities, rank tests) live in :mod:`repro.stats`.
"""

from repro.core.bias import (
    BiasReport,
    StudyResult,
    detect_bias,
    env_size_study,
    link_order_study,
    sample_link_orders,
    suite_bias_table,
)
from repro.core.errors import (
    ArchiveCorruption,
    BuildError,
    ReproError,
    RunTimeout,
    SimulationError,
    VerificationError,
    classify,
    is_retryable,
)
from repro.core.experiment import Experiment, Measurement
from repro.core.noise import (
    BiasVsNoiseResult,
    NoiseModel,
    RepeatedMeasurement,
    bias_vs_noise_demo,
    repeated_measurement,
)
from repro.core.randomization import (
    RandomizedEvaluation,
    evaluate_with_randomization,
    interval_vs_setup_count,
    paired_random_setups,
    random_setups,
)
from repro.core.runner import (
    CompactionStats,
    Journal,
    QuarantineEntry,
    RunnerConfig,
    SweepReport,
    SweepResult,
    SweepRunner,
    compact_journal,
    journal_needs_compaction,
)
from repro.core.setup import ExperimentalSetup

__all__ = [
    "ArchiveCorruption",
    "BiasReport",
    "BiasVsNoiseResult",
    "BuildError",
    "CompactionStats",
    "Journal",
    "QuarantineEntry",
    "ReproError",
    "RunTimeout",
    "RunnerConfig",
    "SimulationError",
    "SweepReport",
    "SweepResult",
    "SweepRunner",
    "classify",
    "compact_journal",
    "is_retryable",
    "journal_needs_compaction",
    "paired_random_setups",
    "NoiseModel",
    "RepeatedMeasurement",
    "bias_vs_noise_demo",
    "repeated_measurement",
    "Experiment",
    "ExperimentalSetup",
    "Measurement",
    "RandomizedEvaluation",
    "StudyResult",
    "VerificationError",
    "detect_bias",
    "env_size_study",
    "evaluate_with_randomization",
    "interval_vs_setup_count",
    "link_order_study",
    "random_setups",
    "sample_link_orders",
    "suite_bias_table",
]
