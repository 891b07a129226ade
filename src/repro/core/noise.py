"""Measurement noise, and why repetition cannot fix bias.

The paper distinguishes two failure modes of an experiment:

- **noise** — run-to-run variance in one setup (OS jitter, interrupts),
  which repetition + confidence intervals handle;
- **bias** — a systematic offset *shared by every run in the setup*,
  which repetition makes *worse*: more runs produce a tighter interval
  around the wrong value.

The simulator is deterministic, so noise is modelled explicitly: a
deterministic pseudo-random multiplicative jitter applied per repetition.
:func:`repeated_measurement` produces the classic single-setup evaluation
(n repetitions, t-interval); :func:`bias_vs_noise_demo` runs it in
several setups and shows the intervals exclude each other — the paper's
argument that per-setup intervals measure precision, not accuracy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.experiment import Experiment
from repro.core.setup import ExperimentalSetup
from repro.stats import ConfidenceInterval, t_confidence_interval
from repro.workloads.base import lcg_stream


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative measurement jitter.

    ``magnitude`` is the maximum relative perturbation (e.g. 0.01 = ±1%,
    a typical quiet-machine run-to-run spread).  Jitter is deterministic
    given ``seed`` — experiments remain reproducible.
    """

    magnitude: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.magnitude < 1.0:
            raise ValueError("noise magnitude must be in [0, 1)")

    def jitter(self, true_value: float, repetition: int, setup_tag: int) -> float:
        """The observed value for one repetition."""
        if self.magnitude == 0.0:
            return true_value
        rng = lcg_stream(self.seed * 1_000_003 + setup_tag * 97 + repetition)
        unit = (rng() % 2_000_001 - 1_000_000) / 1_000_000  # [-1, 1]
        return true_value * (1.0 + self.magnitude * unit)


def _setup_tag(setup: ExperimentalSetup) -> int:
    """Stable per-setup jitter-stream tag.

    Must not use ``hash()``: string hashing is randomized per process,
    which would make the "deterministic" noise differ between runs.
    """
    text = (
        f"{setup.describe()}|sa{setup.stack_align}"
        f"|fa{setup.function_alignment}"
    )
    return zlib.crc32(text.encode("utf-8")) & 0xFFFF


@dataclass(frozen=True)
class RepeatedMeasurement:
    """n noisy repetitions of one setup, summarized the usual way."""

    setup: ExperimentalSetup
    observations: Tuple[float, ...]
    interval: ConfidenceInterval

    @property
    def mean(self) -> float:
        return self.interval.mean


def repeated_measurement(
    experiment: Experiment,
    setup: ExperimentalSetup,
    repetitions: int = 10,
    noise: NoiseModel = NoiseModel(),
) -> RepeatedMeasurement:
    """The conventional protocol: repeat, report mean ± t-interval.

    All repetitions share the setup's (deterministic) true cycle count;
    only the modelled noise varies.  That is exactly the situation on
    real hardware where the biased layout is frozen for the whole
    session.
    """
    if repetitions < 2:
        raise ValueError("need at least 2 repetitions")
    true_cycles = experiment.run(setup).cycles
    setup_tag = _setup_tag(setup)
    observations = tuple(
        noise.jitter(true_cycles, rep, setup_tag)
        for rep in range(repetitions)
    )
    return RepeatedMeasurement(
        setup=setup,
        observations=observations,
        interval=t_confidence_interval(list(observations)),
    )


@dataclass(frozen=True)
class BiasVsNoiseResult:
    """Per-setup repeated measurements of the same program."""

    measurements: Tuple[RepeatedMeasurement, ...]

    @property
    def disjoint_pairs(self) -> int:
        """Setup pairs whose confidence intervals do not overlap — each
        one is a statistically 'confident' contradiction."""
        count = 0
        ms = self.measurements
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                a, b = ms[i].interval, ms[j].interval
                if a.hi < b.lo or b.hi < a.lo:
                    count += 1
        return count

    @property
    def repetition_misleads(self) -> bool:
        """True when at least one pair of setups produces confidently
        different answers for the same program — the paper's point that
        within-setup statistics cannot detect bias."""
        return self.disjoint_pairs > 0


def bias_vs_noise_demo(
    experiment: Experiment,
    setups: Sequence[ExperimentalSetup],
    repetitions: int = 10,
    noise: NoiseModel = NoiseModel(),
) -> BiasVsNoiseResult:
    """Repeat-measure the same program under several setups.

    When the setup-induced bias exceeds the noise, the per-setup
    intervals are disjoint: every experimenter is *sure*, and they
    disagree.
    """
    if len(setups) < 2:
        raise ValueError("need at least 2 setups to contrast")
    measurements: List[RepeatedMeasurement] = [
        repeated_measurement(experiment, s, repetitions, noise) for s in setups
    ]
    return BiasVsNoiseResult(measurements=tuple(measurements))
