"""Experimental setup randomization — the paper's prescription.

Section "Avoiding measurement bias" of the paper evaluates *setup
randomization*: instead of measuring one (arbitrary, possibly biased)
setup, sample many random setups — random link order, random environment
size — and report the mean outcome with a confidence interval.  A biased
single-setup experiment becomes one draw from the distribution this
protocol estimates.

:func:`evaluate_with_randomization` is the library's implementation;
:class:`RandomizedEvaluation` carries the estimate, its interval, and the
honest answer to "is the treatment beneficial?": yes / no / *can't tell*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.experiment import Experiment
from repro.core.setup import ExperimentalSetup
from repro.stats import ConfidenceInterval, t_confidence_interval
from repro.workloads.base import lcg_stream


@dataclass(frozen=True)
class RandomizedEvaluation:
    """Result of a randomized-setup evaluation of base vs treatment."""

    speedups: Tuple[float, ...]
    interval: ConfidenceInterval
    setups: Tuple[ExperimentalSetup, ...]

    @property
    def mean(self) -> float:
        return self.interval.mean

    @property
    def conclusive(self) -> bool:
        """True when the CI excludes 1.0 — the data supports a verdict."""
        return not self.interval.contains(1.0)

    @property
    def verdict(self) -> str:
        """"beneficial", "harmful", or "inconclusive"."""
        if not self.conclusive:
            return "inconclusive"
        return "beneficial" if self.interval.lo > 1.0 else "harmful"

    def summary_line(self) -> str:
        return (
            f"speedup {self.mean:.4f} {self.interval} over "
            f"{len(self.speedups)} random setups -> {self.verdict}"
        )

    @property
    def distinct_setups(self) -> int:
        """Number of *different* setups behind the sample.  Equal to
        ``len(speedups)`` for a clean randomized run; smaller when runs
        were replicated under a shared setup (pseudoreplication — see
        the ``repro audit`` crime taxonomy)."""
        return len(set(self.setups))

    def analysis(
        self, target_rel_width: float = 0.01, seed: int = 0
    ):
        """Full inference work-up of this evaluation's speedup sample.

        Returns a :class:`repro.stats.SpeedupAnalysis` — nonparametric
        test, BCa interval, effect size, and the sequential sample-size
        recommendation — built from the already-measured speedups (no
        re-measurement) and this evaluation's t interval.  Raises
        :class:`~repro.core.errors.StatsError` on degenerate samples,
        like the interval constructors.
        """
        from repro.stats.speedup import analyze_speedups

        return analyze_speedups(
            self.speedups,
            distinct_setups=self.distinct_setups,
            level=self.interval.level,
            target_rel_width=target_rel_width,
            seed=seed,
            t_interval=self.interval,
        )


#: Parameters :func:`random_setups` knows how to randomize.  The paper's
#: protocol uses the first two; the rest are library extensions for
#: studies that also want loader/linker policies in the sampled space.
DIMENSIONS = ("link_order", "env_bytes", "stack_align", "function_alignment")

_STACK_ALIGN_CHOICES = (4, 8, 16)
_FUNCTION_ALIGN_CHOICES = (1, 4, 16, 64)


def random_setups(
    base: ExperimentalSetup,
    modules: Sequence[str],
    n: int,
    seed: int = 0,
    env_range: Tuple[int, int] = (100, 4096),
    dimensions: Sequence[str] = ("link_order", "env_bytes"),
) -> List[ExperimentalSetup]:
    """Sample ``n`` randomized variants of ``base``.

    By default randomizes exactly the two parameters the paper shows to
    be biased: the link order (uniform permutation) and the environment
    size (uniform in ``env_range``).  ``dimensions`` may add
    ``"stack_align"`` and ``"function_alignment"`` for studies that also
    randomize loader/linker policy.  Everything the experimenter
    *intends* to hold fixed (machine, compiler, O-level) is preserved.
    """
    unknown = set(dimensions) - set(DIMENSIONS)
    if unknown:
        raise ValueError(f"unknown randomization dimensions: {sorted(unknown)}")
    rng = lcg_stream(seed + 211)
    lo, hi = env_range
    if hi <= lo:
        raise ValueError(f"bad env_range {env_range}")
    out: List[ExperimentalSetup] = []
    for __ in range(n):
        changes = {}
        if "link_order" in dimensions:
            perm = list(modules)
            for i in range(len(perm) - 1, 0, -1):
                j = rng() % (i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            changes["link_order"] = tuple(perm)
        if "env_bytes" in dimensions:
            changes["env_bytes"] = lo + rng() % (hi - lo)
        if "stack_align" in dimensions:
            changes["stack_align"] = _STACK_ALIGN_CHOICES[
                rng() % len(_STACK_ALIGN_CHOICES)
            ]
        if "function_alignment" in dimensions:
            changes["function_alignment"] = _FUNCTION_ALIGN_CHOICES[
                rng() % len(_FUNCTION_ALIGN_CHOICES)
            ]
        out.append(base.with_changes(**changes))
    return out


def _mirror_randomized_fields(
    treatment: ExperimentalSetup, setup: ExperimentalSetup
) -> ExperimentalSetup:
    """Apply a sampled setup's randomized parameters to the treatment so
    base and treatment are always measured under the *same* setup."""
    return treatment.with_changes(
        link_order=setup.link_order,
        env_bytes=setup.env_bytes,
        stack_align=setup.stack_align,
        function_alignment=setup.function_alignment,
    )


def paired_random_setups(
    experiment: Experiment,
    base: ExperimentalSetup,
    treatment: ExperimentalSetup,
    n_setups: int,
    seed: int = 0,
    env_range: Tuple[int, int] = (100, 4096),
    dimensions: Sequence[str] = ("link_order", "env_bytes"),
) -> List[Tuple[ExperimentalSetup, ExperimentalSetup]]:
    """The (base, treatment) setup pairs the randomized protocol will
    measure — exposed so callers (the CLI, the parallel sweep runner,
    the benchmark harness) can pre-measure them out of order and let
    :func:`evaluate_with_randomization` consume cache hits."""
    modules = experiment.workload.module_names()
    sampled = random_setups(
        base, modules, n_setups, seed=seed, env_range=env_range,
        dimensions=dimensions,
    )
    return [(s, _mirror_randomized_fields(treatment, s)) for s in sampled]


def evaluate_with_randomization(
    experiment: Experiment,
    base: ExperimentalSetup,
    treatment: ExperimentalSetup,
    n_setups: int = 20,
    seed: int = 0,
    level: float = 0.95,
    env_range: Tuple[int, int] = (100, 4096),
    dimensions: Sequence[str] = ("link_order", "env_bytes"),
    progress: Optional[Callable[[int, int], None]] = None,
) -> RandomizedEvaluation:
    """The paper's recommended protocol, end to end.

    For each of ``n_setups`` random setups, measure base and treatment
    under the *same* randomized setup and record the speedup; report the
    mean and its ``level`` Student-t confidence interval.

    ``dimensions`` selects what gets randomized (see
    :func:`random_setups`); ``progress`` is called as
    ``progress(done, total)``.
    """
    if n_setups < 2:
        raise ValueError("randomization needs at least 2 setups")
    pairs = paired_random_setups(
        experiment, base, treatment, n_setups, seed=seed,
        env_range=env_range, dimensions=dimensions,
    )
    speedups: List[float] = []
    for i, (setup, treat) in enumerate(pairs):
        speedups.append(
            experiment.run(setup).cycles / experiment.run(treat).cycles
        )
        if progress is not None:
            progress(i + 1, n_setups)
    interval = t_confidence_interval(speedups, level=level)
    return RandomizedEvaluation(
        speedups=tuple(speedups),
        interval=interval,
        setups=tuple(s for s, _ in pairs),
    )


def speedup_convergence(
    speedups: Sequence[float], level: float = 0.95
) -> List[Tuple[int, float]]:
    """Relative-half-width trajectory of a randomized run's speedup
    sample — the F8 convergence curve as plain data.

    ``(n, half_width / |mean|)`` for every prefix with n >= 2, computed
    sequentially as an experimenter adding setups would have seen it.
    Raises :class:`~repro.core.errors.StatsError` for samples shorter
    than 2 or out-of-range levels; all-identical prefixes contribute
    width 0.0 (already converged).
    """
    from repro.stats.samplesize import convergence_trajectory

    return convergence_trajectory(speedups, level=level)


def required_setup_count(
    speedups: Sequence[float],
    level: float = 0.95,
    target_rel_width: float = 0.01,
):
    """Project how many random setups this protocol needs in total.

    Delegates to :func:`repro.stats.required_setups`; returns its
    :class:`~repro.stats.SampleSizeEstimate` so the F8 report can print
    ``estimate.summary_line()`` next to the interval table.
    """
    from repro.stats.samplesize import required_setups

    return required_setups(
        speedups, level=level, target_rel_width=target_rel_width
    )


def interval_vs_setup_count(
    experiment: Experiment,
    base: ExperimentalSetup,
    treatment: ExperimentalSetup,
    counts: Sequence[int] = (4, 8, 12, 16, 24, 32),
    seed: int = 0,
    level: float = 0.95,
) -> List[Tuple[int, RandomizedEvaluation]]:
    """How the interval tightens as setups are added (Figure F8's x-axis).

    Prefixes of one sampled setup sequence, so the estimates are nested
    (as they would be for an experimenter adding runs).
    """
    max_n = max(counts)
    pairs = paired_random_setups(experiment, base, treatment, max_n, seed=seed)
    setups = [s for s, _ in pairs]
    speedups: List[float] = []
    for setup, treat in pairs:
        speedups.append(
            experiment.run(setup).cycles / experiment.run(treat).cycles
        )
    out: List[Tuple[int, RandomizedEvaluation]] = []
    for n in counts:
        if n < 2 or n > max_n:
            raise ValueError(f"count {n} out of range")
        out.append(
            (
                n,
                RandomizedEvaluation(
                    speedups=tuple(speedups[:n]),
                    interval=t_confidence_interval(speedups[:n], level=level),
                    setups=tuple(setups[:n]),
                ),
            )
        )
    return out
