"""Measurement-bias metrics and studies.

The paper's core empirical instrument: hold the *system under study*
fixed, vary an "innocuous" setup parameter (environment size, link
order), and quantify how much the outcome moves.

Two layers:

- :func:`detect_bias` — turn a set of outcome values (cycles or speedups)
  observed across setups into a :class:`BiasReport`;
- :func:`env_size_study` / :func:`link_order_study` — run the paper's two
  headline sweeps against an :class:`~repro.core.experiment.Experiment`;
- :class:`StudySpec` — one such study as a value: the setups it sweeps
  and the tables it publishes, shared by ``repro study`` and the sweep
  service.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields as dc_fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import workloads
from repro.arch import available_machines
from repro.core.experiment import Experiment, Measurement
from repro.core.report import render_series
from repro.core.session import record_checksum
from repro.core.setup import ExperimentalSetup
from repro.stats import SummaryStats
from repro.workloads.base import lcg_stream


@dataclass(frozen=True)
class BiasReport:
    """How much an outcome moved across supposedly-equivalent setups.

    ``values[i]`` is the outcome under setup ``labels[i]``.  For speedup
    outcomes, ``flips`` says whether the *conclusion sign* (faster vs
    slower than 1.0) depends on the setup — the paper's "wrong data"
    case.
    """

    quantity: str
    values: Tuple[float, ...]
    labels: Tuple[str, ...]
    stats: SummaryStats

    @classmethod
    def from_values(
        cls,
        quantity: str,
        values: Sequence[float],
        labels: Optional[Sequence[str]] = None,
    ) -> "BiasReport":
        if labels is None:
            labels = [str(i) for i in range(len(values))]
        if len(labels) != len(values):
            raise ValueError("labels and values must align")
        return cls(
            quantity=quantity,
            values=tuple(float(v) for v in values),
            labels=tuple(labels),
            stats=SummaryStats.from_values(values),
        )

    @property
    def magnitude(self) -> float:
        """max/min across setups — 1.0 means no bias at all."""
        return self.stats.spread

    @property
    def flips(self) -> bool:
        """True when a speedup conclusion reverses across setups."""
        return self.stats.minimum < 1.0 < self.stats.maximum

    def relative_range(self) -> float:
        """(max - min) / median: bias size relative to the outcome."""
        if self.stats.median == 0:
            return float("inf")
        return (self.stats.maximum - self.stats.minimum) / abs(self.stats.median)

    def worst_setups(self) -> Tuple[str, str]:
        """(label of minimum, label of maximum)."""
        lo_i = min(range(len(self.values)), key=lambda i: self.values[i])
        hi_i = max(range(len(self.values)), key=lambda i: self.values[i])
        return self.labels[lo_i], self.labels[hi_i]

    def summary_line(self) -> str:
        return (
            f"{self.quantity}: min={self.stats.minimum:.4f} "
            f"max={self.stats.maximum:.4f} magnitude={self.magnitude:.4f}"
            + (" CONCLUSION FLIPS" if self.flips else "")
        )


def detect_bias(
    quantity: str,
    values: Sequence[float],
    labels: Optional[Sequence[str]] = None,
) -> BiasReport:
    """Build a :class:`BiasReport` for outcome ``values`` across setups."""
    return BiasReport.from_values(quantity, values, labels)


# --------------------------------------------------------------------------
# Studies


@dataclass
class StudyResult:
    """Outcome of a setup-parameter sweep for a base/treatment pair."""

    experiment: str
    parameter: str  # "env_bytes" | "link_order"
    points: List[str] = field(default_factory=list)
    base_cycles: List[float] = field(default_factory=list)
    treatment_cycles: List[float] = field(default_factory=list)
    base_measurements: List[Measurement] = field(default_factory=list)
    treatment_measurements: List[Measurement] = field(default_factory=list)

    @property
    def speedups(self) -> List[float]:
        """Per-point base/treatment cycle ratios (> 1: treatment wins)."""
        return [
            b / t for b, t in zip(self.base_cycles, self.treatment_cycles)
        ]

    def speedup_bias(self) -> BiasReport:
        """Bias report for the speedup conclusion."""
        return detect_bias(
            f"speedup across {self.parameter}", self.speedups, self.points
        )

    def base_bias(self) -> BiasReport:
        """Bias report for the base configuration's raw cycles."""
        return detect_bias(
            f"base cycles across {self.parameter}", self.base_cycles, self.points
        )

    def treatment_bias(self) -> BiasReport:
        return detect_bias(
            f"treatment cycles across {self.parameter}",
            self.treatment_cycles,
            self.points,
        )


def env_size_study(
    experiment: Experiment,
    base: ExperimentalSetup,
    treatment: ExperimentalSetup,
    env_sizes: Iterable[int],
) -> StudyResult:
    """The paper's Figure 3 protocol: sweep UNIX environment size,
    measuring base and treatment at each point."""
    result = StudyResult(
        experiment=repr(experiment), parameter="env_bytes"
    )
    for env in env_sizes:
        b = experiment.run(base.with_changes(env_bytes=env))
        t = experiment.run(treatment.with_changes(env_bytes=env))
        result.points.append(str(env))
        result.base_cycles.append(b.cycles)
        result.treatment_cycles.append(t.cycles)
        result.base_measurements.append(b)
        result.treatment_measurements.append(t)
    return result


def link_order_study(
    experiment: Experiment,
    base: ExperimentalSetup,
    treatment: ExperimentalSetup,
    orders: Optional[Iterable[Sequence[str]]] = None,
    max_orders: int = 33,
    seed: int = 0,
) -> StudyResult:
    """The paper's Figure 1/2 protocol: measure under many link orders.

    With ``orders=None``, uses the workload's default order plus sampled
    permutations (up to ``max_orders`` total, matching the paper's 33
    orders for perlbench).
    """
    modules = experiment.workload.module_names()
    if orders is None:
        orders = sample_link_orders(modules, max_orders, seed)
    result = StudyResult(experiment=repr(experiment), parameter="link_order")
    for order in orders:
        order_t = tuple(order)
        b = experiment.run(base.with_changes(link_order=order_t))
        t = experiment.run(treatment.with_changes(link_order=order_t))
        result.points.append(",".join(order_t))
        result.base_cycles.append(b.cycles)
        result.treatment_cycles.append(t.cycles)
        result.base_measurements.append(b)
        result.treatment_measurements.append(t)
    return result


def sample_link_orders(
    modules: Sequence[str], count: int, seed: int = 0
) -> List[Tuple[str, ...]]:
    """Default order first, then distinct sampled permutations.

    With few modules all permutations are enumerated (capped at
    ``count``); with many, Fisher-Yates-samples distinct orders using the
    suite's deterministic LCG.
    """
    modules = list(modules)
    total = 1
    for k in range(2, len(modules) + 1):
        total *= k
    if total <= count:
        return [tuple(p) for p in itertools.permutations(modules)]
    rng = lcg_stream(seed + 131)
    seen = {tuple(modules)}
    orders: List[Tuple[str, ...]] = [tuple(modules)]
    while len(orders) < count:
        perm = list(modules)
        for i in range(len(perm) - 1, 0, -1):
            j = rng() % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        t = tuple(perm)
        if t not in seen:
            seen.add(t)
            orders.append(t)
    return orders


def suite_bias_table(
    experiments: Iterable[Experiment],
    base: ExperimentalSetup,
    treatment: ExperimentalSetup,
    parameter: str = "env_bytes",
    env_sizes: Optional[Sequence[int]] = None,
    max_orders: int = 12,
) -> Dict[str, StudyResult]:
    """Run one study per workload — the data for the paper's
    all-benchmarks figures (F2/F4)."""
    results: Dict[str, StudyResult] = {}
    for exp in experiments:
        if parameter == "env_bytes":
            sizes = env_sizes if env_sizes is not None else range(100, 1124, 64)
            results[exp.workload.name] = env_size_study(
                exp, base, treatment, sizes
            )
        elif parameter == "link_order":
            results[exp.workload.name] = link_order_study(
                exp, base, treatment, max_orders=max_orders
            )
        else:
            raise ValueError(f"unknown study parameter {parameter!r}")
    return results


# --------------------------------------------------------------------------
# Study specifications


@dataclass(frozen=True)
class StudySpec:
    """One bias study, as a value — the unit clients submit.

    ``repro study`` builds one from its arguments (same fields, same
    defaults), so a CLI invocation and a submitted spec run the same
    sweep and publish byte-identical reports.  ``tag`` is part of the
    *study's* identity but not of any measurement's: two submissions
    differing only by tag are distinct queue entries whose setups
    content-address to the same store keys, so the second runs entirely
    store-served.
    """

    workload: str
    parameter: str = "env"
    base_opt: int = 2
    treatment_opt: int = 3
    env_start: int = 100
    env_stop: int = 356
    env_step: int = 16
    orders: int = 6
    machine: str = "core2"
    compiler: str = "gcc"
    size: str = "test"
    seed: int = 0
    tag: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (canonicalised by the checksum/WAL layers)."""
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}

    def study_id(self) -> str:
        """Content address of this spec — the service's study key.

        A pure function of the spec, so identical submissions from any
        number of clients dedup to one queue entry, one WAL lifecycle,
        and one result document.
        """
        return record_checksum(self.to_dict())

    @classmethod
    def from_dict(cls, data: Any) -> "StudySpec":
        """Validated parse; raises ``ValueError`` on anything malformed
        (the API layer turns that into a 400, never a crashed study)."""
        if not isinstance(data, dict):
            raise ValueError("study spec must be a JSON object")
        known = {f.name for f in dc_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown spec field(s): {', '.join(unknown)}")
        if "workload" not in data:
            raise ValueError("spec is missing required field 'workload'")
        merged = {f.name: getattr(cls, f.name, None) for f in dc_fields(cls)
                  if f.name != "workload"}
        merged.update(data)
        spec = cls(**merged)
        if spec.workload not in workloads.all_names():
            raise ValueError(f"unknown workload {spec.workload!r}")
        if spec.parameter not in ("env", "link"):
            raise ValueError("parameter must be 'env' or 'link'")
        for name in ("base_opt", "treatment_opt"):
            if getattr(spec, name) not in (0, 1, 2, 3):
                raise ValueError(f"{name} must be an opt level 0-3")
        if spec.machine not in available_machines():
            raise ValueError(f"unknown machine {spec.machine!r}")
        if spec.compiler not in ("gcc", "icc"):
            raise ValueError("compiler must be 'gcc' or 'icc'")
        if spec.size not in ("test", "train", "ref"):
            raise ValueError("size must be test, train, or ref")
        for name in ("env_start", "env_stop", "env_step", "orders", "seed"):
            if not isinstance(getattr(spec, name), int):
                raise ValueError(f"{name} must be an integer")
        if spec.env_step < 1:
            raise ValueError("env_step must be >= 1")
        if spec.parameter == "env" and spec.env_stop <= spec.env_start:
            raise ValueError("env sweep is empty (env_stop <= env_start)")
        if spec.orders < 1:
            raise ValueError("orders must be >= 1")
        if not isinstance(spec.tag, str):
            raise ValueError("tag must be a string")
        return spec

    def build(self) -> Tuple[Experiment, List[ExperimentalSetup],
                             ExperimentalSetup, ExperimentalSetup, list]:
        """Materialise the experiment, the setup list (base and
        treatment at every point, in that order), both setups and the
        points — what ``repro study`` and the service both sweep."""
        exp = Experiment(
            workloads.get(self.workload), size=self.size, seed=self.seed
        )
        base = ExperimentalSetup(
            machine=self.machine, compiler=self.compiler,
            opt_level=self.base_opt,
        )
        treatment = ExperimentalSetup(
            machine=self.machine, compiler=self.compiler,
            opt_level=self.treatment_opt,
        )
        if self.parameter == "env":
            points = list(range(self.env_start, self.env_stop, self.env_step))
            setups = [
                s.with_changes(env_bytes=env)
                for env in points
                for s in (base, treatment)
            ]
        else:
            points = sample_link_orders(
                exp.workload.module_names(), self.orders, seed=0
            )
            setups = [
                s.with_changes(link_order=tuple(order))
                for order in points
                for s in (base, treatment)
            ]
        return exp, setups, base, treatment, points

    def tables(
        self,
        exp: Experiment,
        base: ExperimentalSetup,
        treatment: ExperimentalSetup,
        points: list,
    ) -> str:
        """The published tables — the speedup series and its bias line —
        from :meth:`build`'s values, once the sweep has primed ``exp``'s
        run cache.  ``repro study`` prints them and the service stores
        them, byte for byte the same."""
        if self.parameter == "env":
            study = env_size_study(exp, base, treatment, points)
        else:
            study = link_order_study(exp, base, treatment, orders=points)
        return render_series(
            study.points,
            study.speedups,
            title=(
                f"speedup of O{self.treatment_opt} over O{self.base_opt} "
                f"across {self.parameter} ({self.workload}, {self.machine})"
            ),
            reference=1.0,
        ) + "\n\n" + study.speedup_bias().summary_line() + "\n"
