"""The benchmark's four workloads.

Each workload has a set-up (repeated, so set-up time can be reported as
a median), a timed window of fixed work, and a teardown.  The window's
outputs are checked against digests pinned in :data:`PINS`: a faster
lab that changes one simulated statistic is a different program, so it
fails the benchmark.  ``python3 perfbench/run.py --pin`` recomputes the
pins from serial runs.

- ``envsweep`` — ``repro study perlbench env``: the engine's workload.
- ``linkorder`` — ``repro study W link`` over every order of five
  3-module programs, each with a fresh store: the build workload.
- ``warm-rerun`` — ``repro randomized perlbench`` re-run against a
  store filled during set-up: store reads, journal writes and stats.
- ``service`` — a coordinator with two dial-in agents serving env
  studies over HTTP: supervisor pools, lease dispatch and the WAL.

Every window runs the same inputs whatever the seed, so every seed does
the same work; the seed fixes the order in which the window runs them.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import Experiment, ExperimentalSetup
from repro.core import distributed as dist
from repro.core import service as svc
from repro.core.bias import env_size_study, link_order_study
from repro.core.randomization import (
    evaluate_with_randomization,
    paired_random_setups,
)
from repro.core.report import render_series
from repro.core.runner import RunnerConfig, SweepRunner
from repro.core.session import canonical_json, measurement_to_dict
from repro.obs import progress as obs_progress
from repro.store import open_store
from repro import workloads as repro_workloads

from hostspeed import REFERENCE_NS, HostSpeed, Timeline, Unit, speed_index
from spans import ENTRIES, Tracer, lease_round_trips

#: Longest ``--seconds`` the pins cover (the service pins one study per
#: variant and pass).
MAX_SECONDS = 60

#: sha256 of each input's canonical output document, by label, from
#: serial runs (``run.py --pin``).  Service studies hash only the report
#: and tables the service returns, so a match means the service answered
#: byte for byte what a serial ``repro study`` of the same spec prints.
PINS: Dict[str, str] = {
    'envsweep/v0': '53852ac62e51c80bd8dd62a53c19231057d1302142ffe5b87cf92bc84a9ee16b',
    'envsweep/v1': 'cf58b2493f3b54552306b6cee13a63d0c02a188197c8c969ace2512652016e0a',
    'envsweep/v2': '90efaf801da822c96b9b43551a77f72e699a03bd7084a841d28dc2f7eda10f51',
    'envsweep/v3': 'c588a1f136c6626e9f9403dd323f4266599163237b3a869b8db9335def34e9c9',
    'linkorder/perlbench': '7d2bdd0fff2cd7305dc1fdf8a262df293582fc8a098bd921e007a61041461630',
    'linkorder/bzip2': '2a988a29f049d4ad6053c6b2694b6615f4be35c03e6f06e5a1e3082f4035e5f5',
    'linkorder/sphinx3': 'fc6345379ea32c54d529807b87700ef8745dac5953b27fc9ea8eee42abd1c9d4',
    'linkorder/mcf': '23a187f7e47cb2d53b84a583fccec72e378f5440b9b9de14151585dd2ef76f86',
    'linkorder/lbm': 'b1f4c1060e66ab5205e28f17a6211516d12abbc70a19de91765287b65dec155d',
    'warm-rerun/v0': 'e6a5a5e4710a2a5cc3867635ba5abaebe98d422ee18834c77f0ecd19932f331c',
    'service/warm': 'cedd894a7f6f873d67eb2ffa1219a743f4bb6f5fd886542d513515219702a8bf',
    'service/v0/k0': '1736079c51d99650f5d44426062b51f23e40be2f3f2ed66b5f6f1dd30e7b2e04',
    'service/v1/k0': '69783f139a93edb10e02af935512fee2abfe2a5e7d46c17479ca19827b059499',
    'service/v2/k0': 'fb08c2e135d9c7fe9dbcc221c7b0d037320eea1f7268ef62ff85c321efef1a0f',
    'service/v3/k0': '157b4533f5fdb9c63b7be4f81f62bdfdd45a03fb76c96e353cd860d90f82a785',
    'service/v0/k1': '7d0c2bbd6cb0dfdc35c7eaae7be4ea8b8fe9941d601f45f7ecb03af926e52d60',
    'service/v1/k1': 'c8379618774da74eff0d65cd40b6ce79219eb75a2cd2afec88348103653aff7a',
    'service/v2/k1': '54cb27e60b91bed6902c61dd2f1636c90e9d3303149e2d83e391881aae3775ec',
    'service/v3/k1': '7d4f59e793c51b8a53243519578a0e2d85dbad2f5013545088058018ee24d93c',
    'service/v0/k2': '9a09addaaac80f8726b3ac0911c0ae831ca1ffc38c1c8c07a1aa7ec2901554db',
    'service/v1/k2': 'df4453935335cdf37a5710dda0b5d65abcc16b6cb4e2e848aa6f020068f560c8',
    'service/v2/k2': 'ee1c6a5fdccb1a690c94a51cd7908d73ff544cf83636297fb1efb04722df5765',
    'service/v3/k2': '70dc8bc654ea2324f1321c597bb117c05fdcc205f92bc4676291c2f5ea75e305',
    'service/v0/k3': 'c2f17a2d9b3b7cd318573e09f6f5f4fbfa7d2420e4a7d80e44715df7ea369498',
    'service/v1/k3': '0acb0c7b23a7555a1878837725b1ab10bc1fc97883ef4bcac6ffde4860ae22d9',
    'service/v2/k3': '8f2f86c59756e272028ee84da9bc738064d15b827b4c53bf2ef479def48f05f8',
    'service/v3/k3': '999458a115468d0a22f1ff8a809a219c6a6c1e0beae746b219b63e95d3ca7c2b',
    'service/v0/k4': 'e74cc64961c58c5183cc179d54ad39feba566db080d7a6afc2f7b52721758297',
    'service/v1/k4': 'cfdad47075149c6b4fd0c203b4631d9e4e728625081f356655010920094003e9',
    'service/v2/k4': '87ec153564382d91e5810422e6d8b4714885fa2097f302af4c81cdb339ec3e4c',
    'service/v3/k4': '4ea14cfe0b4dc2e2ce245a7be063a19ec2d942f02b36c02f42c6a882dd11eae6',
    'service/v0/k5': 'a27c1c11b77b5389ac6024282cdfcfda9c15c80e8837ce53b12e074cd109d106',
    'service/v1/k5': '7634eb2aa3c8f98b55d687f384599061f6b94b848becff7efc3d6d9e698b144e',
    'service/v2/k5': 'db541f2c6e19e390a6dc40b5027b05bf65d35a5a66ffcd2183b3969c1782fabd',
    'service/v3/k5': 'e5834077f264faffc68e4a336e83556ebcb6dc33d6f3747e9953845767b8abd1',
    'service/v0/k6': '106903d95c2f5945802f7e6b4076b9dc02c918a6798bac9070fe7b0ce6d216a8',
    'service/v1/k6': 'cf185649cde47f8927efaeec8f4e1eec8c2e583244ba1079fda7a2ea8cc0a95e',
    'service/v2/k6': '6124c4f38a7530473e3760e97aec2622438315447fc40a8277440b2874baf8c7',
    'service/v3/k6': '42c71e66259b51064386c75d8886016289744da65be87674a1e16dac35d973dc',
    'service/v0/k7': 'e59d49e661f07aeca6a883a765d0a35b5ae1e3b032f8229c7b9c8126c4ab2577',
    'service/v1/k7': '3adf7d254c2319d8c0c6ed18535552f0ed15f0483565d7d0fdd396b6da70200a',
    'service/v2/k7': '4a70a096c888fcb061d0a1cced31c7041c4d69506edb43baf855a9580d0c5e16',
    'service/v3/k7': '76f734359e59a4a86c76b48c1635713d63ed0621f480b4148cd3e40323bfe359',
    'service/v0/k8': 'be4486c67083f6a08c10492e2b63eaa7986d1068c36722a0b2509b67c127eef0',
    'service/v1/k8': '9e47de91134590a54473ffe78f900d81ea04ee968c5a96cce04d20d95a218510',
    'service/v2/k8': '3eb020da9b44e456ee1bc5eb4a413c6f8b5c7e6eb6e97e58fc1aa52d76cfc4e6',
    'service/v3/k8': '2589a57bc3b6f2a0ccb3e3304cbf692d13c066991673f93ebf21f072d13ab308',
    'service/v0/k9': 'cb97ac3ca40df2d60bb31853999d41b35ff26968b5d073c3e91ba5fef4160a96',
    'service/v1/k9': '9e123db15ab09ccc155dd70d7e784ff760083bc0bc045c158a788500a6a4369d',
    'service/v2/k9': '35c5a3fd053daa38175d346817cbd759e4d9e6e9d006207c96875c8198ccf0b0',
    'service/v3/k9': '455f2ebd656736b8b827909edc0d6af0984665d5c57bc1a643dac16d969a045a',
    'service/v0/k10': '20917f72a980047bc04844175802a4c712541542d458ac94ddcab6114c9c06f8',
    'service/v1/k10': '96d98d434e290b698979646217f0376c8e9e9c0556ebef2e26c955767fc5b380',
    'service/v2/k10': '4cecc14f89a6ed9c0aa59d4d2312c8f019abcca3e22f10120cab239f734848ae',
    'service/v3/k10': 'e92b8593981ae9a1a4dd168ae6c9d64075883d083329dceca087f73daa67acb4',
    'service/v0/k11': '6c9ce387e11ea945b06d33ff1a3d81e68df2b2dfc88449bf410509a5697727a4',
    'service/v1/k11': '5543158951dc60a73de76e7b18b98c57b0ab16bf9dacded0c2ad5d85da42ff82',
    'service/v2/k11': 'e465fc1453f4127ba24b551c8fcb81b12f4debfa04d9c16766ed633e56c65bde',
    'service/v3/k11': 'f800e9a2cca278e49bb2d3f1c668e3709d564792f9201b96a327ae8caf09a944',
    'service/v0/k12': 'c8ba64c52cac54befa91eaadd374d348400d84ba73ef6c6e2a50c79235aa83d5',
    'service/v1/k12': 'c3402289145fda60c8b49b42dd375c190869974069f6ff974d078a4d2d4d30e8',
    'service/v2/k12': '85b856127f1436253023daab51dc455e1027b27568183adc92c6944dcc7b6d5f',
    'service/v3/k12': 'd988c6abeaea694d6ea7774a7e3be8ef90b710195f5e4d4c03b66c1f37f67b61',
    'service/v0/k13': '773713c86ae6f783b2a689592ba9000dad210375130f1efcdb55b173b5ad6c5d',
    'service/v1/k13': 'db288497c92e916d664d2803143160b0c2de95524f605f423eef1f9919e077db',
    'service/v2/k13': 'ba08317095ebe6a9602a6bfa8c751484215a4d503c9212f09c57cfd23cad5bd6',
    'service/v3/k13': '5c61b2e0860483d06a8cfeb17af75590fb48f59be34465a3cf93e7b82138f599',
    'service/v0/k14': '871bdc7a3cfeddf46c9802d4cb220a686f80363dc92e4c100f7cfd24cbc00d89',
    'service/v1/k14': '2bc117d3203c1e1fe9f2dc3ff0843a717ab478cd613123577c426037b02eb87d',
    'service/v2/k14': '5093fd4cbb8d9e5b0ed3d1d917167101fcb873a4017effcba392b112ed6a4819',
    'service/v3/k14': 'bc85b032bbcf99e3ca4a463b58bc9febedf6cc9244be3288f5073c68c5536305',
    'service/v0/k15': 'e4fcbaa2eefbdf41fba60eff8e460cdbd17ef0444269b2181a12aa6b21ea94da',
    'service/v1/k15': '90e45f0185f3f77e5b3788447431e8b27d9e4a9a2802f3fc2b86dcff93a0ebc1',
    'service/v2/k15': '70e3a74b76207b32916f19da62f14d9f7cf24be240337596da5b53866eda1e5a',
    'service/v3/k15': '5abd15e2076f1d195736a62930eaf8a927611d6151546fe437434e157da901be',
    'service/v0/k16': 'fb38b2c1fb3f37f25b54d59ab524bf20b43b75a7862d13e1b31b97bace5592d4',
    'service/v1/k16': '3b61c7324c794050283fa454675588057c81c298d06bb83b65e64e8830ab2549',
    'service/v2/k16': 'a695cfdcaf511bf755468b5177b935919f96def3be6772201aa06af832e2bda4',
    'service/v3/k16': '401658ebfa875a203dc064ff0d4d8790257c279fc5985ccddacd98e61758a4ee',
    'service/v0/k17': '6c6d3e8a44144b219523a4a795164f808e0376cd756fb644fd57a04981cbad75',
    'service/v1/k17': '261c1ae3866f9ce04d66db942183f8cf22f180433aeb4830fab1062183a4881e',
    'service/v2/k17': 'df49bce7d81fd0bea009757c6e92303314ac1776d73a3f4b3751b31e5e13df2d',
    'service/v3/k17': '12b0b83ac6339c55f9a598ade7e609a5a36f6a75768acd485aa2e9619592ade6',
    'service/v0/k18': '47ee223537509b928a7fc69e171c8cc95ad54175c11fc953fa17831c3c30a5d0',
    'service/v1/k18': '67960162034416835817289f3753ad7ab2c22437bfcb7f5b4a04c43d841d4bb6',
    'service/v2/k18': '802e99874f52fe53a5a10572dd66144c7111f2dd89a9cdb7a1db7dc0f0f08457',
    'service/v3/k18': '286df0c8e7d54ff669b3a67492ad6362fbfae2df3c92ae792f20f527a9c91482',
    'service/v0/k19': '99c3e36ce04d91c3f2d0d24645ec220874e759aac05244702e8eae2c02fec2ba',
    'service/v1/k19': 'ff6570c2f07cc557889724780d18016d8c85e4c1b5cb6a5d5f7bbc125505b71c',
    'service/v2/k19': 'bd9bb7b2f71fbc650d77b89fc2ce5d392161fa4c87f48e94e5c1c215495d9f93',
    'service/v3/k19': 'fc8cc0e69b5f43cd25821da5701eba7571faef83f8a280be3dfac76f9ea1dfb6',
}


class CheckFailed(Exception):
    """An output or a deterministic count differs from its pin."""


# -- outputs ------------------------------------------------------------------


def digest(doc: Dict[str, Any]) -> str:
    """sha256 of a document's canonical JSON."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def check_digest(label: str, doc: Dict[str, Any], pins: Dict[str, str] = PINS) -> str:
    """Raise :class:`CheckFailed` unless ``doc`` hashes to its pin."""
    got = digest(doc)
    want = pins.get(label)
    if got != want:
        raise CheckFailed(f"{label}: output digest {got[:16]} != pinned {str(want)[:16]}")
    return got


def study_tables(spec: svc.StudySpec, exp, base, treatment, points) -> str:
    """The study's published text, rendered exactly as the service does."""
    if spec.parameter == "env":
        study = env_size_study(exp, base, treatment, points)
    else:
        study = link_order_study(exp, base, treatment, orders=points)
    return render_series(
        study.points,
        study.speedups,
        title=(
            f"speedup of O{spec.treatment_opt} over O{spec.base_opt} "
            f"across {spec.parameter} ({spec.workload}, {spec.machine})"
        ),
        reference=1.0,
    ) + "\n\n" + study.speedup_bias().summary_line() + "\n"


# -- run context --------------------------------------------------------------


@dataclass
class Context:
    """What one benchmark run hands its workload."""

    workdir: str
    seed: int
    seconds: int
    host: HostSpeed
    tracer: Optional[Tracer] = None

    def scratch(self, name: str) -> str:
        path = os.path.join(self.workdir, f"{name}-{time.perf_counter_ns()}")
        os.makedirs(path)
        return path

    def shuffled(self, items: Sequence, salt: int = 0) -> list:
        """``items`` in this seed's order."""
        out = list(items)
        random.Random(self.seed * 1_000_003 + salt).shuffle(out)
        return out

    def calibrate(self) -> int:
        """One kernel run on the driving thread (a ``calib`` span)."""
        start = time.perf_counter_ns()
        elapsed = self.host.sample()
        if self.tracer is not None:
            self.tracer.span("calib", "kernel", start)
        return elapsed


@dataclass
class Window:
    """What one timed window did.

    ``units`` partition the window, less its kernel runs, into units of
    work; ``latencies`` are the per-unit latencies the percentile metrics
    summarize (``latency_unit`` says what one is).
    """

    latency_unit: str
    start_ns: int = 0
    end_ns: int = 0
    units: List[Unit] = field(default_factory=list)
    latencies: List[Unit] = field(default_factory=list)
    #: (input label, start, end) of each input run in the window.
    repeats: List[Tuple[str, int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digests: Dict[str, str] = field(default_factory=dict)

    def open(self, ctx: Context) -> Timeline:
        self.start_ns = time.perf_counter_ns()
        return Timeline(ctx.calibrate)

    def close(self, timeline: Timeline) -> "Window":
        self.end_ns = time.perf_counter_ns()
        self.units = timeline.units
        return self


class _Pacer(obs_progress.ProgressReporter):
    """Ends a unit (and runs the kernel) at every finished setup."""

    def __init__(self, timeline: Timeline, latencies: List[Unit]) -> None:
        self.timeline = timeline
        self.latencies = latencies

    def setup_finished(self, index, setup, status, attempts=1) -> None:
        self.latencies.append(self.timeline.mark())


def _serial_study(
    spec: svc.StudySpec, progress=None, store_dir: Optional[str] = None,
    measurements: bool = True,
) -> Tuple[Dict[str, Any], int, int]:
    """Run ``spec`` as ``repro study`` does; (document, attempted, failed)."""
    exp, setups, base, treatment, points = spec.build()
    store = open_store(store_dir) if store_dir else None
    result = SweepRunner(
        exp, RunnerConfig(jobs=1), progress=progress, store=store
    ).run(setups)
    failed = len(result.report.quarantined)
    doc: Dict[str, Any] = {"report": result.report.to_json()}
    if not failed:
        doc["tables"] = study_tables(spec, exp, base, treatment, points)
    if measurements:
        doc["measurements"] = [
            measurement_to_dict(m) for m in result.measurements if m is not None
        ]
    return doc, len(setups), failed


def _warm_up_experiments(names: Sequence[str]) -> None:
    """Build each program's experiment and its reference exit value."""
    for name in names:
        Experiment(repro_workloads.get(name)).expected


def _passes(seconds: int, pass_s: float) -> int:
    return max(1, round(seconds / pass_s))


# -- serial sweeps ------------------------------------------------------------


class _Sweep:
    """A workload of serial ``repro study`` runs, one unit per setup."""

    name = ""
    inputs: Tuple[str, ...] = ()
    #: Seconds one pass over every input takes on the reference host.
    pass_s = 1.0

    def spec(self, item: str) -> svc.StudySpec:
        raise NotImplementedError

    def store_dir(self, ctx: Context, p: int, item: str) -> Optional[str]:
        return None

    def setup(self, ctx: Context):
        _warm_up_experiments(sorted({self.spec(i).workload for i in self.inputs}))
        return None

    def window(self, ctx: Context, state) -> Window:
        w = Window(latency_unit="setup")
        timeline = w.open(ctx)
        pacer = _Pacer(timeline, w.latencies)
        for p in range(_passes(ctx.seconds, self.pass_s)):
            for item in ctx.shuffled(self.inputs, salt=p):
                label = f"{self.name}/{item}"
                start = time.perf_counter_ns()
                doc, attempted, failed = _serial_study(
                    self.spec(item), pacer, self.store_dir(ctx, p, item)
                )
                w.repeats.append((label, start, time.perf_counter_ns()))
                w.attempted += attempted
                w.failed += failed
                w.digests[label] = check_digest(label, doc)
                del doc
                # Each `repro study` is a process of its own, so no study
                # inherits another's garbage: otherwise peak_rss_mb would
                # depend on the order the seed picked.
                timeline.pause(gc.collect)
        timeline.mark()  # the last study's report and digest
        return w.close(timeline)

    def teardown(self, state) -> None:
        pass

    def pin_jobs(self):
        return [
            (f"{self.name}/{i}", lambda i=i: _serial_study(self.spec(i))[0])
            for i in self.inputs
        ]


class EnvSweep(_Sweep):
    """Figure 3: O2 vs O3 across environment sizes, one link order."""

    name = "envsweep"
    inputs = ("v0", "v1", "v2", "v3")
    env_sizes = 17
    pass_s = 7.0

    def spec(self, item: str) -> svc.StudySpec:
        start = 100 + 4 * int(item[1:])
        return svc.StudySpec(
            workload="perlbench", parameter="env", env_start=start,
            env_stop=start + 16 * self.env_sizes, env_step=16,
        )


class LinkOrder(_Sweep):
    """Every link order of five 3-module programs: one build per setup."""

    name = "linkorder"
    inputs = ("perlbench", "bzip2", "sphinx3", "mcf", "lbm")
    pass_s = 8.0

    def spec(self, item: str) -> svc.StudySpec:
        return svc.StudySpec(workload=item, parameter="link", orders=6)

    def store_dir(self, ctx: Context, p: int, item: str) -> Optional[str]:
        return ctx.scratch(f"store-{p}-{item}")


# -- warm-rerun ---------------------------------------------------------------


class WarmRerun:
    """The F8 protocol re-run against a store filled during set-up."""

    name = "warm-rerun"
    inputs = ("v0",)
    pairs = 16
    rerun_s = 0.045

    def plan(self, variant: int):
        exp = Experiment(repro_workloads.get("perlbench"))
        base = ExperimentalSetup(opt_level=2)
        treatment = ExperimentalSetup(opt_level=3)
        pairs = paired_random_setups(exp, base, treatment, self.pairs, seed=variant)
        return exp, base, treatment, [s for pair in pairs for s in pair]

    def reruns(self, seconds: int) -> int:
        per_input = max(1, round(seconds / self.rerun_s / len(self.inputs)))
        return per_input * len(self.inputs)

    def rerun(self, item: str, store_dir: Optional[str], journal: Optional[str]):
        """One F8 evaluation; returns (document, attempted, failed)."""
        variant = int(item[1:])
        exp, base, treatment, setups = self.plan(variant)
        store = open_store(store_dir) if store_dir else None
        result = SweepRunner(
            exp, RunnerConfig(jobs=1), journal_path=journal, store=store
        ).run(setups)
        failed = len(result.report.quarantined)
        doc: Dict[str, Any] = {"report": result.report.to_json()}
        if not failed:
            ev = evaluate_with_randomization(
                exp, base, treatment, n_setups=self.pairs, seed=variant
            )
            doc["speedups"] = list(ev.speedups)
            doc["summary"] = ev.summary_line()
            doc["analysis"] = ev.analysis(seed=variant).to_dict()
            doc["measurements"] = [measurement_to_dict(m) for m in result.measurements]
        return doc, len(setups), failed

    def setup(self, ctx: Context) -> str:
        store_dir = ctx.scratch("store")
        for item in self.inputs:
            label = f"{self.name}/{item}"
            doc, _attempted, failed = self.rerun(item, store_dir, None)
            if failed:
                raise CheckFailed(f"{label}: {failed} setup(s) quarantined filling the store")
            check_digest(label, doc)
        return store_dir

    def window(self, ctx: Context, store_dir: str) -> Window:
        journals = ctx.scratch("journals")
        order = ctx.shuffled(self.inputs)
        w = Window(latency_unit="re-run")
        timeline = w.open(ctx)
        for i in range(self.reruns(ctx.seconds)):
            item = order[i % len(order)]
            label = f"{self.name}/{item}"
            start = time.perf_counter_ns()
            doc, attempted, failed = self.rerun(
                item, store_dir, os.path.join(journals, f"{i}.jsonl")
            )
            w.repeats.append((label, start, time.perf_counter_ns()))
            w.attempted += attempted
            w.failed += failed
            w.digests[label] = check_digest(label, doc)
            w.latencies.append(timeline.mark())
        return w.close(timeline)

    def teardown(self, state) -> None:
        pass

    def pin_jobs(self):
        return [
            (f"{self.name}/{i}", lambda i=i: self.rerun(i, None, None)[0])
            for i in self.inputs
        ]


# -- service ------------------------------------------------------------------


@dataclass
class _Service:
    coordinator: svc.ServiceCoordinator
    thread: threading.Thread
    agents: List[dist.AgentServer]
    agent_threads: List[threading.Thread]

    @property
    def address(self) -> Tuple[str, int]:
        return "127.0.0.1", self.coordinator.http_port


def _wait(predicate: Callable[[], bool], what: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise CheckFailed(f"timed out waiting for {what}")
        time.sleep(0.01)


class Service:
    """Env studies submitted over HTTP to a coordinator with two agents."""

    name = "service"
    inputs = ("v0", "v1", "v2", "v3")
    env_sizes = 12
    pass_s = 3.0
    poll_s = 0.02
    #: Least time between kernel runs while a study is in progress.
    sample_s = 0.1

    def spec(self, item: str, k: int) -> svc.StudySpec:
        start = 100 + 4 * int(item[1:]) + 16 * self.env_sizes * k
        return svc.StudySpec(
            workload="perlbench", parameter="env", env_start=start,
            env_stop=start + 16 * self.env_sizes, env_step=16,
        )

    def warm_spec(self) -> svc.StudySpec:
        """The set-up's study: it starts the agents' workers and fills
        their caches, as a long-running service has done before most of
        its studies arrive."""
        return svc.StudySpec(workload="perlbench", parameter="env",
                             env_start=4000, env_stop=4000 + 16 * 6, env_step=16)

    def submit(self, service: "_Service", spec: svc.StudySpec,
               timeline: Optional[Timeline] = None) -> Tuple[str, Dict]:
        """Submit ``spec`` and poll until it ends; (study id, status).

        With a ``timeline``, the kernel runs every :attr:`sample_s`
        while the agents work: the kernel between studies runs on an
        idle host, and so tracks the host's speed under this load badly.
        """
        host, port = service.address
        sid = svc.submit_study(host, port, spec)["study"]
        sampled = time.perf_counter()

        def sleep(seconds: float) -> None:
            nonlocal sampled
            if timeline is not None and time.perf_counter() - sampled >= self.sample_s:
                timeline.sample()
                sampled = time.perf_counter()
            time.sleep(seconds)

        doc = svc.wait_for_study(host, port, sid, poll_interval=self.poll_s,
                                 timeout=120.0, sleep=sleep)
        return sid, doc

    def start(self, workdir: str) -> _Service:
        coordinator = svc.ServiceCoordinator(workdir=workdir, quiet=True)
        thread = threading.Thread(target=coordinator.run, daemon=True)
        thread.start()
        _wait(lambda: coordinator.agent_port is not None
              and coordinator.http_port is not None, "the service to listen")
        agents, agent_threads = [], []
        for seed in (1, 2):
            agent = dist.AgentServer(jobs=1, quiet=True)
            t = threading.Thread(
                target=agent.serve_connect,
                args=("127.0.0.1", coordinator.agent_port),
                kwargs=dict(backoff_base=0.05, backoff_seed=seed,
                            connect_timeout=3.0),
                daemon=True,
            )
            t.start()
            agents.append(agent)
            agent_threads.append(t)
        _wait(lambda: len(coordinator.registry.live_links()) == 2,
              "both agents to register")
        return _Service(coordinator, thread, agents, agent_threads)

    def setup(self, ctx: Context) -> _Service:
        _warm_up_experiments(["perlbench"])
        service = self.start(ctx.scratch("svc"))
        self.check(f"{self.name}/warm", self.submit(service, self.warm_spec())[1])
        return service

    def check(self, label: str, doc: Dict) -> str:
        """The digest of a finished study's report and tables, which must
        match its pin."""
        if doc["state"] != "done":
            raise CheckFailed(f"{label}: study failed: {doc.get('error')}")
        return check_digest(label, {"report": doc["report"], "tables": doc["tables"]})

    def window(self, ctx: Context, service: _Service) -> Window:
        # Lease round trips are read off the WAL (the service's own record
        # of them), so the untraced run installs this one wrapper.
        observer = ctx.tracer
        if observer is None:
            observer = Tracer(ctx.scratch("wal-observer"),
                              [e for e in ENTRIES if e.layer == "wal"])
            observer.install()
        try:
            w = Window(latency_unit="lease round trip")
            trips: List[int] = []
            timeline = w.open(ctx)
            for k in range(_passes(ctx.seconds, self.pass_s)):
                for item in ctx.shuffled(self.inputs, salt=k):
                    trips += self._study(w, timeline, observer, service, item, k)
            w.close(timeline)
        finally:
            if observer is not ctx.tracer:
                observer.uninstall()
        # A study's dozen kernel runs say how fast the host ran it, but
        # not how fast it ran one setup among others, and a lease's tail
        # latency follows them poorly: lease round trips take the
        # window's host-speed index instead.
        local = REFERENCE_NS / speed_index(w.units)
        w.latencies = [(trip, local) for trip in trips]
        return w

    def _study(self, w: Window, timeline: Timeline, observer: Tracer,
               service: _Service, item: str, k: int) -> List[int]:
        """Run one study; returns its lease round trips in ns."""
        label = f"{self.name}/{item}/k{k}"
        start = time.perf_counter_ns()
        sid, doc = self.submit(service, self.spec(item, k), timeline)
        w.repeats.append((label, start, time.perf_counter_ns()))
        timeline.mark()
        w.attempted += doc["requested"]
        w.digests[label] = self.check(label, doc)
        trips = lease_round_trips(observer.spans, sid)
        if len(trips) != doc["requested"]:
            raise CheckFailed(
                f"{label}: {len(trips)} lease round trips logged for "
                f"{doc['requested']} setups"
            )
        return trips

    def teardown(self, service: _Service) -> None:
        host, port = service.address
        svc._request(host, port, "POST", "/v1/drain")
        service.thread.join(30.0)
        for agent in service.agents:
            agent.stop()
        for t in service.agent_threads:
            t.join(30.0)
        if service.thread.is_alive() or any(t.is_alive() for t in service.agent_threads):
            raise CheckFailed("service threads did not stop")

    def pin_jobs(self):
        return [(f"{self.name}/warm",
                 lambda: _serial_study(self.warm_spec(), measurements=False)[0])] + [
            (f"{self.name}/{i}/k{k}",
             lambda i=i, k=k: _serial_study(self.spec(i, k), measurements=False)[0])
            for k in range(_passes(MAX_SECONDS, self.pass_s))
            for i in self.inputs
        ]


WORKLOADS = {w.name: w for w in (EnvSweep(), LinkOrder(), WarmRerun(), Service())}
