"""Unit tests: ExperimentalSetup and Experiment."""

import itertools
from dataclasses import replace

import pytest

from repro import workloads
from repro.arch import blockcache, core2
from repro.arch.engine import FASTPATH_ENV
from repro.core import Experiment, ExperimentalSetup, VerificationError
from repro.core import experiment as experiment_mod
from repro.os import Environment
from repro.toolchain import compile_program, get_profile
from repro.toolchain.linker import LinkLayout, link

#: The decode arrays an executable hands the engines.
DECODE = ("ops", "rds", "ras", "rbs", "imms", "targets", "addrs", "sizes")


def _decode(exe):
    return tuple(getattr(exe, name) for name in DECODE) + (
        exe.entry,
        exe.addr_to_index,
        exe.data_init,
    )


def _instructions(modules):
    return [
        (m.name, f.name, b.label, i.op, i.rd, i.ra, i.rb, i.imm, i.target)
        for m in modules
        for f in m.functions.values()
        for b in f.blocks
        for i in b.instrs
    ]


class TestExperimentalSetup:
    def test_defaults(self):
        s = ExperimentalSetup()
        assert s.machine_name == "core2"
        assert s.opt_level == 2
        assert s.environment() == Environment.typical()

    def test_with_changes_creates_new(self):
        base = ExperimentalSetup()
        treat = base.with_changes(opt_level=3)
        assert base.opt_level == 2 and treat.opt_level == 3

    def test_env_bytes_resolution(self):
        s = ExperimentalSetup(env_bytes=512)
        assert s.environment().total_bytes == 512

    def test_invalid_opt_level_rejected(self):
        with pytest.raises(ValueError):
            ExperimentalSetup(opt_level=5)

    def test_link_order_normalized_to_tuple(self):
        s = ExperimentalSetup(link_order=["a", "b"])
        assert s.link_order == ("a", "b")
        assert hash(s)  # hashable for memoization

    def test_machine_config_from_name_and_instance(self):
        by_name = ExperimentalSetup(machine="core2").machine_config()
        direct = ExperimentalSetup(machine=core2()).machine_config()
        assert by_name == direct

    def test_build_key_excludes_runtime_fields(self):
        a = ExperimentalSetup(env_bytes=100)
        b = ExperimentalSetup(env_bytes=4000)
        assert a.build_key() == b.build_key()
        c = ExperimentalSetup(opt_level=3)
        assert a.build_key() != c.build_key()

    def test_describe_mentions_key_fields(self):
        s = ExperimentalSetup(opt_level=3, env_bytes=256)
        d = s.describe()
        assert "O3" in d and "256" in d and "core2" in d

    def test_custom_compiler_profile_describes_and_runs(self):
        # describe() feeds every run's fault key, so a custom profile
        # must describe by name before Experiment.run can measure it.
        profile = replace(get_profile("gcc"), name="gcc-wide")
        s = ExperimentalSetup(compiler=profile, opt_level=3)
        assert s.compiler_name == "gcc-wide"
        assert s.describe() == "core2 gcc-wide O3"
        assert ExperimentalSetup(compiler="icc").describe() == "core2 icc O2"
        exp = Experiment(workloads.get("sphinx3"), size="test", seed=0)
        assert exp.run(s).exit_value == exp.expected


class TestExperiment:
    @pytest.fixture(scope="class")
    def exp(self):
        # sphinx3 is the suite's fastest workload.
        return Experiment(workloads.get("sphinx3"), size="test", seed=0)

    def test_run_verifies_against_reference(self, exp, base_setup):
        m = exp.run(base_setup)
        assert m.exit_value == exp.expected

    def test_measurement_cached(self, exp, base_setup):
        a = exp.run(base_setup)
        b = exp.run(base_setup)
        assert a is b

    def test_build_cached_across_env_sizes(self, exp, base_setup):
        exe1 = exp.build(base_setup.with_changes(env_bytes=100))
        exe2 = exp.build(base_setup.with_changes(env_bytes=4000))
        assert exe1 is exe2

    def test_build_not_shared_across_opt_levels(self, exp, base_setup):
        exe1 = exp.build(base_setup)
        exe2 = exp.build(base_setup.with_changes(opt_level=3))
        assert exe1 is not exe2

    def test_speedup_definition(self, exp, base_setup):
        treat = base_setup.with_changes(opt_level=3)
        s = exp.speedup(base_setup, treat)
        assert s == pytest.approx(
            exp.run(base_setup).cycles / exp.run(treat).cycles
        )

    def test_sweep_returns_in_order(self, exp, base_setup):
        setups = [base_setup.with_changes(env_bytes=e) for e in (100, 132, 164)]
        ms = exp.sweep(setups)
        assert [m.setup.env_bytes for m in ms] == [100, 132, 164]

    def test_different_seeds_different_inputs(self):
        e0 = Experiment(workloads.get("sphinx3"), seed=0)
        e1 = Experiment(workloads.get("sphinx3"), seed=1)
        assert e0.expected != e1.expected

    def test_clear_caches(self, exp, base_setup):
        exp.run(base_setup)
        exp.clear_caches()
        assert exp.run(base_setup) is not None

    def test_clear_caches_drops_modules_and_pool(self, base_setup, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        exp = Experiment(workloads.get("sphinx3"))
        exp.build(base_setup)
        pool = exp._code_pool
        assert exp._modules and pool.bound > 0
        exp.clear_caches()
        assert not exp._modules
        assert exp._code_pool is not pool and exp._code_pool.bound == 0

    def test_experiments_never_share_a_pool(self, base_setup, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        wl = workloads.get("sphinx3")
        a, b = Experiment(wl), Experiment(wl)
        assert a._code_pool is not b._code_pool
        cfg = base_setup.machine_config()
        for exp in (a, b):
            exe = exp.build(base_setup)
            assert blockcache.block_cache_for(exe, cfg)._pool is exp._code_pool

    def test_verification_failure_raises(self, base_setup):
        wl = workloads.get("sphinx3")
        exp = Experiment(wl, size="test", seed=0)
        exp._expected = exp.expected + 1  # sabotage the oracle
        with pytest.raises(VerificationError):
            exp.run(base_setup.with_changes(env_bytes=3000))


class TestRelinkReuse:
    """A study's relinks reuse what does not depend on layout: the
    compiled modules per (compiler, opt level) and the block code."""

    def test_every_layout_compiles_each_opt_level_once(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        calls = []
        real = experiment_mod.compile_program

        def counting(*args, **kwargs):
            calls.append(kwargs["opt_level"])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment_mod, "compile_program", counting)
        wl = workloads.get("sphinx3")
        exp = Experiment(wl)
        names = sorted(wl.sources)
        fresh_modules = {
            opt: compile_program(dict(wl.sources), opt_level=opt, profile="gcc")
            for opt in (2, 3)
        }
        for order in itertools.permutations(names):
            for align in (1, 16):
                for opt in (2, 3):
                    exe = exp.build(
                        ExperimentalSetup(
                            opt_level=opt,
                            link_order=order,
                            function_alignment=align,
                        )
                    )
                    fresh = link(
                        fresh_modules[opt],
                        order=order,
                        layout=LinkLayout(function_alignment=align),
                    )
                    assert _decode(exe) == _decode(fresh)
        assert sorted(calls) == [2, 3]
        # The relinks' blocks came from one pool, mostly shared.
        assert 0 < exp._code_pool.compiled < exp._code_pool.bound

    def test_link_leaves_modules_unchanged(self):
        wl = workloads.get("sphinx3")
        modules = compile_program(dict(wl.sources), opt_level=2, profile="gcc")
        before = _instructions(modules)
        for order in itertools.permutations(m.name for m in modules):
            for align in (1, 64):
                link(modules, order=order, layout=LinkLayout(function_alignment=align))
        assert _instructions(modules) == before
