"""Unit tests: bias metrics, studies, and setup randomization."""

import pytest

from repro.core.bias import (
    BiasReport,
    detect_bias,
    sample_link_orders,
)
from repro.core.errors import StatsError
from repro.core.randomization import (
    RandomizedEvaluation,
    random_setups,
    required_setup_count,
    speedup_convergence,
)
from repro.core.setup import ExperimentalSetup
from repro.stats import t_confidence_interval


class TestBiasReport:
    def test_magnitude(self):
        rep = detect_bias("cycles", [100.0, 110.0, 105.0])
        assert rep.magnitude == pytest.approx(1.1)

    def test_flips_detection(self):
        assert detect_bias("speedup", [0.95, 1.05]).flips
        assert not detect_bias("speedup", [1.01, 1.05]).flips
        assert not detect_bias("speedup", [0.90, 0.99]).flips

    def test_worst_setups_labelled(self):
        rep = detect_bias("speedup", [1.0, 0.8, 1.2], ["a", "b", "c"])
        assert rep.worst_setups() == ("b", "c")

    def test_relative_range(self):
        rep = detect_bias("cycles", [90.0, 100.0, 110.0])
        assert rep.relative_range() == pytest.approx(0.2)

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BiasReport.from_values("x", [1.0, 2.0], ["only-one"])

    def test_summary_line_flags_flips(self):
        assert "FLIPS" in detect_bias("speedup", [0.9, 1.1]).summary_line()
        assert "FLIPS" not in detect_bias("speedup", [1.1, 1.2]).summary_line()


class TestSampleLinkOrders:
    def test_small_sets_enumerated(self):
        orders = sample_link_orders(["a", "b"], count=10)
        assert sorted(orders) == [("a", "b"), ("b", "a")]

    def test_default_order_first(self):
        orders = sample_link_orders(["x", "y", "z"], count=4)
        assert orders[0] == ("x", "y", "z")

    def test_distinct_and_counted(self):
        mods = ["a", "b", "c", "d", "e"]
        orders = sample_link_orders(mods, count=20, seed=1)
        assert len(orders) == 20
        assert len(set(orders)) == 20
        for o in orders:
            assert sorted(o) == mods

    def test_deterministic_per_seed(self):
        mods = ["a", "b", "c", "d"]
        assert sample_link_orders(mods, 8, seed=5) == sample_link_orders(
            mods, 8, seed=5
        )
        assert sample_link_orders(mods, 8, seed=5) != sample_link_orders(
            mods, 8, seed=6
        )


class TestRandomSetups:
    def test_randomizes_only_biased_parameters(self):
        base = ExperimentalSetup(machine="pentium4", compiler="icc", opt_level=3)
        setups = random_setups(base, ["m1", "m2", "m3"], n=10, seed=2)
        assert len(setups) == 10
        for s in setups:
            assert s.machine_name == "pentium4"
            assert s.compiler == "icc"
            assert s.opt_level == 3
            assert s.link_order is not None
            assert s.env_bytes is not None

    def test_env_range_respected(self):
        base = ExperimentalSetup()
        setups = random_setups(base, ["a", "b"], n=50, seed=0, env_range=(200, 300))
        assert all(200 <= s.env_bytes < 300 for s in setups)

    def test_bad_env_range_rejected(self):
        with pytest.raises(ValueError):
            random_setups(ExperimentalSetup(), ["a"], n=2, env_range=(300, 200))

    def test_setups_vary(self):
        setups = random_setups(ExperimentalSetup(), ["a", "b", "c"], n=12, seed=0)
        assert len({s.env_bytes for s in setups}) > 1
        assert len({s.link_order for s in setups}) > 1


SPEEDUPS = [1.02, 1.10, 0.97, 1.15, 1.04, 1.08, 0.99, 1.21, 1.05, 1.11]


class TestConvergenceHelpers:
    """The F8 convergence helpers: the curve and the projection."""

    def test_convergence_curve_covers_every_prefix(self):
        curve = speedup_convergence(SPEEDUPS)
        assert [n for n, __ in curve] == list(range(2, len(SPEEDUPS) + 1))
        assert all(rel >= 0.0 for __, rel in curve)

    def test_empty_and_singleton_samples_raise(self):
        with pytest.raises(StatsError):
            speedup_convergence([])
        with pytest.raises(StatsError):
            speedup_convergence([1.05])
        with pytest.raises(StatsError):
            required_setup_count([])
        with pytest.raises(StatsError):
            required_setup_count([1.05])

    def test_all_identical_samples_are_converged(self):
        # Zero dispersion: nothing left to narrow, at any prefix.
        flat = [1.07] * 5
        assert speedup_convergence(flat) == [(n, 0.0) for n in range(2, 6)]
        est = required_setup_count(flat)
        assert est.converged
        assert est.recommended_n == 5

    def test_level_edge_values_raise(self):
        for level in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(StatsError):
                speedup_convergence(SPEEDUPS, level=level)
            with pytest.raises(StatsError):
                required_setup_count(SPEEDUPS, level=level)

    def test_projection_exceeds_observed_until_target_met(self):
        est = required_setup_count(SPEEDUPS, target_rel_width=0.01)
        assert not est.converged
        assert est.recommended_n > len(SPEEDUPS)
        loose = required_setup_count(SPEEDUPS, target_rel_width=0.5)
        assert loose.converged
        assert loose.recommended_n == len(SPEEDUPS)


class TestRandomizedEvaluationInference:
    def evaluation(self, speedups, setups=None):
        if setups is None:
            setups = [
                ExperimentalSetup(env_bytes=100 + 8 * i)
                for i in range(len(speedups))
            ]
        return RandomizedEvaluation(
            speedups=tuple(speedups),
            interval=t_confidence_interval(speedups),
            setups=tuple(setups),
        )

    def test_distinct_setups_counts_unique_setups(self):
        ev = self.evaluation(SPEEDUPS)
        assert ev.distinct_setups == len(SPEEDUPS)
        shared = [ExperimentalSetup(env_bytes=100)] * len(SPEEDUPS)
        assert self.evaluation(SPEEDUPS, shared).distinct_setups == 1

    def test_analysis_work_up_reuses_the_sample(self):
        ev = self.evaluation(SPEEDUPS)
        a = ev.analysis(seed=3)
        assert a.n == len(SPEEDUPS)
        assert a.distinct_setups == ev.distinct_setups
        assert list(a.speedups) == list(ev.speedups)
        assert a.level == ev.interval.level

    def test_analysis_raises_on_degenerate_sample(self):
        # t_confidence_interval itself refuses zero-variance samples, so
        # build the evaluation with a healthy interval but an
        # all-identical speedup tuple: the work-up must still refuse.
        flat = (1.05, 1.05, 1.05)
        ev = RandomizedEvaluation(
            speedups=flat,
            interval=t_confidence_interval(SPEEDUPS),
            setups=tuple(
                ExperimentalSetup(env_bytes=100 + 8 * i) for i in range(3)
            ),
        )
        with pytest.raises(StatsError):
            ev.analysis()
