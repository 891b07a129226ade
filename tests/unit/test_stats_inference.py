"""Tests for the repro.stats inference layer.

The rank tests and intervals are implemented from first principles;
scipy (a test-only dependency, per README) is the oracle for the
p-values, exactly as tests/unit/test_stats.py uses it for the
distribution functions.
"""

import hashlib
import math
from collections import Counter

import pytest

scipy_stats = pytest.importorskip("scipy.stats")

import repro.stats.base
import repro.stats.samplesize
from repro.core import ExperimentalSetup
from repro.core.errors import StatsError
from repro.core.randomization import evaluate_with_randomization
from repro.core.session import canonical_json
from repro.stats import (
    SKEW_THRESHOLD,
    analyze_speedups,
    bca_confidence_interval,
    cliffs_delta,
    convergence_trajectory,
    hodges_lehmann,
    jackknife_acceleration,
    mann_whitney_u,
    paired_speedup_test,
    rank_biserial,
    rankdata,
    required_setups,
    t_confidence_interval,
    t_ppf,
    wilcoxon_signed_rank,
)
from repro.stats.base import t_ppf_bracket

X = [1.02, 1.10, 0.97, 1.15, 1.04, 1.08, 0.99, 1.21, 1.05, 1.11]


def warm_rerun_evaluation(experiment):
    """perfbench's warm-rerun plan: perlbench O2 vs O3 over
    paired_random_setups(16 pairs, seed 0)."""
    return evaluate_with_randomization(
        experiment,
        ExperimentalSetup(opt_level=2),
        ExperimentalSetup(opt_level=3),
        n_setups=16,
        seed=0,
    )
Y = [1.00, 1.03, 1.01, 1.09, 1.02, 1.01, 1.00, 1.12, 1.03, 1.05]


class TestRankdata:
    def test_matches_scipy_midranks(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        ours = rankdata(values)
        theirs = scipy_stats.rankdata(values, method="average")
        assert ours == pytest.approx(list(theirs))

    def test_all_tied(self):
        assert rankdata([7.0, 7.0, 7.0]) == [2.0, 2.0, 2.0]


class TestWilcoxonSignedRank:
    def test_p_value_matches_scipy(self):
        ours = wilcoxon_signed_rank(X, Y)
        theirs = scipy_stats.wilcoxon(
            [a - b for a, b in zip(X, Y)], correction=False, method="approx"
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    def test_statistic_is_w_plus(self):
        # All-positive differences: W+ is the full rank sum n(n+1)/2.
        r = wilcoxon_signed_rank([0.1, 0.2, 0.3, 0.4])
        assert r.statistic == 10.0
        assert r.method == "wilcoxon-signed-rank"

    def test_zero_differences_dropped(self):
        r = wilcoxon_signed_rank([0.0, 0.0, 0.1, -0.2, 0.3])
        assert r.n == 3

    def test_all_zero_differences_raise(self):
        with pytest.raises(StatsError):
            wilcoxon_signed_rank([0.0, 0.0, 0.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(StatsError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    def test_significance_threshold(self):
        r = wilcoxon_signed_rank(X, Y)
        assert r.significant(0.95) == (r.p_value < 0.05)


class TestMannWhitneyU:
    def test_matches_scipy(self):
        ours = mann_whitney_u(X, Y)
        theirs = scipy_stats.mannwhitneyu(
            X, Y, method="asymptotic", use_continuity=False
        )
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    def test_ties_matches_scipy(self):
        a = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        b = [2.0, 2.0, 3.0, 4.0, 4.0]
        ours = mann_whitney_u(a, b)
        theirs = scipy_stats.mannwhitneyu(
            a, b, method="asymptotic", use_continuity=False
        )
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)

    def test_empty_sample_raises(self):
        with pytest.raises(StatsError):
            mann_whitney_u([], [1.0])

    def test_all_tied_pools_raise(self):
        with pytest.raises(StatsError):
            mann_whitney_u([5.0, 5.0], [5.0, 5.0, 5.0])


class TestEffectSizes:
    def test_rank_biserial_extremes(self):
        assert rank_biserial([0.1, 0.2, 0.3]) == 1.0
        assert rank_biserial([-0.1, -0.2]) == -1.0
        assert rank_biserial([]) == 0.0

    def test_cliffs_delta_extremes(self):
        assert cliffs_delta([2.0, 3.0], [0.0, 1.0]) == 1.0
        assert cliffs_delta([0.0], [1.0, 2.0]) == -1.0
        assert cliffs_delta([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_cliffs_delta_empty_raises(self):
        with pytest.raises(StatsError):
            cliffs_delta([], [1.0])

    def test_hodges_lehmann_is_median_of_walsh_averages(self):
        # For [1, 2, 10]: walsh averages 1, 1.5, 2, 5.5, 6, 10 -> 3.75.
        assert hodges_lehmann([1.0, 2.0, 10.0]) == pytest.approx(3.75)

    def test_hodges_lehmann_empty_raises(self):
        with pytest.raises(StatsError):
            hodges_lehmann([])


class TestBcaInterval:
    def test_brackets_the_mean_and_is_labeled(self):
        ci = bca_confidence_interval(X, seed=3)
        assert ci.lo < ci.mean < ci.hi
        assert ci.method == "BCa"
        assert "BCa" in str(ci)

    def test_deterministic_given_seed(self):
        assert bca_confidence_interval(X, seed=3) == bca_confidence_interval(
            X, seed=3
        )
        assert bca_confidence_interval(X, seed=3) != bca_confidence_interval(
            X, seed=4
        )

    def test_degenerate_samples_raise(self):
        with pytest.raises(StatsError):
            bca_confidence_interval([1.0])
        with pytest.raises(StatsError):
            bca_confidence_interval([2.0, 2.0, 2.0])
        with pytest.raises(StatsError):
            bca_confidence_interval(X, level=1.0)

    @pytest.mark.parametrize("n_resamples", [0, -1])
    def test_needs_a_resample(self, n_resamples):
        with pytest.raises(
            StatsError, match=f"n_resamples must be at least 1, got {n_resamples}"
        ):
            bca_confidence_interval(X, n_resamples=n_resamples)

    def test_jackknife_acceleration_zero_when_loo_stats_agree(self):
        # A constant statistic has identical leave-one-out values: no
        # acceleration, graceful degradation to bias-corrected percentile.
        assert (
            jackknife_acceleration([1.0, 2.0, 3.0, 4.0], lambda xs: 42.0)
            == 0.0
        )
        # The mean's acceleration sign follows the sample's skew.
        mean = lambda xs: sum(xs) / len(xs)
        assert jackknife_acceleration([1.0, 1.0, 1.0, 5.0], mean) != 0.0

    def test_skewed_sample_shifts_interval_toward_tail(self):
        skewed = [1.0, 1.01, 1.02, 1.01, 1.0, 1.02, 1.01, 3.0]
        bca = bca_confidence_interval(skewed, seed=1)
        assert bca.lo < bca.mean < bca.hi


class TestRequiredSetups:
    def test_needs_two_observations(self):
        with pytest.raises(StatsError):
            required_setups([])
        with pytest.raises(StatsError):
            required_setups([1.1])

    def test_bad_level_and_target_raise(self):
        with pytest.raises(StatsError):
            required_setups([1.0, 1.1], level=0.0)
        with pytest.raises(StatsError):
            required_setups([1.0, 1.1], level=1.0)
        with pytest.raises(StatsError):
            required_setups([1.0, 1.1], target_rel_width=0.0)

    def test_zero_variance_is_converged(self):
        est = required_setups([1.5, 1.5, 1.5])
        assert est.converged
        assert est.recommended_n == 3
        assert est.half_width == 0.0
        assert "converged" in est.summary_line()

    def test_zero_mean_raises(self):
        with pytest.raises(StatsError):
            required_setups([-1.0, 1.0])

    def test_projection_shrinks_width_below_target(self):
        est = required_setups(X, target_rel_width=0.01)
        assert not est.converged
        assert est.recommended_n > est.n_observed
        assert "recommend" in est.summary_line()
        # The projected n actually reaches the target width.
        from repro.stats.samplesize import _half_width
        from repro.stats import SummaryStats

        stats = SummaryStats.from_values(X)
        projected = _half_width(stats.std, est.recommended_n, est.level)
        assert projected <= est.target_rel_width * abs(stats.mean)

    def test_loose_target_already_converged(self):
        est = required_setups(X, target_rel_width=0.5)
        assert est.converged
        assert est.recommended_n == len(X)

    def test_to_dict_round_trips_fields(self):
        d = required_setups(X).to_dict()
        assert d["n_observed"] == len(X)
        assert d["method"] == "t-width projection"
        assert isinstance(d["converged"], bool)

    @pytest.mark.slow
    def test_each_t_quantile_computed_once(self, perlbench_experiment, monkeypatch):
        speedups = warm_rerun_evaluation(perlbench_experiment).speedups
        dfs = Counter()
        brackets = Counter()

        def counting_t_ppf(p, df):
            dfs[df] += 1
            return t_ppf(p, df)

        def counting_bracket(p, df, start):
            brackets[df] += 1
            return t_ppf_bracket(p, df, start)

        monkeypatch.setattr(repro.stats.samplesize, "t_ppf", counting_t_ppf)
        monkeypatch.setattr(
            repro.stats.samplesize, "t_ppf_bracket", counting_bracket
        )
        est = required_setups(speedups)
        # The half-width bisects its quantile; the projection's two sizes
        # are decided by certified brackets alone.
        assert dfs == {15: 1}
        assert brackets == {71: 1, 73: 1}
        assert est.recommended_n == 74
        assert est.half_width == 0.023382421020773526

    @pytest.mark.slow
    def test_analysis_reuses_the_evaluations_t_interval(
        self, perlbench_experiment, monkeypatch
    ):
        counts = Counter()

        def counting(module):
            original = module.t_ppf

            def t_ppf_counted(p, df):
                counts[df] += 1
                return original(p, df)

            monkeypatch.setattr(module, "t_ppf", t_ppf_counted)

        counting(repro.stats.base)
        counting(repro.stats.samplesize)
        ev = warm_rerun_evaluation(perlbench_experiment)
        analysis = ev.analysis(seed=0)
        # The evaluation's t interval and the half-width: 2 bisections,
        # where recomputing the interval and bisecting every projected
        # size took 5.
        assert sum(counts.values()) == 2
        assert canonical_json(analysis.to_dict()) == canonical_json(
            analyze_speedups(
                ev.speedups, distinct_setups=ev.distinct_setups, seed=0
            ).to_dict()
        )

    def test_a_foreign_t_interval_is_refused(self):
        with pytest.raises(StatsError):
            analyze_speedups(X, t_interval=bca_confidence_interval(X))
        with pytest.raises(StatsError):
            analyze_speedups(X, t_interval=t_confidence_interval(X, level=0.9))
        given = t_confidence_interval(X)
        assert analyze_speedups(X, seed=3, t_interval=given).t_interval is given


class TestConvergenceTrajectory:
    def test_prefix_curve_shape(self):
        curve = convergence_trajectory(X)
        assert [n for n, __ in curve] == list(range(2, len(X) + 1))
        assert all(rel >= 0.0 for __, rel in curve)

    def test_identical_prefix_contributes_zero(self):
        curve = convergence_trajectory([1.0, 1.0, 1.0, 1.2])
        assert curve[0] == (2, 0.0)
        assert curve[1] == (3, 0.0)
        assert curve[2][1] > 0.0

    def test_short_samples_raise(self):
        with pytest.raises(StatsError):
            convergence_trajectory([])
        with pytest.raises(StatsError):
            convergence_trajectory([1.0])

    def test_level_edges_raise(self):
        with pytest.raises(StatsError):
            convergence_trajectory(X, level=0.0)
        with pytest.raises(StatsError):
            convergence_trajectory(X, level=1.0)


class TestPairedSpeedupTest:
    def test_log_scale_against_one(self):
        result, effect = paired_speedup_test(X)
        oracle = scipy_stats.wilcoxon(
            [math.log(s) for s in X], correction=False, method="approx"
        )
        assert result.p_value == pytest.approx(oracle.pvalue, abs=1e-9)
        assert effect > 0  # most ratios exceed 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(StatsError):
            paired_speedup_test([])
        with pytest.raises(StatsError):
            paired_speedup_test([1.1, -0.5])
        with pytest.raises(StatsError):
            paired_speedup_test([1.0, 1.0, 1.0])


class TestAnalyzeSpeedups:
    def test_bundle_is_complete_and_consistent(self):
        a = analyze_speedups(X, seed=3)
        assert a.n == len(X)
        assert a.distinct_setups == len(X)
        assert a.t_interval.method == "t"
        assert a.bca_interval.method == "BCa"
        assert a.geomean == pytest.approx(
            math.exp(sum(math.log(s) for s in X) / len(X))
        )
        assert a.direction in ("speedup", "slowdown", "inconclusive")

    def test_direction_tracks_effect_sign(self):
        slow = [1.0 / s for s in X]
        a = analyze_speedups(slow, seed=3)
        if a.significant:
            assert a.direction == "slowdown"

    def test_to_dict_is_the_manifest_stats_section(self):
        d = analyze_speedups(X, distinct_setups=8, seed=3).to_dict()
        assert d["n"] == len(X)
        assert d["distinct_setups"] == 8
        assert d["aggregate"]["method"] == "geometric-mean"
        assert {iv["method"] for iv in d["intervals"]} == {"t", "BCa"}
        assert d["tests"][0]["method"] == "wilcoxon-signed-rank"
        assert "recommended_n" in d["sample_size"]
        assert d["verdict"]["direction"] == "speedup"
        import json

        json.dumps(d)  # JSON-serializable as recorded

    def test_skew_note_appears_past_threshold(self):
        skewed = [1.0, 1.01, 1.02, 1.01, 1.0, 1.02, 1.01, 3.0]
        a = analyze_speedups(skewed, seed=1)
        assert abs(a.skew) > SKEW_THRESHOLD
        assert any("BCa" in line for line in a.summary_lines())

    def test_distinct_setups_cannot_exceed_n(self):
        with pytest.raises(StatsError):
            analyze_speedups(X, distinct_setups=len(X) + 1)

    def test_degenerate_sample_raises(self):
        with pytest.raises(StatsError):
            analyze_speedups([1.1])
        with pytest.raises(StatsError):
            analyze_speedups([1.1, 1.1, 1.1])


class TestExactBits:
    """The manifest ``stats`` section and the printed t interval are
    archived output: a refactor of the statistics code must keep every
    bit of them, so their digest is pinned here."""

    SAMPLE = [
        1.031, 1.072, 0.987, 1.046, 1.118, 1.009,
        1.064, 1.253, 1.027, 0.994, 1.081, 1.055,
    ]
    SHA256 = "a382cd602a9603f0137c9306e459ad798604886782a1f7b13e76e2933a7dd528"

    def test_analysis_and_t_interval_bits_are_pinned(self):
        blob = canonical_json(
            analyze_speedups(self.SAMPLE, seed=11).to_dict()
        ) + str(t_confidence_interval(self.SAMPLE))
        assert hashlib.sha256(blob.encode()).hexdigest() == self.SHA256

    SAMPLE_16 = [
        1.031, 1.072, 0.987, 1.046, 1.118, 1.009, 1.064, 1.253,
        1.027, 0.994, 1.081, 1.055, 1.122, 0.978, 1.039, 1.097,
    ]
    SAMPLE_33 = [0.95 + ((i * 7919) % 101) / 400 for i in range(33)]

    @pytest.mark.parametrize(
        "sample, sha256",
        [
            (
                SAMPLE_16,
                "9580ff7d6c8d28e7cf36e37c6970c3d8050a9111e132683f67489a50e6b1d49d",
            ),
            (
                SAMPLE_33,
                "f974e6c0d867abaa63798271e8785a7db8b0ebcd773387da0363777ba5d0a95b",
            ),
        ],
        ids=["n16", "n33"],
    )
    def test_bca_interval_bits_are_pinned(self, sample, sha256):
        # The printed interval plus both bounds' exact bits: BCa's draw
        # stream crosses a 256-value lane boundary on both samples.
        ci = bca_confidence_interval(sample, seed=3)
        blob = str(ci) + ci.lo.hex() + ci.hi.hex()
        assert hashlib.sha256(blob.encode()).hexdigest() == sha256
