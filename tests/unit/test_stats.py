"""Unit tests: statistics (distributions cross-checked against scipy)."""

import math
import random

import pytest
import scipy.stats

import repro.stats.base
from repro.core.errors import StatsError
from repro.stats import (
    ConfidenceInterval,
    SummaryStats,
    bca_confidence_interval,
    geometric_mean,
    incomplete_beta,
    kernel_density,
    normal_cdf,
    normal_ppf,
    quantile,
    skewness,
    t_cdf,
    t_confidence_interval,
    t_ppf,
)
from tests.conftest import reference_normal_ppf, reference_t_ppf


class TestDistributionsAgainstScipy:
    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 0.5, 2.5])
    def test_normal_cdf(self, x):
        assert normal_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), abs=1e-10)

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.975, 0.999])
    def test_normal_ppf(self, p):
        assert normal_ppf(p) == pytest.approx(scipy.stats.norm.ppf(p), abs=1e-7)

    @pytest.mark.parametrize("df", [1, 2, 5, 10, 30, 100])
    @pytest.mark.parametrize("t", [-2.5, -0.5, 0.0, 1.0, 3.0])
    def test_t_cdf(self, df, t):
        assert t_cdf(t, df) == pytest.approx(
            scipy.stats.t.cdf(t, df), abs=1e-9
        )

    @pytest.mark.parametrize("df", [1, 3, 9, 29])
    @pytest.mark.parametrize("p", [0.025, 0.1, 0.5, 0.9, 0.975])
    def test_t_ppf(self, df, p):
        assert t_ppf(p, df) == pytest.approx(
            scipy.stats.t.ppf(p, df), rel=1e-6, abs=1e-7
        )

    def test_incomplete_beta_against_scipy(self):
        for a, b, x in [(0.5, 0.5, 0.3), (2, 3, 0.7), (5, 1, 0.99)]:
            assert incomplete_beta(a, b, x) == pytest.approx(
                scipy.stats.beta.cdf(x, a, b), abs=1e-10
            )

    @pytest.mark.parametrize(
        "df", [2, 3, 5, 10, 15, 30, 71, 73, 100, 1e3, 1e4, 1e5]
    )
    def test_t_cdf_near_the_quantiles(self, df):
        # The premise of the certified quantile brackets: t_cdf is within
        # BRACKET_MARGIN / 2 of the true CDF.  Checked here with 500x room.
        assert round(repro.stats.base.BRACKET_MARGIN / 1e-10) >= 1000
        for q in (0.55, 0.75, 0.9, 0.975, 0.995, 0.9995):
            quantile_t = t_ppf(q, df)
            for f in (0.5, 0.99, 1 - 1e-6, 1, 1 + 1e-6, 1.01, 2):
                t = quantile_t * f
                assert abs(t_cdf(t, df) - scipy.stats.t.cdf(t, df)) < 1e-10

    def test_ppf_domain_checked(self):
        with pytest.raises(ValueError):
            normal_ppf(0.0)
        with pytest.raises(ValueError):
            t_ppf(1.0, 5)


class TestQuantileExactness:
    """The bisections stop at their fixed point, yet return the float the
    fixed-count loops (tests/conftest.py) return, bit for bit."""

    _rng = random.Random(13)
    PS = [1e-9, 0.025, 0.5, 0.975, 1 - 1e-9] + [
        _rng.random(), _rng.random(), _rng.random()
    ]
    DFS = [0.5, 1, 2.5, 15, 71, 73, 1e5]

    @pytest.mark.parametrize("p", PS)
    def test_normal_ppf_matches_fixed_count_loop(self, p):
        assert normal_ppf(p).hex() == reference_normal_ppf(p).hex()

    @pytest.mark.parametrize("df", DFS)
    @pytest.mark.parametrize("p", PS)
    def test_t_ppf_matches_fixed_count_loop(self, p, df):
        assert t_ppf(p, df).hex() == reference_t_ppf(p, df).hex()

    @pytest.mark.parametrize("df", DFS)
    def test_t_ppf_stops_at_the_fixed_point(self, df, monkeypatch):
        calls = []

        def counting_t_cdf(t, d):
            calls.append(t)
            return t_cdf(t, d)

        monkeypatch.setattr(repro.stats.base, "t_cdf", counting_t_cdf)
        t_ppf(0.975, df)
        # The bracket stops changing after at most 73 of the 400 halvings.
        assert len(calls) <= 74


class TestSummaryStats:
    def test_known_sample(self):
        s = SummaryStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.std == pytest.approx(
            math.sqrt(sum((v - 2.5) ** 2 for v in [1, 2, 3, 4]) / 3)
        )

    def test_single_value(self):
        s = SummaryStats.from_values([7.0])
        assert s.std == 0.0
        assert s.q1 == s.q3 == 7.0

    def test_spread(self):
        assert SummaryStats.from_values([2.0, 4.0]).spread == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SummaryStats.from_values([])

    def test_quantile_interpolation(self):
        xs = [0.0, 10.0]
        assert quantile(xs, 0.5) == 5.0
        assert quantile(xs, 0.25) == 2.5

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestIntervals:
    def test_t_interval_matches_scipy(self):
        values = [10.0, 12.0, 9.0, 11.0, 10.5, 12.5, 9.5]
        ours = t_confidence_interval(values, level=0.95)
        n = len(values)
        mean = sum(values) / n
        se = scipy.stats.sem(values)
        lo, hi = scipy.stats.t.interval(0.95, n - 1, loc=mean, scale=se)
        assert ours.lo == pytest.approx(lo, rel=1e-6)
        assert ours.hi == pytest.approx(hi, rel=1e-6)

    def test_interval_contains_mean(self):
        ci = t_confidence_interval([1.0, 2.0, 3.0])
        assert ci.contains(ci.mean)

    def test_wider_at_higher_level(self):
        values = [1.0, 2.0, 3.0, 2.5, 1.5]
        assert (
            t_confidence_interval(values, 0.99).width
            > t_confidence_interval(values, 0.90).width
        )

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            t_confidence_interval([1.0])

    def test_interval_str(self):
        ci = ConfidenceInterval(lo=0.9, hi=1.1, level=0.95, mean=1.0)
        assert "0.9" in str(ci) and "95%" in str(ci)

    def test_interval_str_names_its_method(self):
        ci = ConfidenceInterval(lo=0.9, hi=1.1, level=0.95, mean=1.0)
        assert ci.method == "t" and "t" in str(ci)


class TestIntervalHardening:
    """Degenerate inputs raise typed StatsError (still a ValueError, so
    pre-existing callers keep working)."""

    def test_stats_error_is_a_value_error(self):
        assert issubclass(StatsError, ValueError)

    @pytest.mark.parametrize(
        "interval", [t_confidence_interval, bca_confidence_interval]
    )
    def test_small_samples_raise(self, interval):
        with pytest.raises(StatsError):
            interval([])
        with pytest.raises(StatsError):
            interval([1.0])

    @pytest.mark.parametrize(
        "interval", [t_confidence_interval, bca_confidence_interval]
    )
    def test_zero_variance_raises(self, interval):
        with pytest.raises(StatsError):
            interval([2.0, 2.0, 2.0])

    @pytest.mark.parametrize(
        "interval", [t_confidence_interval, bca_confidence_interval]
    )
    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5])
    def test_level_edges_raise(self, interval, level):
        with pytest.raises(StatsError):
            interval([1.0, 2.0, 3.0], level=level)

    def test_error_messages_name_the_problem(self):
        with pytest.raises(StatsError, match="at least 2"):
            t_confidence_interval([1.0])
        with pytest.raises(StatsError, match="level"):
            t_confidence_interval([1.0, 2.0], level=1.0)


class TestSkewness:
    def test_symmetric_sample_is_zero(self):
        assert skewness([1.0, 2.0, 3.0]) == pytest.approx(0.0)

    def test_matches_scipy_bias_corrected(self):
        values = [1.0, 1.1, 1.2, 1.1, 1.0, 3.0, 1.2, 1.1]
        assert skewness(values) == pytest.approx(
            scipy.stats.skew(values, bias=False)
        )

    def test_degenerate_samples_report_no_asymmetry(self):
        assert skewness([]) == 0.0
        assert skewness([1.0, 2.0]) == 0.0
        assert skewness([5.0, 5.0, 5.0]) == 0.0


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestKernelDensity:
    def test_density_integrates_to_one(self):
        vs = kernel_density([1.0, 2.0, 2.5, 3.0, 10.0], points=256)
        step = vs.grid[1] - vs.grid[0]
        assert sum(vs.density) * step == pytest.approx(1.0, abs=0.02)

    def test_peak_near_mode(self):
        vs = kernel_density([5.0] * 10 + [1.0], points=128)
        peak = vs.grid[vs.density.index(max(vs.density))]
        assert abs(peak - 5.0) < 1.0

    def test_degenerate_sample(self):
        vs = kernel_density([3.0, 3.0, 3.0])
        assert vs.grid == (3.0,)
        assert vs.density == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kernel_density([])
