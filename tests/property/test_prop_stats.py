"""Property tests: statistics against scipy and basic invariants."""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
import scipy.stats
from hypothesis import assume, given, settings

import repro.stats.samplesize
from repro.stats import (
    SummaryStats,
    kernel_density,
    normal_ppf,
    quantile,
    required_setups,
    t_confidence_interval,
    t_ppf,
)
from tests.conftest import (
    reference_normal_ppf,
    reference_required_setups,
    reference_t_ppf,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=2, max_size=40)


@settings(max_examples=150, deadline=None)
@given(samples)
def test_summary_ordering_invariants(values):
    s = SummaryStats.from_values(values)
    assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum
    # The mean is computed as sum/n and may land 1 ulp outside the hull.
    slack = 4 * abs(s.maximum - s.minimum) * 1e-15 + 1e-300
    ulp = max(abs(s.minimum), abs(s.maximum)) * 1e-15
    assert s.minimum - slack - ulp <= s.mean <= s.maximum + slack + ulp
    assert s.std >= 0


@settings(max_examples=150, deadline=None)
@given(samples)
def test_t_interval_brackets_mean_and_matches_scipy(values):
    assume(SummaryStats.from_values(values).std > 1e-12)
    ci = t_confidence_interval(values, level=0.95)
    assert ci.lo <= ci.mean <= ci.hi
    n = len(values)
    mean = sum(values) / n
    se = scipy.stats.sem(values)
    lo, hi = scipy.stats.t.interval(0.95, n - 1, loc=mean, scale=se)
    assert abs(ci.lo - lo) <= max(1e-6, abs(lo) * 1e-5)
    assert abs(ci.hi - hi) <= max(1e-6, abs(hi) * 1e-5)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.001, max_value=0.999))
def test_normal_ppf_inverts_cdf(p):
    assert scipy.stats.norm.cdf(normal_ppf(p)) == __import__(
        "pytest"
    ).approx(p, abs=1e-7)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=200),
)
def test_t_ppf_matches_scipy(p, df):
    ours = t_ppf(p, df)
    theirs = scipy.stats.t.ppf(p, df)
    assert abs(ours - theirs) <= max(1e-5, abs(theirs) * 1e-5)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.01, max_value=1e6),
)
def test_quantiles_match_fixed_count_bisection(p, df):
    # Stopping at the bracket's fixed point returns the same float the
    # fixed-count loops do.
    assert normal_ppf(p).hex() == reference_normal_ppf(p).hex()
    assert t_ppf(p, df).hex() == reference_t_ppf(p, df).hex()


@settings(max_examples=100, deadline=None)
@given(samples, st.floats(min_value=0.0, max_value=1.0))
def test_quantile_monotone_and_bounded(values, q):
    xs = sorted(values)
    v = quantile(xs, q)
    assert xs[0] <= v <= xs[-1]
    # Monotone in q:
    assert quantile(xs, max(0.0, q - 0.1)) <= v + 1e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=25))
def test_kde_density_nonnegative_and_normalized(values):
    assume(max(values) - min(values) > 1e-9)
    vs = kernel_density(values, points=128)
    assert all(d >= 0 for d in vs.density)
    step = vs.grid[1] - vs.grid[0]
    mass = sum(vs.density) * step
    if len(vs.grid) < 4096:  # grid resolved the bandwidth
        assert 0.9 < mass < 1.1
    else:
        # Outlier-dominated samples hit the grid-size cap; the Riemann
        # sum over undersampled spikes has no tight bound, so only the
        # sign is meaningful here.
        assert mass > 0.0


speedup_samples = st.lists(
    st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=60
)
levels = st.floats(min_value=0.01, max_value=0.999)
targets = st.floats(min_value=0.001, max_value=0.3)


def _no_bracket(p, df, start):
    return None


def _straddling_bracket(p, df, start):
    # Contains the quantile, so it is sound, but it is wide enough that
    # its ends nearly always fall on either side of a decision's step.
    t = t_ppf(p, df)
    return 0.5 * t, 2.0 * t


@settings(max_examples=200, deadline=None)
@given(speedup_samples, levels, targets)
def test_required_setups_equals_the_bisecting_reference(values, level, target):
    assert (
        required_setups(values, level, target).to_dict()
        == reference_required_setups(values, level, target).to_dict()
    )


@settings(max_examples=60, deadline=None)
@given(
    speedup_samples,
    levels,
    targets,
    st.sampled_from([_no_bracket, _straddling_bracket]),
)
def test_required_setups_falls_back_to_the_exact_quantile(
    values, level, target, bracket
):
    with mock.patch.object(repro.stats.samplesize, "t_ppf_bracket", bracket):
        got = required_setups(values, level, target).to_dict()
    assert got == reference_required_setups(values, level, target).to_dict()
