"""The suite's LCG computed in lanes equals its one-step recurrence.

``lcg_values`` steps its first 256 states one at a time and then
advances 256 lanes per big-integer multiply-add; ``lcg_stream`` is a
view of the same iterator, and BCa resampling reads the same values
256 at a time from ``lcg_rounds``.
Every value, and every bootstrap estimate built from them, must equal
the per-step reference in ``tests/conftest.py``, including counts just
below, at and past a lane boundary.
"""

from itertools import islice

import pytest

from repro.stats.bootstrap import _bootstrap_estimates
from repro.workloads.base import lcg_rounds, lcg_stream, lcg_values
from tests.conftest import reference_bootstrap_estimates, reference_lcg_stream

SEEDS = [0, 1, 7919, 2**62 + 5]
COUNTS = [0, 1, 255, 256, 257, 511, 512, 513, 32_003]


def _reference(seed, count):
    rng = reference_lcg_stream(seed)
    return [rng() for __ in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", COUNTS)
class TestLcgLanes:
    def test_values_equal_the_recurrence(self, seed, count):
        assert list(islice(lcg_values(seed), count)) == _reference(seed, count)

    def test_stream_equals_the_recurrence(self, seed, count):
        rng = lcg_stream(seed)
        assert [rng() for __ in range(count)] == _reference(seed, count)


@pytest.mark.parametrize("seed", SEEDS)
def test_rounds_joined_are_the_values(seed):
    rounds = list(islice(lcg_rounds(seed), 130))
    assert all(isinstance(r, tuple) and len(r) == 256 for r in rounds)
    joined = [v for r in rounds for v in r]
    assert joined == list(islice(lcg_values(seed), 130 * 256))
    assert joined[:513] == _reference(seed, 513)


def _mean(xs):
    return sum(xs) / len(xs)


@pytest.mark.parametrize("n", [2, 12, 16, 17, 33])
@pytest.mark.parametrize("n_resamples", [1, 7, 2000])
def test_bootstrap_estimates_equal_the_per_draw_loop(n, n_resamples):
    values = [1.0 + ((i * 37) % 11) / 50 + i / 1000 for i in range(n)]
    assert _bootstrap_estimates(
        values, _mean, n_resamples, seed=5
    ) == reference_bootstrap_estimates(values, _mean, n_resamples, seed=5)


@pytest.mark.parametrize("n", [255, 256, 257, 600])
def test_bootstrap_estimates_for_samples_as_long_as_a_round(n):
    # A resample that spans rounds is carried over in the buffer.
    values = [1.0 + ((i * 37) % 11) / 50 + i / 1000 for i in range(n)]
    assert _bootstrap_estimates(
        values, _mean, 7, seed=5
    ) == reference_bootstrap_estimates(values, _mean, 7, seed=5)
