"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import studies  # noqa: E402


# -- wrappers -------------------------------------------------------------------


def _originals(entries):
    out = []
    for e in entries:
        owner = sys.modules[e.module]
        parts = e.attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        out.append((owner, parts[-1], vars(owner)[parts[-1]]))
    return out


def test_tracer_wraps_and_restores_every_entry_point(tmp_path):
    tracer = sp.Tracer(str(tmp_path))
    with tracer:
        before = [fn.__wrapped__ for _owner, _attr, fn in _originals(sp.ENTRIES)]
    after = _originals(sp.ENTRIES)
    for original, (owner, attr, fn) in zip(before, after):
        assert fn is original, f"{owner.__name__}.{attr} not restored"
    assert sp._active is None


def test_tracer_restores_after_an_exception(tmp_path):
    import repro.core.experiment as experiment

    original = experiment.compile_program
    with pytest.raises(RuntimeError):
        with sp.Tracer(str(tmp_path)):
            assert experiment.compile_program is not original
            raise RuntimeError("boom")
    assert experiment.compile_program is original


def test_one_tracer_at_a_time(tmp_path):
    with sp.Tracer(str(tmp_path / "a")):
        with pytest.raises(RuntimeError):
            sp.Tracer(str(tmp_path / "b")).install()


def test_wrapper_records_a_span_with_its_note(tmp_path):
    import repro.store.store as store_mod

    entry = sp.Entry("store.get", "repro.store.store",
                     "MeasurementStore.get_measurement", "hit")
    original = store_mod.MeasurementStore.get_measurement
    try:
        store_mod.MeasurementStore.get_measurement = lambda self, *a: None
        tracer = sp.Tracer(str(tmp_path), [entry])
        with tracer:
            assert store_mod.MeasurementStore.get_measurement(object()) is None
        ((layer, name, start, end, note),) = tracer.spans
        assert (layer, name, note) == ("store.get", entry.attr, False)
        assert end >= start
    finally:
        store_mod.MeasurementStore.get_measurement = original


# -- partition --------------------------------------------------------------------


def span(layer, start, end):
    return (layer, layer, start, end, None)


def test_nested_span_time_is_left_out_of_the_parent():
    spans = [span("runner", 10, 110), span("engine", 30, 60), span("engine", 70, 90)]
    self_ns, other = sp.partition(spans, 0, 200)
    assert self_ns["engine"] == 50
    assert self_ns["runner"] == 50
    assert other == 100
    sp.check_partition(self_ns, other, 200)


def test_spans_are_clipped_to_the_window():
    self_ns, other = sp.partition([span("stats.analyze", -50, 50)], 0, 100)
    assert self_ns["stats.analyze"] == 50 and other == 50


def test_overlapping_threads_count_each_instant_once():
    # A WAL append on one thread while a worker runs the engine: the
    # instant goes to the layer first in PRECEDENCE.
    spans = [span("engine", 0, 100), span("wal", 40, 140)]
    self_ns, other = sp.partition(spans, 0, 200)
    assert (self_ns["engine"], self_ns["wal"], other) == (100, 40, 60)


def test_random_spans_partition_the_window_exactly():
    rng = random.Random(7)
    for _ in range(200):
        spans = []
        for _ in range(rng.randrange(1, 30)):
            a = rng.randrange(-100, 1100)
            spans.append(span(rng.choice(sp.PRECEDENCE), a, a + rng.randrange(0, 300)))
        self_ns, other = sp.partition(spans, 0, 1000)
        sp.check_partition(self_ns, other, 1000)


def test_partition_check_rejects_parts_that_do_not_sum():
    with pytest.raises(sp.PartitionError):
        sp.check_partition({"engine": 60, "runner": 30}, 9, 100)
    with pytest.raises(sp.PartitionError):
        sp.check_partition({"engine": 60.0, "runner": 30}, 10, 100)
    with pytest.raises(sp.PartitionError):
        sp.check_partition({"engine": 110, "runner": -20}, 10, 100)


def test_every_layer_has_a_self_metric():
    assert set(sp.SELF_METRIC) == set(sp.PRECEDENCE)
    assert {e.layer for e in sp.ENTRIES} | {"calib"} == set(sp.PRECEDENCE)


# -- percentiles --------------------------------------------------------------------


@pytest.mark.parametrize("n, p", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_is_the_highest_with_ten_beyond(n, p):
    values = list(range(n, 0, -1))
    got, value = run.tail_percentile(values)
    assert got == p
    assert n - value >= 10
    higher = [c for c in run.TAIL_CANDIDATES if c > p]
    assert all(run.beyond(c, n) < 10 for c in higher)


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(19)))


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert [run.percentile(values, p) for p in (1, 20, 21, 50, 100)] == [1, 1, 2, 3, 5]


# -- output digests and repeats -------------------------------------------------------


def test_digest_check_rejects_a_one_byte_change():
    doc = {"report": {"measured": 4, "status": "ok"}, "tables": "speedup 1.0231\n"}
    pins = {"w/v0": studies.digest(doc)}
    studies.check_digest("w/v0", doc, pins)
    changed = {"report": doc["report"], "tables": "speedup 1.0232\n"}
    with pytest.raises(studies.CheckFailed):
        studies.check_digest("w/v0", changed, pins)
    with pytest.raises(studies.CheckFailed):
        studies.check_digest("w/v1", doc, pins)


def test_repeats_of_one_input_must_make_the_same_calls():
    def execute(start, insns):
        return ("engine", "execute", start, start + 1, [insns, 2.5 * insns])

    same = [execute(0, 10), execute(10, 10), execute(20, 7)]
    repeats = [("a", 0, 5), ("a", 10, 15), ("b", 20, 25)]
    counts = run.check_repeats(same, repeats)
    assert counts["a"] == {"execute": 1, "instructions": 10, "cycles": 25.0}
    changed = [execute(0, 10), execute(10, 11), execute(20, 7)]
    with pytest.raises(studies.CheckFailed):
        run.check_repeats(changed, repeats)


def test_lease_round_trips_count_from_the_last_lease():
    def wal(kind, study, index, at):
        return ("wal", "ServiceWAL.append", at - 1, at, [kind, study, index])

    spans = [
        wal("lease", "s1", 0, 100), wal("lease", "s1", 1, 110),
        wal("lease", "s1", 0, 300),  # re-leased after a lost agent
        wal("complete", "s1", 1, 200), wal("complete", "s1", 0, 350),
        wal("lease", "s2", 0, 400), wal("complete", "s2", 0, 450),
        wal("done", "s1", -1, 500),
    ]
    assert sp.lease_round_trips(spans) == [90, 50, 50]
    assert sp.lease_round_trips(spans, "s1") == [90, 50]


def test_every_workload_input_is_pinned():
    for wl in studies.WORKLOADS.values():
        for label, _job in wl.pin_jobs():
            assert label in studies.PINS, label


# -- host normalization -----------------------------------------------------------------


def test_normalization_scales_by_the_local_kernel_time():
    ref = hostspeed.REFERENCE_NS
    assert hostspeed.normalized_ns((1000, ref)) == 1000
    assert hostspeed.normalized_ns((1500, 1.5 * ref)) == pytest.approx(1000)
    units = [(1000, ref), (3000, 1.5 * ref)]
    assert hostspeed.speed_index(units) == pytest.approx(3000 / 4000)


def test_timeline_normalizes_each_unit_by_the_kernel_around_it():
    import time

    ticks = iter(range(1, 1000))
    start = time.perf_counter_ns()
    timeline = hostspeed.Timeline(lambda: next(ticks))
    for _ in range(5):
        sum(range(1000))
        timeline.mark()
    elapsed = time.perf_counter_ns() - start
    assert sum(u[0] for u in timeline.units) <= elapsed
    assert [u[1] for u in timeline.units] == [1.5, 2.5, 3.5, 4.5, 5.5]


def test_units_with_kernel_runs_inside_take_their_median():
    ticks = iter([10, 50, 20, 30, 40, 60])
    timeline = hostspeed.Timeline(lambda: next(ticks))
    timeline.sample()
    timeline.sample()
    timeline.sample()
    assert timeline.mark()[1] == 30  # median of 10, 50, 20, 30 and 40
    assert timeline.mark()[1] == 50  # the boundary runs only: 40 and 60


def test_paused_work_is_left_out_of_the_unit():
    import time

    timeline = hostspeed.Timeline(lambda: 1)
    timeline.pause(lambda: time.sleep(0.05))
    assert timeline.mark()[0] < 0.04e9


def test_timed_normalizes_by_the_kernel_on_either_side():
    import time

    class Host:
        samples = iter([2, 4])

        def sample(self):
            return next(self.samples)

    seen = []
    raw, local = run.timed(Host(), lambda: "done",
                           lambda result: (seen.append(result), time.sleep(0.05)))
    assert seen == ["done"] and 0 <= raw < 0.04e9 and local == 3
    ref = hostspeed.REFERENCE_NS
    assert run.median_time([(10, ref), (30, 2 * ref), (50, ref)]) == (15, 30)


def test_kernel_is_deterministic_work():
    table = hostspeed.make_table()
    assert hostspeed.kernel(table) == hostspeed.kernel(table)
    assert len(table) == 1 << hostspeed.TABLE_BITS
