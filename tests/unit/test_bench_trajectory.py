"""The committed performance trajectory: one ``BENCH_<workload>.json``
per workload at the repo root.

Each entry is one end-to-end metric of one performance change, measured
as alternating parent/change pairs of perfbench runs: each side's median
and quartiles, how many pairs ran, in how many the change read better,
on which seeds, and each side's median host-speed index.  A field that
a measurement did not record is ``null``, never left out.
"""

import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCHMARK = json.load(_fh)

WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
METRICS = {m["name"]: m["unit"] for m in _BENCHMARK["end_to_end"]}
ENTRY_KEYS = {
    "pr", "title", "metric", "unit", "parent", "change",
    "pairs", "wins", "seeds", "host_index",
}
SIDE_KEYS = {"median", "q1", "q3"}


def _load(workload):
    with open(os.path.join(ROOT, f"BENCH_{workload}.json")) as fh:
        return json.load(fh)


def test_one_file_per_benchmark_workload():
    found = sorted(
        os.path.basename(p)[len("BENCH_"):-len(".json")]
        for p in glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    )
    assert found == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_entries_carry_every_key(workload):
    data = _load(workload)
    assert data["workload"] == workload
    assert data["entries"]
    for entry in data["entries"]:
        assert set(entry) == ENTRY_KEYS, entry
        assert isinstance(entry["pr"], int)
        assert METRICS[entry["metric"]] == entry["unit"]
        for side in ("parent", "change"):
            assert set(entry[side]) == SIDE_KEYS
            q1, median, q3 = (entry[side][k] for k in ("q1", "median", "q3"))
            if None not in (q1, median, q3):
                assert q1 <= median <= q3, entry
        pairs, wins = entry["pairs"], entry["wins"]
        assert pairs is None or isinstance(pairs, int) and pairs >= 1
        assert wins is None or pairs is None or 0 <= wins <= pairs
        seeds = entry["seeds"]
        assert seeds is None or all(isinstance(s, int) for s in seeds)
        if seeds is not None and pairs is not None:
            assert len(seeds) == pairs
        host = entry["host_index"]
        assert host is None or set(host) == {"parent", "change"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_change_is_recorded_once_per_metric(workload):
    keys = [(e["pr"], e["metric"]) for e in _load(workload)["entries"]]
    assert len(keys) == len(set(keys))
    assert [pr for pr, __ in keys] == sorted(pr for pr, __ in keys)
