"""Unit tests: ``tools/bench_compare.py``, the bench determinism gate.

Two benchmark result directories must agree on every deterministic
fact (artifact bytes, event counters); wall-clock gauges such as
``engine.ips`` are facts about one host and are never compared.
"""

import hashlib
import importlib.util
import json
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "tools", "bench_compare.py"
)


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_results(directory, instructions=1000, ips=2.5e6, created=1.0):
    """One bench's artifact and sidecar, shaped like ``publish`` writes."""
    directory.mkdir()
    text = "speedup table\n"
    (directory / "f1.txt").write_text(text)
    sidecar = {
        "created_unix": created,
        "artifact": {
            "file": "f1.txt",
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        },
        "metrics": {
            "counters": {"engine.instructions": instructions},
            "gauges": {"engine.ips": ips},
            "histograms": {},
        },
    }
    (directory / "f1.meta.json").write_text(json.dumps(sidecar))
    return str(directory)


class TestCompareDirs:
    def test_equal_directories_have_no_problems(self, bench_compare, tmp_path):
        a = write_results(tmp_path / "a")
        b = write_results(tmp_path / "b", created=2.0)
        assert bench_compare.compare_dirs(a, b) == []
        assert bench_compare.main([a, b]) == 0

    def test_counter_drift_is_flagged(self, bench_compare, tmp_path):
        a = write_results(tmp_path / "a")
        b = write_results(tmp_path / "b", instructions=1001)
        problems = bench_compare.compare_dirs(a, b)
        assert len(problems) == 1
        assert "engine.instructions" in problems[0]
        assert bench_compare.main([a, b]) == 1

    def test_wall_clock_only_drift_is_not_flagged(self, bench_compare, tmp_path):
        a = write_results(tmp_path / "a")
        b = write_results(tmp_path / "b", ips=1.0)
        assert bench_compare.compare_dirs(a, b) == []
        assert bench_compare.main([a, b]) == 0
