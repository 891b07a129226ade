"""Integration: crash-consistency harness (tools/crashsim.py).

Each test runs a *real* sweep in a subprocess, SIGKILLs it at a
deterministic barrier (or SIGSTOPs the whole process group), resumes,
and asserts recovery is byte-identical to an uninterrupted run — the
acceptance criterion of the storage-chaos subsystem.  The harness does
all the asserting; these tests check its verdict and exercise exactly
the CI crash-smoke entry points.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.slow

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CRASHSIM = os.path.join(REPO, "tools", "crashsim.py")


def run_crashsim(args, tmp_path):
    proc = subprocess.run(
        [sys.executable, CRASHSIM] + args + ["--workdir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert proc.returncode == 0, (
        f"crashsim {' '.join(args)} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


@pytest.mark.parametrize(
    "barrier", ["journal:3", "warm-journal:3", "store-put:2", "archive:1"]
)
def test_sigkill_at_barrier_then_resume_is_byte_identical(
    barrier, tmp_path
):
    out = run_crashsim(["cycle", "--barrier", barrier], tmp_path)
    assert f"PASS {barrier}" in out


def test_parent_sigstop_causes_no_heartbeat_false_positives(tmp_path):
    out = run_crashsim(["sigstop"], tmp_path)
    assert "PASS sigstop" in out


def test_bad_barrier_is_rejected_loudly(tmp_path):
    proc = subprocess.run(
        [sys.executable, CRASHSIM, "cycle", "--barrier", "meteor:1"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "bad barrier" in proc.stderr
