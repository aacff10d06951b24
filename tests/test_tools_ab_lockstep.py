"""Tests of the lock-step A/B driver, ``tools/ab_lockstep.py``."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOL = REPO_ROOT / "tools" / "ab_lockstep.py"


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_same_tree_on_both_sides_reports_equal_digests():
    # the smallest stream: 130 admissions of the recurring stream, two blocks
    result = run_tool(
        str(REPO_ROOT), str(REPO_ROOT),
        "--workload", "stream-recurring", "--seed", "3", "--seconds", "1",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == (
        "stream-recurring seed 3: 2 blocks of 100 operation(s), parent first in even blocks"
    )
    assert lines[3].startswith("per-block speed-up (parent s / change s): ")
    assert lines[4].startswith("throughput ratio (change / parent): ")
    assert lines[5].startswith("p50 ratio (parent / change): ")
    assert lines[6].startswith("digests: parent ") and lines[6].endswith(": equal")


def test_service_workload_reads_the_schedules_in_process():
    # 200 service-shaped admissions over the tenants, then GET /schedule
    # for each tenant through the benchmark's own check
    result = run_tool(
        str(REPO_ROOT), str(REPO_ROOT),
        "--workload", "service-http", "--seed", "3", "--seconds", "1",
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == (
        "service-http seed 3: 2 blocks of 100 operation(s), parent first in even blocks"
    )
    assert lines[6].startswith("digests: parent ") and lines[6].endswith(": equal")


def test_both_checkouts_are_required():
    result = run_tool(str(REPO_ROOT))
    assert result.returncode == 2
    assert "PARENT and CHANGE checkouts are required" in result.stderr
