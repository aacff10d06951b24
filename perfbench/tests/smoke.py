"""Tiny-scale smoke runs of every benchmark workload.

Run with ``python3 -m pytest perfbench/tests/smoke.py -q`` from the
repository root (the file name keeps it out of the default test
collection; each test spawns the real command line).  For every workload:
two untraced runs with the same seed pass their output checks, report
every end-to-end metric and print the same digest; a traced run reports
every per-layer metric.  A directory holding only the benchmark must make
the command fail without a result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def digest_of(done: subprocess.CompletedProcess) -> str:
    lines = [line for line in done.stdout.splitlines() if line.startswith("# digest: ")]
    assert len(lines) == 1, done.stdout
    return lines[0].split(": ", 1)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outputs(workload):
    first, second = run(workload, 3, 0), run(workload, 3, 0)
    for done in (first, second):
        result = result_of(done)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        declared = {row["name"]: row["unit"] for row in SPEC["end_to_end"]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert digest_of(first) == digest_of(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    done = run(workload, 3, 1)
    result = result_of(done)
    assert result["correct"]
    assert set(result["metrics"]) == {row["name"] for row in SPEC["per_layer"]}
    assert digest_of(done) == digest_of(run(workload, 3, 0))
    assert result["metrics"]["allocation.calls"]["value"] > 0
    assert 0 < result["metrics"]["bench.trace_overhead"]["value"] < 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    done = run("stream-recurring", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
