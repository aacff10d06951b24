"""Shared plumbing of the harness: paths, statistics, set-up probes, memory,
digests and the result line.

Every workload module returns an :class:`Outcome`; :func:`emit` prints it
as a readable table followed by the one-line JSON result (always the last
line of standard output).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of the runs (stores, daemon specs, span dumps).
WORK = HERE / ".work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Upper limit on any single child process wait, far below the 180 s a
#: run may take; a hung child fails the run instead of hanging it.
CHILD_TIMEOUT = 120.0



class BenchError(RuntimeError):
    """The harness could not carry out a run (not a measured failure)."""


def require_source() -> None:
    """Put the checkout's ``src`` on the import path, or stop with an error."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment of every child process: the checkout's sources first."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def work_dir(workload: str) -> Path:
    """A fresh per-run scratch directory under :data:`WORK`."""
    path = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def latency_metrics(seconds: Sequence[float]) -> Dict[str, float]:
    """p50 and p90 of per-operation latencies, in milliseconds.

    Every workload's run at ``--seconds 20`` has at least 180 operations,
    so eighteen or more samples lie beyond the p90.  A p99 would need
    1000, which the campaign's 180 shards do not reach, and every workload
    must report every end-to-end metric.
    """
    ms = [1000.0 * s for s in seconds]
    return {"latency_p50_ms": percentile(ms, 50), "latency_p90_ms": percentile(ms, 90)}


def digest(payload: object) -> str:
    """Short SHA-256 of the canonical JSON form of *payload*.

    Floats serialise through ``repr``, so equal digests mean bit-identical
    outputs.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (Linux reports KiB) of *who*, in MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# set-up time
# ---------------------------------------------------------------------- #
def probe_cold_start(workload: str, seed: int, seconds: int) -> float:
    """Seconds from spawning ``probe.py`` until it reports ready.

    The probe is a cold interpreter that performs the workload's whole
    set-up (imports, platform, inputs, session) and then exits.
    """
    command = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up probe of {workload} failed (exit code {code})")
    return elapsed


def median_setup(once: Callable[[], float], count: int) -> List[float]:
    """Run *count* cold set-ups back to back and return their times.

    The caller reports the median; a single cold start is too noisy.
    """
    samples = []
    for _ in range(count):
        gc.collect()
        samples.append(once())
    return samples


# ---------------------------------------------------------------------- #
# outcome and result line
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Record an output-check violation when *ok* is false."""
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        """True when every check passed and no operation failed."""
        return not self.problems and self.failed == 0


def declared_metrics(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a mode."""
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        spec = json.load(handle)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def emit(outcome: Outcome, trace: bool) -> int:
    """Print the readable report and the JSON result line; return the exit code."""
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(outcome.metrics))
    outcome.check(not missing, f"metrics not measured: {missing}")
    for key, value in sorted(outcome.notes.items()):
        print(f"# {key}: {value}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    metrics = {}
    for name in units:
        if name not in outcome.metrics:
            continue
        value = float(outcome.metrics[name])
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if outcome.correct else 1
