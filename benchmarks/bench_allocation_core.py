"""Benchmark E11 -- the array-compiled allocation core against the
pre-refactor one.

With the mapping hot path rebuilt (``bench_mapping_core``), the
CPA-family iterative allocation loop dominates every figure, campaign and
mu-sweep run: each of its up-to ``n_tasks * cap`` iterations used to
re-run a full dict-based critical-path DP plus a generator area sum, and
SCRAP repeated both after every tentative increment.  This benchmark
replays a Figure-3-scale allocation workload (10 concurrent random PTGs
of 10/20/50 tasks per seed on a full Grid'5000 site, across the four
procedures and three betas) through

1. the optimized core (:class:`repro.allocation.state.AllocationState`:
   precomputed duration/area/gain tables, incremental resource sums,
   array-compiled critical-path DP over the shared ``DagArrays``), and
2. the pre-refactor loop frozen in ``tests/oracles/allocation.py``,

checks that both produce **bit-identical allocations and iteration
stats**, and asserts the optimized core is at least 4x faster.  A
``BENCH_allocation_core.json`` summary records the wall times and the
speedup.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_allocation_core.py`` or through
pytest-benchmark with
``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

try:
    from benchmarks.conftest import full_scale, write_result
except ModuleNotFoundError:  # standalone: python benchmarks/bench_allocation_core.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale, write_result
from repro.allocation.iterative import (
    AreaConstraint,
    LevelConstraint,
    NoConstraint,
    run_iterative_allocation,
)
from repro.allocation.reference import ReferenceCluster
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform import grid5000
from tests.oracles.allocation import run_reference_allocation

#: Number of timed repetitions per implementation (best-of is reported).
ROUNDS = 3

#: Resource constraints exercised per (PTG, procedure).
BETAS = (0.25, 0.6, 1.0)

#: The four CPA-family procedures as (name, constraint factory, kwargs).
PROCEDURES = (
    ("HCPA", lambda beta, power: NoConstraint(), {}),
    ("HCPA-guarded", lambda beta, power: NoConstraint(), {"efficiency_threshold": 0.5}),
    ("SCRAP", AreaConstraint, {}),
    ("SCRAP-MAX", LevelConstraint, {}),
)


def _fig3_scale_inputs():
    """Fig3-scale allocation workloads: 10 random PTGs per seed, full site."""
    platform = grid5000.rennes()
    seeds = (2009, 2010, 2011) if full_scale() else (2009,)
    ptgs = []
    for seed in seeds:
        ptgs.extend(make_workload(WorkloadSpec(family="random", n_ptgs=10, seed=seed)))
    return platform, ptgs


def _run_all(loop, ptgs, platform, reference):
    """Allocate every (PTG, procedure, beta) combination with *loop*."""
    power = platform.total_power_gflops
    outcomes = []
    for ptg in ptgs:
        for beta in BETAS:
            for name, make_constraint, kwargs in PROCEDURES:
                allocation, stats = loop(
                    ptg, platform, reference, beta,
                    make_constraint(beta, power), **kwargs
                )
                outcomes.append((allocation.as_dict(), stats))
    return outcomes


def _time_loop(loop, ptgs, platform, reference, rounds=ROUNDS):
    """Best wall time of allocating every combination, and the outcomes."""
    best = float("inf")
    outcomes = None
    for _ in range(rounds):
        tic = time.perf_counter()
        produced = _run_all(loop, ptgs, platform, reference)
        elapsed = time.perf_counter() - tic
        if elapsed < best:
            best = elapsed
            outcomes = produced
    return best, outcomes


def run_allocation_core():
    """Time optimized vs reference allocation and verify identical output."""
    platform, ptgs = _fig3_scale_inputs()
    reference = ReferenceCluster.of(platform)
    n_tasks = sum(p.n_tasks for p in ptgs)
    n_allocations = len(ptgs) * len(BETAS) * len(PROCEDURES)

    fast_time, fast_outcomes = _time_loop(
        run_iterative_allocation, ptgs, platform, reference
    )
    ref_time, ref_outcomes = _time_loop(
        run_reference_allocation, ptgs, platform, reference
    )

    for (fast_alloc, fast_stats), (ref_alloc, ref_stats) in zip(
        fast_outcomes, ref_outcomes
    ):
        assert fast_alloc == ref_alloc
        assert fast_stats == ref_stats
    return {
        "platform": platform.name,
        "ptgs": len(ptgs),
        "tasks": n_tasks,
        "procedures": [name for name, _, _ in PROCEDURES],
        "betas": list(BETAS),
        "allocations": n_allocations,
        "optimized_seconds": fast_time,
        "reference_seconds": ref_time,
        "speedup": ref_time / fast_time,
        "allocations_per_second_optimized": n_allocations / fast_time,
    }


def bench_allocation_core(benchmark):
    """Old-vs-new allocation core on a fig3-scale workload."""
    summary = benchmark.pedantic(run_allocation_core, rounds=1, iterations=1)
    write_result("BENCH_allocation_core.json", json.dumps(summary, indent=2))
    assert summary["speedup"] >= 4.0, (
        f"optimized allocation core is only {summary['speedup']:.2f}x faster "
        f"({summary['optimized_seconds']:.3f}s vs {summary['reference_seconds']:.3f}s)"
    )


if __name__ == "__main__":
    result = run_allocation_core()
    print(json.dumps(result, indent=2))
    assert result["speedup"] >= 4.0, f"speedup {result['speedup']:.2f}x < 4x"
