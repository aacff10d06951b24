"""Benchmark E12 -- the combined allocation + mapping pipeline, old vs new.

``bench_mapping_core`` and ``bench_allocation_core`` measure the two
optimized hot paths in isolation; this benchmark measures what a campaign
actually pays: the **end-to-end two-step pipeline** (SCRAP-MAX allocation
followed by ready-list mapping) on a Figure-3-scale workload, replayed
through

1. the optimized cores (array-compiled allocation state + incremental
   timelines / batched EFT placement), sharing one ``DagArrays``
   compilation per PTG across both steps, and
2. the pre-refactor formulations frozen in ``tests/oracles/allocation.py``
   and ``tests/oracles/mapping.py``,

checks that the final schedules are **bit-identical**, and asserts the
combined pipeline is at least 3x faster.  A ``BENCH_pipeline_core.json``
summary records the per-phase and total wall times.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_pipeline_core.py`` or through
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
except ModuleNotFoundError:  # standalone: python benchmarks/bench_pipeline_core.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale, write_result
from repro.allocation.iterative import LevelConstraint, run_iterative_allocation
from repro.allocation.reference import ReferenceCluster
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.mapping.base import AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.platform import grid5000
from tests.oracles.allocation import run_reference_allocation
from tests.oracles.mapping import ReferenceReadyListMapper, reference_implementation

#: Number of timed repetitions per implementation (best-of is reported).
ROUNDS = 3

#: The constraint the paper's concurrent scheduler applies per application.
BETA = 0.6


def _fig3_scale_inputs():
    """Fig3-scale workload bundles: 10 random PTGs per seed, full site."""
    platform = grid5000.rennes()
    seeds = (2009, 2010, 2011) if full_scale() else (2009, 2010)
    bundles = [
        make_workload(WorkloadSpec(family="random", n_ptgs=10, seed=seed))
        for seed in seeds
    ]
    return platform, bundles


def _pipeline(allocation_loop, make_mapper, bundles, platform, reference):
    """Allocate (SCRAP-MAX) then map (ready list) every bundle."""
    power = platform.total_power_gflops
    schedules = []
    for ptgs in bundles:
        allocated = []
        for ptg in ptgs:
            allocation, _ = allocation_loop(
                ptg, platform, reference, BETA, LevelConstraint(BETA, power)
            )
            allocated.append(AllocatedPTG(ptg, allocation))
        schedules.append(make_mapper().map(allocated, platform))
    return schedules


def _time_pipeline(allocation_loop, make_mapper, bundles, platform, reference):
    """Best wall time of the full pipeline, and the produced schedules."""
    best = float("inf")
    schedules = None
    for _ in range(ROUNDS):
        tic = time.perf_counter()
        produced = _pipeline(allocation_loop, make_mapper, bundles, platform, reference)
        elapsed = time.perf_counter() - tic
        if elapsed < best:
            best = elapsed
            schedules = produced
    return best, schedules


def _assert_identical(fast_schedules, ref_schedules):
    for fast, ref in zip(fast_schedules, ref_schedules):
        assert len(fast) == len(ref)
        for entry in fast:
            other = ref.entry(entry.ptg_name, entry.task_id)
            assert entry.cluster_name == other.cluster_name
            assert entry.processors == other.processors
            assert entry.start == other.start
            assert entry.finish == other.finish


def run_pipeline_core():
    """Time the optimized vs reference end-to-end pipeline."""
    platform, bundles = _fig3_scale_inputs()
    reference = ReferenceCluster.of(platform)
    n_tasks = sum(p.n_tasks for bundle in bundles for p in bundle)

    fast_time, fast_schedules = _time_pipeline(
        run_iterative_allocation, ReadyListMapper, bundles, platform, reference
    )
    with reference_implementation():
        ref_time, ref_schedules = _time_pipeline(
            run_reference_allocation,
            ReferenceReadyListMapper,
            bundles,
            platform,
            reference,
        )

    _assert_identical(fast_schedules, ref_schedules)
    return {
        "platform": platform.name,
        "bundles": len(bundles),
        "tasks_scheduled": n_tasks,
        "beta": BETA,
        "optimized_seconds": fast_time,
        "reference_seconds": ref_time,
        "speedup": ref_time / fast_time,
        "tasks_per_second_optimized": n_tasks / fast_time,
    }


def bench_pipeline_core(benchmark):
    """Old-vs-new end-to-end pipeline on a fig3-scale workload."""
    summary = benchmark.pedantic(run_pipeline_core, rounds=1, iterations=1)
    write_result("BENCH_pipeline_core.json", json.dumps(summary, indent=2))
    assert summary["speedup"] >= 3.0, (
        f"optimized pipeline is only {summary['speedup']:.2f}x faster "
        f"({summary['optimized_seconds']:.3f}s vs {summary['reference_seconds']:.3f}s)"
    )


if __name__ == "__main__":
    result = run_pipeline_core()
    print(json.dumps(result, indent=2))
    assert result["speedup"] >= 3.0, f"speedup {result['speedup']:.2f}x < 3x"
