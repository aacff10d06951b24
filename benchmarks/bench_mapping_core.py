"""Benchmark E10 -- the optimized placement core against the pre-refactor one.

The mapping phase dominates the evaluation campaign: every ready task is
placed by evaluating all clusters, and every evaluation used to pay an
O(P) ``np.partition`` over the processor free times per candidate
allocation size.  This benchmark replays a Figure-3-scale mapping
workload (10 concurrent random PTGs of 10/20/50 tasks on a full
Grid'5000 site) through

1. the optimized core (incrementally sorted timelines, batched EFT
   candidates, heap ready queue, memoized communication estimates), and
2. the pre-refactor reference frozen in ``tests/oracles/mapping.py``,

checks that both produce **bit-identical schedules**, and asserts the
optimized core is at least 2x faster.  A ``BENCH_mapping_core.json``
summary records the wall times and the speedup.

Run standalone with ``PYTHONPATH=src python benchmarks/bench_mapping_core.py``
or through pytest-benchmark with
``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

try:
    from benchmarks.conftest import full_scale, write_result
except ModuleNotFoundError:  # standalone: python benchmarks/bench_mapping_core.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale, write_result
from repro.allocation.scrap import ScrapMaxAllocator
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.mapping.base import AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.platform import grid5000
from tests.oracles.mapping import ReferenceReadyListMapper, reference_implementation

#: Number of timed repetitions per implementation (best-of is reported).
ROUNDS = 3


def _fig3_scale_inputs():
    """Allocated fig3-scale workloads: 10 random PTGs per seed, full site."""
    platform = grid5000.rennes()
    seeds = (2009, 2010, 2011) if full_scale() else (2009,)
    allocator = ScrapMaxAllocator()
    bundles = []
    for seed in seeds:
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=10, seed=seed))
        bundles.append(
            [AllocatedPTG(p, allocator.allocate(p, platform, beta=1.0)) for p in ptgs]
        )
    return platform, bundles


def _time_mapper(make_mapper, bundles, platform, rounds=ROUNDS):
    """Best wall time of mapping every bundle, and the produced schedules."""
    best = float("inf")
    schedules = None
    for _ in range(rounds):
        mapper = make_mapper()
        tic = time.perf_counter()
        produced = [mapper.map(bundle, platform) for bundle in bundles]
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


def run_mapping_core():
    """Time optimized vs reference mapping and verify identical output."""
    platform, bundles = _fig3_scale_inputs()
    n_tasks = sum(a.ptg.n_tasks for bundle in bundles for a in bundle)

    fast_time, fast_schedules = _time_mapper(ReadyListMapper, bundles, platform)
    with reference_implementation():
        ref_time, ref_schedules = _time_mapper(
            ReferenceReadyListMapper, bundles, platform
        )

    _assert_identical(fast_schedules, ref_schedules)
    return {
        "platform": platform.name,
        "bundles": len(bundles),
        "tasks_mapped": n_tasks,
        "optimized_seconds": fast_time,
        "reference_seconds": ref_time,
        "speedup": ref_time / fast_time,
        "tasks_per_second_optimized": n_tasks / fast_time,
    }


def bench_mapping_core(benchmark):
    """Old-vs-new placement core on a fig3-scale mapping workload."""
    summary = benchmark.pedantic(run_mapping_core, rounds=1, iterations=1)
    write_result("BENCH_mapping_core.json", json.dumps(summary, indent=2))
    assert summary["speedup"] >= 2.0, (
        f"optimized mapping core is only {summary['speedup']:.2f}x faster "
        f"({summary['optimized_seconds']:.3f}s vs {summary['reference_seconds']:.3f}s)"
    )


if __name__ == "__main__":
    result = run_mapping_core()
    print(json.dumps(result, indent=2))
    assert result["speedup"] >= 2.0, f"speedup {result['speedup']:.2f}x < 2x"
