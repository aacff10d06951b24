"""Micro-benchmarks of the scheduling components.

Not part of the paper's evaluation, but useful to keep an eye on the
cost of the building blocks (allocation, mapping, simulation) and to
catch algorithmic regressions: the whole point of a simulation-based
study is being able to run hundreds of scenarios quickly.
"""

import numpy as np

from repro.allocation.scrap import ScrapMaxAllocator
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.mapping.base import AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.platform import grid5000
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.constraints.strategies import EqualShareStrategy
from repro.simulate.executor import ScheduleExecutor


def _workload(n_apps=6, n_tasks=50, seed=0):
    rng = np.random.default_rng(seed)
    return [
        generate_random_ptg(rng, RandomPTGConfig(n_tasks=n_tasks), name=f"micro-{i}")
        for i in range(n_apps)
    ]


def bench_generator_50_tasks(benchmark):
    """Generation of a 50-task random PTG."""
    rng = np.random.default_rng(1)

    def build():
        return generate_random_ptg(rng, RandomPTGConfig(n_tasks=50))

    graph = benchmark(build)
    assert len(graph.real_tasks()) == 50


def bench_scrap_max_allocation_50_tasks(benchmark):
    """SCRAP-MAX allocation of one 50-task PTG on the Rennes subset."""
    platform = grid5000.rennes()
    ptg = _workload(n_apps=1, n_tasks=50, seed=2)[0]

    # a fresh allocator per round: a reused one would serve every round
    # after the first from its memo instead of running the loop
    allocation = benchmark(
        lambda: ScrapMaxAllocator().allocate(ptg, platform, beta=0.25)
    )
    assert len(allocation) == ptg.n_tasks


def bench_ready_list_mapping_300_tasks(benchmark):
    """Concurrent mapping of 6 x 50-task PTGs on the Rennes subset."""
    platform = grid5000.rennes()
    workload = _workload(n_apps=6, n_tasks=50, seed=3)
    allocator = ScrapMaxAllocator()
    allocated = [
        AllocatedPTG(p, allocator.allocate(p, platform, beta=1 / 6)) for p in workload
    ]
    mapper = ReadyListMapper()

    schedule = benchmark.pedantic(
        lambda: mapper.map(allocated, platform), rounds=3, iterations=1
    )
    assert len(schedule) == sum(p.n_tasks for p in workload)


def bench_simulated_execution_300_tasks(benchmark):
    """Discrete-event execution of the 6 x 50-task concurrent schedule."""
    platform = grid5000.rennes()
    workload = _workload(n_apps=6, n_tasks=50, seed=4)
    planned = ConcurrentScheduler(EqualShareStrategy()).schedule(workload, platform)
    executor = ScheduleExecutor(platform)

    report = benchmark.pedantic(
        lambda: executor.execute(workload, planned.schedule), rounds=3, iterations=1
    )
    assert len(report.records) == sum(p.n_tasks for p in workload)
