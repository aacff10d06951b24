"""The allocation loop's fast-forward, pinned case by case against the oracle.

:func:`repro.allocation.fastloop.run_fused_loop` skips the critical-path
walk, the balance test and (under the none and level checks) the
bottom-level propagation while the last walk's lead and the balance
margin prove that a new walk would return the path in hand.  Each case
compares the allocation and
:class:`~repro.allocation.iterative.IterationStats` with the oracle loop
frozen in ``tests/oracles/allocation.py`` using ``==``, and reads the
pass's walk count off its ``allocation.iterate`` span.
"""

import pytest

from repro import obs
from repro.allocation import fastloop
from repro.allocation.iterative import LevelConstraint, run_iterative_allocation
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapMaxAllocator
from repro.dag.fft import generate_fft_ptg
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform import grid5000
from repro.platform.builder import single_cluster_platform

from tests.oracles.allocation import run_reference_allocation

#: 100 processors of 1 GFlop/s: a task of ``w`` GFlop and alpha 0 runs
#: ``w / p`` seconds on ``p`` of them, and beta = 0.04 lets one level
#: hold 4 processors.
PLATFORM = single_cluster_platform(num_processors=100, speed_gflops=1.0)


def diamond(name, a, b, x):
    """S -> {A, B} -> X -> T with alpha-0 costs ``a``, ``b``, ``x`` (GFlop)."""
    graph = PTG(name)
    for tid, gflop in enumerate((0.01, a, b, x, 0.01)):
        graph.add_task(Task(tid, gflop * 1e9, 0.0))
    for src, dst in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4)):
        graph.add_edge(src, dst, 0.0)
    return graph


def traced_allocation(graph, platform, beta, **kwargs):
    """One memo-free SCRAP-MAX run and the labels of its loop span."""
    constraint = LevelConstraint(beta, platform.total_power_gflops)
    with obs.capture() as session:
        allocation, stats = run_iterative_allocation(
            graph, platform, ReferenceCluster.of(platform), beta, constraint, **kwargs
        )
    (labels,) = [s.labels for s in session.spans if s.name == "allocation.iterate"]
    return allocation, stats, {k: int(v) for k, v in labels.items() if k != "ptg"}


def assert_equals_the_oracle(graph, platform, beta, allocation, stats, **kwargs):
    oracle, oracle_stats = run_reference_allocation(
        graph, platform, ReferenceCluster.of(platform), beta,
        LevelConstraint(beta, platform.total_power_gflops), **kwargs
    )
    assert allocation.as_dict() == oracle.as_dict()
    assert stats == oracle_stats


def test_service_shaped_graphs_walk_less_than_they_iterate():
    platform = grid5000.site("rennes")
    graphs = make_workload(WorkloadSpec("random", n_ptgs=24, seed=5, max_tasks=10))
    walks = iterations = 0
    for graph in graphs:
        for beta in (1.0, 0.5, 0.125):
            allocation, stats, labels = traced_allocation(graph, platform, beta)
            assert_equals_the_oracle(graph, platform, beta, allocation, stats)
            assert labels["iterations"] == stats.iterations
            walks += labels["walks"]
            iterations += stats.iterations
    assert 0 < 2 * walks <= iterations


def test_a_pass_past_the_rounding_bound_never_skips(monkeypatch):
    # the slack covers the rounding of n * (cap + 1) float operations
    # only below FAST_FORWARD_OPS; past it every accepted increment walks
    monkeypatch.setattr(fastloop, "FAST_FORWARD_OPS", 1)
    platform = grid5000.site("rennes")
    graph = make_workload(WorkloadSpec("random", n_ptgs=1, seed=5, max_tasks=10))[0]
    allocation, stats, labels = traced_allocation(graph, platform, 1.0)
    assert_equals_the_oracle(graph, platform, 1.0, allocation, stats)
    assert labels["walks"] == (
        stats.iterations - stats.frozen_tasks - stats.stopped_by_balance
    )


def test_tie_only_fft_skips_only_after_freezes():
    # every level of an FFT graph has one cost: each walk meets a tie
    # (lead 0), so only the iterations after a freeze reuse the path
    graph = generate_fft_ptg(n_points=8, rng=0)
    platform = grid5000.site("rennes")
    allocation, stats, labels = traced_allocation(graph, platform, 0.5)
    assert_equals_the_oracle(graph, platform, 0.5, allocation, stats)
    assert stats.frozen_tasks > 0 and not stats.stopped_by_balance
    assert labels["walks"] == stats.iterations - stats.frozen_tasks


@pytest.mark.parametrize("max_iterations", [2, None])
def test_a_drop_past_the_lead_changes_the_path(max_iterations):
    # A leads B by 10 microseconds (far above the 1e-9 slack); A's first
    # increment halves it, so the second walk must turn to B
    graph = diamond("near-tie", 10 + 1e-5, 10, 1)
    allocation, stats, labels = traced_allocation(
        graph, PLATFORM, 1.0, max_iterations=max_iterations
    )
    assert_equals_the_oracle(
        graph, PLATFORM, 1.0, allocation, stats, max_iterations=max_iterations
    )
    if max_iterations == 2:
        assert allocation.processors(1) == allocation.processors(2) == 2
        assert labels["walks"] == 2
    else:
        assert labels["walks"] == stats.iterations - stats.frozen_tasks


def test_balance_stop_right_after_a_skipped_stretch():
    # a chain never branches (lead inf): after the first walk only the
    # balance margin ends the stretch, and the balance stop ends the run
    graph = PTG("chain")
    for tid, gflop in enumerate((3, 7, 2, 5, 4)):
        graph.add_task(Task(tid, gflop * 1e9, 0.1))
        if tid:
            graph.add_edge(tid - 1, tid, 0.0)
    allocation, stats, labels = traced_allocation(graph, PLATFORM, 0.2)
    assert_equals_the_oracle(graph, PLATFORM, 0.2, allocation, stats)
    assert stats.stopped_by_balance and stats.iterations > 50
    assert labels["walks"] == 1


def test_a_pass_forks_inside_a_skipped_stretch():
    # A leads B by 90 s.  A's first two increments (to 3 processors) skip
    # the walk; the third puts 5 processors on level {A, B}, which
    # beta = 0.04 refuses and beta = 1 keeps, so the pass forks at a
    # fast-forwarded iteration and each side runs on from there
    graph = diamond("fork", 100, 10, 1)
    # alone, beta = 1 walks once in the three iterations up to the fork
    allocation, _, labels = traced_allocation(graph, PLATFORM, 1.0, max_iterations=3)
    assert allocation.processors(1) == 4 and labels["walks"] == 1
    betas = [1.0, 0.04]
    allocator = ScrapMaxAllocator()
    with obs.capture() as session:
        allocator.prime(graph, PLATFORM, betas)
    (labels,) = [s.labels for s in session.spans if s.name == "allocation.iterate"]
    assert (labels["betas"], labels["forks"]) == ("2", "1")
    assert int(labels["walks"]) < int(labels["iterations"]) // 10
    for beta in betas:
        allocation = allocator.allocate(graph, PLATFORM, beta=beta)
        assert_equals_the_oracle(
            graph, PLATFORM, beta, allocation, allocator.last_stats
        )
    assert allocator.allocate(graph, PLATFORM, beta=0.04).processors(1) == 3


@pytest.mark.parametrize("index", [0, 1])
def test_service_shaped_passes_fork_inside_skipped_stretches(index):
    # in these two passes a side that rejects an increment forks off with
    # increments still queued, and its later walks read the bottom levels
    # the fork swept for it
    platform = grid5000.site("rennes")
    graph = make_workload(WorkloadSpec("random", n_ptgs=6, seed=5, max_tasks=10))[index]
    betas = [2.0 ** -k for k in range(6)]
    allocator = ScrapMaxAllocator()
    with obs.capture() as session:
        allocator.prime(graph, platform, betas)
    (labels,) = [s.labels for s in session.spans if s.name == "allocation.iterate"]
    assert int(labels["forks"]) > 0
    assert int(labels["walks"]) < int(labels["iterations"])
    for beta in betas:
        allocation = allocator.allocate(graph, platform, beta=beta)
        assert_equals_the_oracle(
            graph, platform, beta, allocation, allocator.last_stats
        )
