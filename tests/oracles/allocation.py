"""Golden oracle of the allocation hot loop.

The array-compiled allocation core
(:class:`repro.allocation.state.AllocationState` driving
:func:`repro.allocation.iterative.run_iterative_allocation`) must produce
**bit-identical** :class:`~repro.allocation.base.Allocation` contents and
:class:`~repro.allocation.iterative.IterationStats` for CPA, HCPA, SCRAP
and SCRAP-MAX.  This module keeps the straightforward formulation it
replaced alive, verbatim: a Python loop that re-runs the dict-based
critical-path DP and the generator-based area sum of
:class:`~repro.allocation.base.Allocation` at every iteration, and pays
the full :meth:`~repro.allocation.base.Allocation.average_power` /
:meth:`~repro.allocation.base.Allocation.level_power` recomputation after
every tentative increment.

It serves the golden suites (``tests/test_allocation_golden.py``,
``tests/test_delta_golden.py``) and the old-vs-new benchmarks
(``benchmarks/bench_allocation_core.py``,
``benchmarks/bench_pipeline_core.py``, ``benchmarks/bench_delta_eft.py``).
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.allocation.base import Allocation
from repro.allocation.iterative import (
    DEFAULT_EFFICIENCY_THRESHOLD,
    ConstraintCheck,
    IterationStats,
    LevelConstraint,
)
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapMaxAllocator
from repro.dag.graph import PTG
from repro.exceptions import AllocationError
from repro.platform.multicluster import MultiClusterPlatform


def run_reference_allocation(
    ptg: PTG,
    platform: MultiClusterPlatform,
    reference: ReferenceCluster,
    beta: float,
    constraint: ConstraintCheck,
    use_balance_stop: bool = True,
    max_iterations: Optional[int] = None,
    efficiency_threshold: float = DEFAULT_EFFICIENCY_THRESHOLD,
) -> Tuple[Allocation, IterationStats]:
    """The original CPA-style iterative allocation loop, kept verbatim.

    Same signature and semantics as
    :func:`repro.allocation.iterative.run_iterative_allocation`; every
    per-iteration quantity is recomputed through the dict-based
    :class:`~repro.allocation.base.Allocation` helpers, which is what made
    the loop the dominant cost of allocation-heavy campaigns.
    """
    if not (0.0 < beta <= 1.0):
        raise AllocationError(f"beta must be in (0, 1], got {beta}")
    if not (0.0 <= efficiency_threshold <= 1.0):
        raise AllocationError(
            f"efficiency_threshold must be in [0, 1], got {efficiency_threshold}"
        )
    ptg.validate()
    allocation = Allocation(ptg, reference, beta)
    stats = IterationStats()
    cap = reference.max_allocation(platform)
    effective_ref_size = max(1.0, beta * reference.size)
    frozen: Set[int] = set()
    if max_iterations is None:
        max_iterations = ptg.n_tasks * cap + 1

    def _may_grow(tid: int) -> bool:
        task = ptg.task(tid)
        if task.is_synthetic:
            return False
        if allocation.processors(tid) >= cap:
            return False
        if efficiency_threshold > 0.0:
            model = task.model
            if model is not None and model.efficiency(
                allocation.processors(tid) + 1
            ) < efficiency_threshold - 1e-12:
                return False
        return True

    while stats.iterations < max_iterations:
        stats.iterations += 1
        t_cp = allocation.critical_path_length()
        if t_cp <= 0.0:
            # graph of only synthetic tasks: nothing to allocate
            break
        if use_balance_stop:
            t_a = allocation.total_area() / effective_ref_size
            if t_cp <= t_a:
                stats.stopped_by_balance = True
                break
        path = allocation.critical_path()
        candidates = [
            tid for tid in path if tid not in frozen and _may_grow(tid)
        ]
        if not candidates:
            stats.stopped_by_saturation = True
            break
        best = max(
            candidates,
            key=lambda tid: (
                reference.marginal_gain(ptg.task(tid), allocation.processors(tid)),
                -tid,
            ),
        )
        current = allocation.processors(best)
        allocation.set_processors(best, current + 1)
        if constraint.violated(allocation, ptg.task(best)):
            allocation.set_processors(best, current)
            if constraint.stop_on_violation:
                stats.stopped_by_constraint = True
                break
            frozen.add(best)
            stats.frozen_tasks += 1
            continue
        stats.increments += 1

    return allocation, stats


class ReferenceScrapMaxAllocator(ScrapMaxAllocator):
    """SCRAP-MAX routed through :func:`run_reference_allocation`.

    A drop-in allocator for whole-stack golden runs (streaming sessions,
    the full-pass benchmark); records :attr:`last_stats` like the
    production allocator.
    """

    def allocate(self, ptg, platform, beta=1.0):
        """Allocate *ptg* under the per-level constraint with the oracle loop."""
        reference = ReferenceCluster.of(platform)
        constraint = LevelConstraint(beta, platform.total_power_gflops)
        allocation, stats = run_reference_allocation(
            ptg,
            platform,
            reference,
            beta,
            constraint,
            use_balance_stop=self.use_balance_stop,
            efficiency_threshold=self.efficiency_threshold,
        )
        self.last_stats = stats
        return allocation
