"""Concurrent multi-application scheduler.

This is the paper's complete scheduling pipeline for a set of
applications ``A`` submitted together:

1. a **constraint strategy** assigns each application a resource
   constraint ``beta_i`` (S, ES, PS-*, WPS-*),
2. the **SCRAP-MAX** procedure computes, independently for each
   application, an allocation that respects its constraint per precedence
   level,
3. the **ready-list mapper** places all applications concurrently, in
   bottom-level order restricted to the ready tasks, with allocation
   packing.

Every step is pluggable so ablations (other allocators, the global-order
mapper, packing on/off) reuse the same driver.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapMaxAllocator
from repro.allocation.state import discard_allocation_tables, prepare_allocation_tables
from repro.constraints.base import ConstraintStrategy
from repro.constraints.strategies import EqualShareStrategy
from repro.dag.arrays import compile_arrays_batch
from repro.dag.graph import PTG
from repro.exceptions import ConfigurationError
from repro.mapping.base import AllocatedPTG, Mapper
from repro.mapping.ready_list import ReadyListMapper
from repro.obs import meters, trace
from repro.platform.multicluster import MultiClusterPlatform
from repro.scheduler.result import ConcurrentScheduleResult


def check_submission(ptgs: Sequence[PTG]) -> List[str]:
    """The checks :meth:`ConcurrentScheduler.schedule` makes first; returns the names."""
    if not ptgs:
        raise ConfigurationError("at least one PTG must be submitted")
    if any(ptg is None for ptg in ptgs):
        raise ConfigurationError("ptg must not be None")
    names = [p.name for p in ptgs]
    if len(set(names)) != len(names):
        raise ConfigurationError(
            f"concurrent PTGs must have unique names, got {names}"
        )
    for ptg in ptgs:
        ptg.validate()
    return names


class ConcurrentScheduler:
    """Two-step concurrent scheduler for multiple PTGs."""

    def __init__(
        self,
        strategy: Optional[ConstraintStrategy] = None,
        allocator: Optional[AllocationProcedure] = None,
        mapper: Optional[Mapper] = None,
    ) -> None:
        self.strategy = strategy or EqualShareStrategy()
        self.allocator = allocator or ScrapMaxAllocator()
        self.mapper = mapper or ReadyListMapper()

    def schedule(
        self, ptgs: Sequence[PTG], platform: MultiClusterPlatform
    ) -> ConcurrentScheduleResult:
        """Schedule the applications of *ptgs* concurrently on *platform*."""
        names = check_submission(ptgs)
        if len(ptgs) > 1:
            # amortize graph compilation over the whole submission
            # (bit-identical per-graph results)
            compile_arrays_batch(ptgs)

        # per-phase timers only tick while a metrics registry is active;
        # the disabled path adds two None checks per schedule() call
        registry = meters.active()

        try:
            with trace.span(
                "scheduler.betas", strategy=self.strategy.name, apps=str(len(ptgs))
            ):
                betas: Dict[str, float] = self.strategy.compute_betas(ptgs, platform)
            missing = [name for name in names if name not in betas]
            if missing:
                raise ConfigurationError(
                    f"strategy {self.strategy.name!r} did not assign a constraint "
                    f"to {missing}"
                )
            if len(ptgs) > 1:
                # amortize the Amdahl table sweeps over the graphs the
                # allocator will run its loop on; a primed allocator
                # answers every graph from its memo and reads no table
                looping = [
                    ptg for ptg in ptgs
                    if not self.allocator.memoised(ptg, platform, betas[ptg.name])
                ]
                if looping:
                    reference = ReferenceCluster.of(platform)
                    prepare_allocation_tables(
                        looping, reference, reference.max_allocation(platform)
                    )

            started = time.perf_counter() if registry is not None else 0.0
            allocations: Dict[str, Allocation] = {}
            allocated = []
            with trace.span("scheduler.allocate", apps=str(len(ptgs))):
                for ptg in ptgs:
                    allocation = self.allocator.allocate(
                        ptg, platform, beta=betas[ptg.name]
                    )
                    allocations[ptg.name] = allocation
                    allocated.append(AllocatedPTG(ptg, allocation))
        finally:
            # the prebuilt Amdahl tables served their one allocation; drop
            # them even when the strategy or the allocator raised, so no
            # graph of a failed batch keeps them pinned
            for ptg in ptgs:
                discard_allocation_tables(ptg)
        if registry is not None:
            now = time.perf_counter()
            registry.histogram("allocation.phase_seconds").observe(now - started)
            started = now

        schedule = self.mapper.map(allocated, platform)
        if registry is not None:
            registry.histogram("mapping.phase_seconds").observe(
                time.perf_counter() - started
            )
        return ConcurrentScheduleResult(
            ptgs=list(ptgs),
            platform=platform,
            betas=betas,
            allocations=allocations,
            schedule=schedule,
            strategy_name=self.strategy.name,
        )
