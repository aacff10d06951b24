"""Single-application two-step scheduler (dedicated platform).

Used to compute the makespan an application achieves "when it has the
resources on its own" (``M_own`` in the slowdown definition, Eq. 3 of the
paper).  By default it uses the same building blocks as the concurrent
scheduler -- SCRAP-MAX allocation with ``beta = 1`` and the ready-list
mapper -- so that the slowdown isolates the effect of *concurrency*, not
of a different heuristic.
"""

from __future__ import annotations

from typing import Optional

from repro.allocation.base import AllocationProcedure
from repro.allocation.scrap import ScrapMaxAllocator
from repro.dag.graph import PTG
from repro.exceptions import ConfigurationError
from repro.mapping.base import AllocatedPTG, Mapper
from repro.mapping.ready_list import ReadyListMapper
from repro.platform.multicluster import MultiClusterPlatform
from repro.scheduler.result import SingleScheduleResult
from repro.utils.validation import check_fraction


def check_ptg(ptg: PTG) -> None:
    """The checks :meth:`SinglePTGScheduler.schedule` makes before it allocates."""
    if ptg is None:
        raise ConfigurationError("ptg must not be None")
    ptg.validate()


class SinglePTGScheduler:
    """Schedule one PTG on a dedicated platform."""

    def __init__(
        self,
        allocator: Optional[AllocationProcedure] = None,
        mapper: Optional[Mapper] = None,
        beta: float = 1.0,
    ) -> None:
        check_fraction("beta", beta)
        self.allocator = allocator or ScrapMaxAllocator()
        self.mapper = mapper or ReadyListMapper()
        self.beta = float(beta)

    def schedule(
        self, ptg: PTG, platform: MultiClusterPlatform
    ) -> SingleScheduleResult:
        """Allocate and map *ptg* alone on *platform*."""
        check_ptg(ptg)
        allocation = self.allocator.allocate(ptg, platform, beta=self.beta)
        schedule = self.mapper.map([AllocatedPTG(ptg, allocation)], platform)
        return SingleScheduleResult(
            ptg=ptg, platform=platform, allocation=allocation, schedule=schedule
        )

    def makespan(self, ptg: PTG, platform: MultiClusterPlatform) -> float:
        """Convenience wrapper returning only the makespan."""
        return self.schedule(ptg, platform).makespan
