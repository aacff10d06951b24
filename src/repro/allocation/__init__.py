"""Allocation step of the two-step scheduling process.

The allocation step determines, for every task of a PTG, *how many
processors* it should execute on -- without yet deciding *which*
processors.  Following the HCPA line of work, allocations are expressed in
processors of a *homogeneous reference cluster* that abstracts the
heterogeneous platform; the mapping step later translates a reference
allocation into an actual processor count on each candidate cluster.

Provided procedures:

* :class:`~repro.allocation.cpa.CPAAllocator` -- the classical CPA
  procedure for a homogeneous cluster (baseline),
* :class:`~repro.allocation.hcpa.HCPAAllocator` -- CPA on the reference
  cluster (heterogeneous platforms, dedicated usage),
* :class:`~repro.allocation.scrap.ScrapAllocator` -- SCRAP: constrained
  allocation with a *global area* resource constraint,
* :class:`~repro.allocation.scrap.ScrapMaxAllocator` -- SCRAP-MAX:
  constrained allocation with a *per precedence level* resource
  constraint.  This is the procedure used by the paper's concurrent
  scheduler.

All four inherit one ``allocate``
(:class:`~repro.allocation.iterative.IterativeAllocator`): the iterative
loop behind an exact per-instance memo, so a graph whose content recurs
at a ``beta`` it already had skips the loop.
"""

from repro.allocation.reference import ReferenceCluster
from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.state import AllocationState
from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator

__all__ = [
    "ReferenceCluster",
    "Allocation",
    "AllocationProcedure",
    "AllocationState",
    "CPAAllocator",
    "HCPAAllocator",
    "ScrapAllocator",
    "ScrapMaxAllocator",
]
