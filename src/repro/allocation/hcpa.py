"""HCPA: Heterogeneous Critical Path and Area allocation.

HCPA extends CPA to heterogeneous multi-cluster platforms through the
homogeneous :class:`~repro.allocation.reference.ReferenceCluster`
abstraction: allocations are computed in reference processors and
translated to actual clusters by the mapping step.  The iterative loop and
the balance stopping criterion are those of CPA, evaluated on the
reference cluster.

HCPA is the unconstrained (dedicated-platform) allocator: it is what the
selfish ``S`` strategy effectively uses (``beta = 1``), and the
single-application schedules that define the slowdown metric (``M_own``)
are built with it.
"""

from __future__ import annotations

from repro.allocation.iterative import IterativeAllocator


class HCPAAllocator(IterativeAllocator):
    """The HCPA allocation procedure (reference-cluster CPA).

    ``beta`` scales the reference cluster size used by the balance
    criterion (``T_A`` is computed over ``beta * N_ref`` processors), so
    HCPA with ``beta < 1`` behaves like a softly constrained allocator;
    the hard per-level guarantee of SCRAP-MAX is only provided by
    :class:`~repro.allocation.scrap.ScrapMaxAllocator`.
    """

    name = "HCPA"

    def __init__(self, efficiency_threshold: float = 0.0) -> None:
        """*efficiency_threshold* is the over-allocation guard of ref. [11]."""
        super().__init__(efficiency_threshold=efficiency_threshold)
