"""Mapping step of the two-step scheduling process.

Once every task of every submitted PTG has received a processor
*allocation* (a number of reference processors), the mapping step decides
*where* and *when* each task runs: on which cluster, on which processors,
starting at what time.

This package provides:

* :class:`~repro.mapping.schedule.Schedule` /
  :class:`~repro.mapping.schedule.ScheduledTask` -- the produced schedule,
* :class:`~repro.mapping.timeline.ClusterTimeline` -- per-cluster
  processor availability used to compute earliest start times,
* :class:`~repro.mapping.eft.PlacementEngine` -- earliest-finish-time
  placement of one allocated task over all clusters, including the
  paper's **allocation packing** mechanism (shrink a delayed task's
  allocation when it can start earlier and finish no later),
* :class:`~repro.mapping.ready_list.ReadyListMapper` -- the paper's
  proposed concurrent mapping procedure, which only orders the *ready*
  tasks by bottom level,
* :class:`~repro.mapping.global_order.GlobalOrderMapper` -- the baseline
  that aggregates all applications and orders every task globally, which
  the paper shows can unfairly postpone small applications (Figure 1).

The placement hot path (timelines, EFT sweep, ready queue, communication
estimates) is optimized -- incrementally sorted free-time arrays,
delta-EFT cluster selection, heap-based ready list, memoized transfers --
while emitting bit-identical schedules to the straightforward formulation
frozen in ``tests/oracles/mapping.py`` (see ``tests/test_mapping_golden.py``
and ``docs/architecture.md``).
"""

from repro.mapping.schedule import Schedule, ScheduledTask
from repro.mapping.timeline import ClusterTimeline, PlatformTimeline
from repro.mapping.comm import CommunicationEstimator
from repro.mapping.eft import PlacementEngine
from repro.mapping.base import Mapper, AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.mapping.global_order import GlobalOrderMapper

__all__ = [
    "Schedule",
    "ScheduledTask",
    "ClusterTimeline",
    "PlatformTimeline",
    "CommunicationEstimator",
    "PlacementEngine",
    "Mapper",
    "AllocatedPTG",
    "ReadyListMapper",
    "GlobalOrderMapper",
]
