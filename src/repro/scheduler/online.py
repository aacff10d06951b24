"""Online scheduling of applications with different submission times.

The paper's future-work section sketches the harder problem where the
concurrent applications do *not* arrive together: "this implies that the
resource constraints have to be modified on the arrival of a new
application in the system".  This module is the batch front door of that
design point: :class:`OnlineConcurrentScheduler` replays a fixed arrival
list through the event-driven
:class:`~repro.streaming.engine.StreamSession`, which

* admits applications in arrival order,
* recomputes the resource constraint of each newcomer with the chosen
  strategy over the applications still present at that instant,
* allocates it (SCRAP-MAX by default) under that constraint and maps it
  -- without disturbing existing reservations -- with earliest-finish-
  time placement and allocation packing, released no earlier than its
  submission time.

The session keeps the per-application completion bookkeeping incremental
(see :mod:`repro.streaming.engine`), so long streams no longer pay the
quadratic schedule re-scans of the original replay -- which is frozen
verbatim as the oracle in ``tests/oracles/scheduler.py`` and pinned
bit-identical by ``tests/test_scheduler_online_golden.py``.  For live /
chunked streams and windowed metrics, use
:class:`~repro.streaming.engine.StreamSession` and :mod:`repro.streaming`
directly.

:class:`Arrival` and :class:`OnlineScheduleResult` are defined in
:mod:`repro.streaming.engine` and re-exported here, their historical
home.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.allocation.base import AllocationProcedure
from repro.constraints.base import ConstraintStrategy
from repro.exceptions import ConfigurationError
from repro.platform.multicluster import MultiClusterPlatform
from repro.streaming.engine import (
    Arrival,
    OnlineScheduleResult,
    StreamResult,
    StreamSession,
)

__all__ = [
    "Arrival",
    "OnlineConcurrentScheduler",
    "OnlineScheduleResult",
    "StreamResult",
]


class OnlineConcurrentScheduler:
    """First-come-first-served scheduler for staggered submissions.

    A thin batch wrapper over :class:`~repro.streaming.engine.StreamSession`:
    the arrival list is validated, globally sorted by ``(time, name)``
    and fed through a fresh session.  The returned
    :class:`~repro.streaming.engine.StreamResult` is a drop-in
    :class:`OnlineScheduleResult` with O(1) per-application accessors.
    """

    def __init__(
        self,
        strategy: Optional[ConstraintStrategy] = None,
        allocator: Optional[AllocationProcedure] = None,
        enable_packing: bool = True,
    ) -> None:
        """Configure the pipeline (defaults: equal share + SCRAP-MAX + packing)."""
        self.strategy = strategy
        self.allocator = allocator
        self.enable_packing = enable_packing

    @staticmethod
    def _check_arrivals(arrivals: Sequence[Arrival]) -> List[Arrival]:
        """Validate a batch and return it sorted by ``(time, name)``."""
        if not arrivals:
            raise ConfigurationError("at least one arrival is required")
        names = [a.ptg.name for a in arrivals]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"submitted applications must have unique names, got {names}"
            )
        return sorted(arrivals, key=lambda a: (a.time, a.ptg.name))

    def schedule(
        self, arrivals: Sequence[Arrival], platform: MultiClusterPlatform
    ) -> StreamResult:
        """Schedule all submissions in arrival order."""
        ordered = self._check_arrivals(arrivals)
        session = StreamSession(
            platform,
            strategy=self.strategy,
            allocator=self.allocator,
            enable_packing=self.enable_packing,
        )
        for arrival in ordered:
            session.admit(arrival)
        return session.result()
