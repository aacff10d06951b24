"""Golden oracle of the online scheduler: the pre-``repro.streaming`` replay.

:class:`ReferenceOnlineScheduler` is the :class:`OnlineConcurrentScheduler`
as it stood before the ``repro.streaming`` rework: a batch replay of a
fixed arrival list that, after admitting each application, re-derives its
completion time with a full scan of the schedule built so far
(``Schedule.makespan`` iterates every placed entry of every earlier
application), which makes long streams quadratic in the number of
submissions.

It places tasks with the production
:class:`~repro.mapping.eft.PlacementEngine`: placement has its own
oracle (:mod:`tests.oracles.mapping`, whose
:func:`~tests.oracles.mapping.reference_implementation` swaps it in
here too), so this module pins only the replay and its bookkeeping.
It is kept for two purposes:

* ``tests/test_scheduler_online_golden.py`` asserts that the event-driven
  :class:`repro.streaming.engine.StreamSession` produces **bit-identical**
  schedules, betas, active sets and completion times on fixed arrival
  lists -- the rework is a pure performance refactor;
* ``benchmarks/bench_streaming.py`` uses it as the "naive replay"
  baseline: the only way to follow a growing arrival stream with this
  implementation is to re-replay the whole prefix after every batch.

Do not "fix" or optimise this module: its value is to stay exactly what
the optimized code must reproduce.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.allocation.base import AllocationProcedure
from repro.allocation.scrap import ScrapMaxAllocator
from repro.constraints.base import ConstraintStrategy
from repro.constraints.strategies import EqualShareStrategy
from repro.dag.graph import PTG
from repro.exceptions import ConfigurationError
from repro.mapping.base import AllocatedPTG
from repro.mapping.eft import PlacementEngine
from repro.mapping.schedule import Schedule
from repro.platform.multicluster import MultiClusterPlatform
from repro.scheduler.online import Arrival, OnlineScheduleResult


class ReferenceOnlineScheduler:
    """First-come-first-served scheduler for staggered submissions.

    Verbatim copy of the pre-``repro.streaming`` implementation of
    :class:`~repro.scheduler.online.OnlineConcurrentScheduler` (see the
    module docstring for why it is preserved).
    """

    def __init__(
        self,
        strategy: Optional[ConstraintStrategy] = None,
        allocator: Optional[AllocationProcedure] = None,
        enable_packing: bool = True,
    ) -> None:
        """Same defaults as the optimized scheduler (ES + SCRAP-MAX + packing)."""
        self.strategy = strategy or EqualShareStrategy()
        self.allocator = allocator or ScrapMaxAllocator()
        self.enable_packing = enable_packing

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_arrivals(arrivals: Sequence[Arrival]) -> List[Arrival]:
        if not arrivals:
            raise ConfigurationError("at least one arrival is required")
        names = [a.ptg.name for a in arrivals]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"submitted applications must have unique names, got {names}"
            )
        for arrival in arrivals:
            arrival.ptg.validate()
        return sorted(arrivals, key=lambda a: (a.time, a.ptg.name))

    def _map_application(
        self,
        engine: PlacementEngine,
        schedule: Schedule,
        allocated: AllocatedPTG,
        release_time: float,
    ) -> None:
        """Place one application's tasks (bottom-level order, FCFS)."""
        ptg = allocated.ptg
        levels = allocated.bottom_levels()
        topo_index = {tid: i for i, tid in enumerate(ptg.topological_order())}
        order = sorted(
            ptg.task_ids(), key=lambda tid: (-levels[tid], topo_index[tid])
        )
        for tid in order:
            predecessors = [
                (pred, ptg.edge_data(pred, tid)) for pred in ptg.predecessors(tid)
            ]
            engine.place(
                ptg_name=ptg.name,
                task=ptg.task(tid),
                allocation=allocated.allocation,
                predecessors=predecessors,
                schedule=schedule,
                not_before=release_time,
            )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def schedule(
        self, arrivals: Sequence[Arrival], platform: MultiClusterPlatform
    ) -> OnlineScheduleResult:
        """Schedule all submissions in arrival order."""
        ordered = self._check_arrivals(arrivals)
        engine = PlacementEngine(platform, enable_packing=self.enable_packing)
        schedule = Schedule(platform.name)

        betas: Dict[str, float] = {}
        allocations: Dict[str, "object"] = {}
        active_log: Dict[str, List[str]] = {}
        completion: Dict[str, float] = {}
        # Min-heap of (completion time, name) of admitted applications,
        # lazily invalidated: arrivals are processed in non-decreasing
        # time order, so popping every entry whose completion is <= now
        # (and deleting it from the insertion-ordered ``active_apps``
        # dict) leaves exactly the applications still in the system -- no
        # rescan of all previous arrivals per admission.
        running: List[Tuple[float, str]] = []
        active_apps: Dict[str, PTG] = {}

        for arrival in ordered:
            now = arrival.time
            while running and running[0][0] <= now:
                _, expired = heapq.heappop(running)
                active_apps.pop(expired, None)
            # applications still in the system at this instant, in
            # arrival order (the order the constraint strategies see)
            active = list(active_apps.values())
            concurrent = active + [arrival.ptg]
            strategy_betas = self.strategy.compute_betas(concurrent, platform)
            beta = strategy_betas[arrival.ptg.name]
            betas[arrival.ptg.name] = beta
            active_log[arrival.ptg.name] = [p.name for p in active]

            allocation = self.allocator.allocate(arrival.ptg, platform, beta=beta)
            allocations[arrival.ptg.name] = allocation
            self._map_application(
                engine, schedule, AllocatedPTG(arrival.ptg, allocation), now
            )
            done = schedule.makespan(arrival.ptg.name)
            completion[arrival.ptg.name] = done
            heapq.heappush(running, (done, arrival.ptg.name))
            active_apps[arrival.ptg.name] = arrival.ptg

        return OnlineScheduleResult(
            platform=platform,
            arrivals=ordered,
            betas=betas,
            active_at_admission=active_log,
            allocations=allocations,
            schedule=schedule,
            strategy_name=self.strategy.name,
        )
