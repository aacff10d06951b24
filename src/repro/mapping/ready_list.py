"""Ready-task list scheduling: the paper's concurrent mapping procedure.

Instead of aggregating the submitted applications into a single graph and
ordering *all* their tasks globally, this mapper "still orders tasks
according to their bottom level, but only those that are ready.  A task is
ready only when all its predecessors have finished their executions."

The procedure is event-driven: it maintains a virtual clock, a ready
queue (ordered by decreasing bottom level across all applications) and
the set of tasks already placed.  At each step every currently ready task
is placed with the earliest-finish-time engine (including allocation
packing), then the clock advances to the next task completion, which may
release new ready tasks.  Entry tasks of every application are ready at
submission time, so a small application is never stuck behind the whole
ordered list of a large competitor (the Figure 1 scenario of the paper).

The event loop is :func:`place_ready_tasks`.  :class:`ReadyListMapper`
runs it over every task of the submitted applications; the fault repair
(:func:`repro.faults.repair.repair_schedule`) runs it over the tasks it
re-plans, from the fault instant on.

Performance
-----------
The ready queue is a **priority heap** keyed by ``(-bottom level,
application, task id)``: releases push in O(log n) and the placement
phase pops tasks in priority order, instead of re-sorting a list at
every event.  With static bottom-level priorities every task is pushed
exactly once.  Readiness itself is tracked with per-task predecessor
counters that are decremented as completions are drained, replacing the
original rescan of the whole completed set (O(completed x successors)
per event) with O(out-degree) work per completion.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import MappingError
from repro.mapping.base import AllocatedPTG, Mapper
from repro.mapping.eft import PlacementEngine
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.obs import meters, trace
from repro.platform.multicluster import MultiClusterPlatform


def place_ready_tasks(
    engine: PlacementEngine,
    schedule: Schedule,
    apps: Mapping[str, AllocatedPTG],
    tasks: Optional[Mapping[str, Set[int]]] = None,
    start: float = 0.0,
    releases: Optional[Mapping[str, float]] = None,
    registry: Optional[meters.MetricsRegistry] = None,
) -> Tuple[List[ScheduledTask], int]:
    """Place tasks in ready-list order; return the entries and the event count.

    *tasks* maps each application of *apps* to the task ids to place
    (``None``: all of them).  A task is ready once its predecessors among
    them have completed; the others must already be in *schedule*, where
    the engine reads their finish times.  The clock starts at *start*,
    and no task starts before its application's entry in *releases*.  At
    each event every ready task is placed, highest bottom level first,
    then the clock advances to the next completion.  With a *registry*,
    the size of each event's ready set is observed on the
    ``mapping.ready_candidates`` histogram.
    """
    bottom_levels: Dict[str, Dict[int, float]] = {
        name: app.bottom_levels() for name, app in apps.items()
    }
    # predecessor counters: a task becomes ready when its counter
    # reaches zero (all predecessors completed)
    remaining: Dict[Tuple[str, int], int] = {}
    # ready queue: (-bottom level, name, task_id, time it became ready)
    ready: List[Tuple[float, str, int, float]] = []
    for name, app in apps.items():
        ptg = app.ptg
        levels = bottom_levels[name]
        release = max(start, releases.get(name, 0.0)) if releases else start
        if tasks is None:
            counts = [(tid, ptg.in_degree(tid)) for tid in ptg.task_ids()]
        else:
            subset = tasks[name]
            counts = [
                (tid, sum(1 for p in ptg.predecessors(tid) if p in subset))
                for tid in sorted(subset)
            ]
        for tid, count in counts:
            remaining[(name, tid)] = count
            if count == 0:
                heapq.heappush(ready, (-levels[tid], name, tid, release))

    # completion events of already-placed tasks: (finish, name, task_id)
    events: List[Tuple[float, str, int]] = []
    placed: List[ScheduledTask] = []
    current_time = start
    events_seen = 0
    while ready or events:
        events_seen += 1
        placed_before = len(placed)
        # 1. place every currently ready task, highest bottom level
        #    first (releases only happen in step 3, so the heap is
        #    drained snapshot-free)
        while ready:
            _, name, task_id, ready_since = heapq.heappop(ready)
            app = apps[name]
            ptg = app.ptg
            predecessors = [
                (pred, ptg.edge_data(pred, task_id)) for pred in ptg.predecessors(task_id)
            ]
            entry = engine.place(
                ptg_name=name,
                task=ptg.task(task_id),
                allocation=app.allocation,
                predecessors=predecessors,
                schedule=schedule,
                not_before=max(ready_since, current_time),
            )
            placed.append(entry)
            heapq.heappush(events, (entry.finish, name, task_id))

        if registry is not None:
            registry.histogram(
                "mapping.ready_candidates", edges=meters.DEFAULT_COUNT_EDGES
            ).observe(len(placed) - placed_before)

        # 2. advance the clock to the next completion
        if not events:
            break
        completions: List[Tuple[str, int]] = []
        finish, name, task_id = heapq.heappop(events)
        current_time = finish
        completions.append((name, task_id))
        # drain other completions at the same instant so their
        # successors are released together
        while events and abs(events[0][0] - current_time) <= 1e-12:
            _, other_name, other_id = heapq.heappop(events)
            completions.append((other_name, other_id))

        # 3. release newly ready tasks by decrementing the predecessor
        #    counters of the completed tasks' successors; a successor
        #    outside the tasks to place counts down from 0, never to
        #    reach it again
        for done_name, done_id in completions:
            levels = bottom_levels[done_name]
            for succ in apps[done_name].ptg.successors(done_id):
                key = (done_name, succ)
                left = remaining.get(key, 0) - 1
                remaining[key] = left
                if left == 0:
                    heapq.heappush(ready, (-levels[succ], done_name, succ, current_time))

    return placed, events_seen


class ReadyListMapper(Mapper):
    """Concurrent list scheduling limited to the ready tasks.

    Reproduces the paper's event-driven mapping procedure: only ready
    tasks compete, ordered by decreasing bottom level, each placed at its
    earliest finish time with allocation packing.
    """

    name = "ready-list"

    def __init__(self, enable_packing: bool = True) -> None:
        self.enable_packing = enable_packing

    def map(
        self, allocated: Sequence[AllocatedPTG], platform: MultiClusterPlatform
    ) -> Schedule:
        """Map all applications onto *platform*.

        Returns a :class:`~repro.mapping.schedule.Schedule` covering every
        task of every application.
        """
        self._check_inputs(allocated)
        schedule = Schedule(platform.name)
        engine = PlacementEngine(platform, enable_packing=self.enable_packing)
        apps: Dict[str, AllocatedPTG] = {a.name: a for a in allocated}
        total_tasks = sum(app.ptg.n_tasks for app in apps.values())

        # one coarse span per map call plus a candidate-set histogram per
        # event; the disabled path costs one None check per event
        registry = meters.active()
        with trace.span("mapping.map", apps=str(len(apps))) as obs_span:
            _, events_seen = place_ready_tasks(engine, schedule, apps, registry=registry)
            if registry is not None:
                obs_span.annotate(events=events_seen, tasks=total_tasks)
                registry.counter("mapping.events").inc(events_seen)

        if len(schedule) != total_tasks:
            raise MappingError(
                f"ready-list mapping placed {len(schedule)} tasks out of {total_tasks}"
            )
        return schedule
