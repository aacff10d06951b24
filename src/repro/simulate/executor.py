"""Replay of a planned schedule on the simulated platform.

The executor takes the :class:`~repro.mapping.schedule.Schedule` produced
by a mapper and *executes* it against the platform model:

* a task runs on exactly the processors the schedule assigned to it, for
  the duration given by its cost model on that cluster;
* a task starts only when (a) every predecessor has finished **and** its
  output data has reached the task's cluster through the fluid network
  (inter-cluster redistributions experience switch/uplink contention),
  and (b) every assigned processor has finished all the tasks planned
  before it on that processor;
* per-processor execution order follows the planned start times, i.e. the
  executor respects the mapper's decisions but re-times them under the
  richer network model -- exactly the role SimGrid plays in the paper.

The measured per-application makespans (from submission at t=0 to the
completion of the application's last task) feed the slowdown, unfairness
and relative-makespan metrics.

The per-processor order comes from one sort of every task by its planned
``(start, finish, application, topological index)``, dealt to the
queues of its processors.  Each task then counts the processors still
held by a task queued before it and lists the tasks queued right after
it, so a start check and a processor release cost O(processors of the
task) instead of a scan of per-processor frontiers.

Fault injection
---------------
When a :class:`~repro.faults.timeline.FaultTimeline` is passed, the
replay is **perturbed**: a task running on a processor when a down
window opens is killed at that instant (a ``killed``
:class:`~repro.simulate.report.FailureRecord`), a task trying to start
on a down processor fails immediately (``unavailable``), and tasks
starved of inputs or processors by an upstream failure are reported as
``blocked`` instead of raising the deadlock error -- the engine emits
failure events rather than silently diverging.  Degradation windows
re-time the run: compute durations are multiplied by the slowdown
factor and transfer volumes by the bandwidth factor in effect when they
start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dag.graph import PTG
from repro.exceptions import SimulationError
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.platform.multicluster import MultiClusterPlatform
from repro.simulate.engine import EventHandle, SimulationEngine
from repro.simulate.network import FairShareNetwork
from repro.simulate.report import FailureRecord, SimulationReport, TaskRecord

TaskKey = Tuple[str, int]


@dataclass(eq=False)
class _TaskState:
    """Mutable execution state of one scheduled task.

    ``blockers`` counts the processors of the task still held by a task
    queued before it; ``next_tasks`` are the tasks queued right after it
    on its processors, in the order the processors were first seen.
    """

    key: TaskKey
    entry: ScheduledTask
    duration: float
    remaining_inputs: int
    release: float
    blockers: int = 0
    next_tasks: List["_TaskState"] = field(default_factory=list)
    started: bool = False
    finished: bool = False
    failed: bool = False
    start_time: float = 0.0
    finish_time: float = 0.0
    effective_finish: float = 0.0
    finish_handle: Optional[EventHandle] = None


class ScheduleExecutor:
    """Execute a planned schedule and measure the resulting makespans.

    Parameters
    ----------
    platform:
        The platform model to replay against.
    network_factory:
        Callable building the network model from ``(platform, engine)``.
        Defaults to the contention-aware
        :class:`~repro.simulate.network.FairShareNetwork`; the
        differential tests pass
        :class:`~repro.simulate.network.EstimatorNetwork` to replay a
        plan under the mapper's own transfer assumptions.
    """

    def __init__(self, platform: MultiClusterPlatform, network_factory=None) -> None:
        self.platform = platform
        self.network_factory = network_factory or FairShareNetwork

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        ptgs: Sequence[PTG],
        schedule: Schedule,
        releases: Optional[Dict[str, float]] = None,
        faults=None,
    ) -> SimulationReport:
        """Simulate the execution of *schedule* for the applications *ptgs*.

        *releases* maps application names to submission instants: no
        task of an application starts before its release (the online
        setting).  Applications without an entry release at t=0.

        *faults* is an optional
        :class:`~repro.faults.timeline.FaultTimeline`.  When set the
        replay is perturbed (see the module docstring): tasks caught by
        a down window fail with a
        :class:`~repro.simulate.report.FailureRecord` instead of
        finishing, degradation windows stretch compute and transfer
        times, and a starved run ends with ``blocked`` records rather
        than a :class:`~repro.exceptions.SimulationError`.
        """
        if not ptgs:
            raise SimulationError("at least one PTG is required")
        graphs: Dict[str, PTG] = {p.name: p for p in ptgs}
        if len(graphs) != len(ptgs):
            raise SimulationError("concurrent PTGs must have unique names")

        engine = SimulationEngine()
        network = self.network_factory(self.platform, engine)
        releases = dict(releases) if releases else {}

        # ---------------- state construction ----------------
        states: Dict[TaskKey, _TaskState] = {}
        order_keys: Dict[TaskKey, Tuple[float, float, str, int]] = {}
        for ptg in ptgs:
            release = releases.get(ptg.name, 0.0)
            topo_index = {tid: i for i, tid in enumerate(ptg.topological_order())}
            for task in ptg.tasks():
                key = (ptg.name, task.task_id)
                if not schedule.has_entry(*key):
                    raise SimulationError(
                        f"schedule misses task {task.task_id} of {ptg.name!r}"
                    )
                entry = schedule.entry(*key)
                cluster = self.platform.cluster(entry.cluster_name)
                duration = task.execution_time(entry.num_processors, cluster.speed_flops)
                states[key] = _TaskState(
                    key, entry, duration, ptg.in_degree(task.task_id), release
                )
                order_keys[key] = (
                    entry.start, entry.finish, ptg.name, topo_index[task.task_id]
                )

        # per-processor execution queues, ordered by planned start: one
        # sort of every task, dealt to the queues of its processors (the
        # queue table keeps the processors in first-seen order)
        proc_queues: Dict[Tuple[str, int], List[_TaskState]] = {}
        for state in states.values():
            for proc in state.entry.processors:
                proc_queues.setdefault((state.entry.cluster_name, proc), [])
        for key in sorted(states, key=order_keys.__getitem__):
            state = states[key]
            for proc in state.entry.processors:
                proc_queues[(state.entry.cluster_name, proc)].append(state)
        for queue in proc_queues.values():
            for before, after in zip(queue, queue[1:]):
                before.next_tasks.append(after)
                after.blockers += 1

        report = SimulationReport(platform_name=self.platform.name)

        # ---------------- event callbacks ----------------
        def fail_task(state: _TaskState, reason: str) -> None:
            if state.finished or state.failed:
                return
            state.failed = True
            if state.finish_handle is not None:
                state.finish_handle.cancel()
            report.add_failure(
                FailureRecord(
                    ptg_name=state.key[0],
                    task_id=state.key[1],
                    cluster_name=state.entry.cluster_name,
                    time=engine.now,
                    reason=reason,
                )
            )

        def try_start(state: _TaskState) -> None:
            if state.started or state.finished or state.failed:
                return
            if state.remaining_inputs > 0:
                return
            now = engine.now
            if now < state.release:
                # submitted later: re-check at the release instant (the
                # retry is idempotent, duplicates are harmless)
                engine.schedule(state.release, try_start, state)
                return
            if state.blockers:
                return
            if faults is not None:
                down = faults.down_processors(state.entry.cluster_name, now)
                if down and any(p in down for p in state.entry.processors):
                    fail_task(state, "unavailable")
                    return
            state.started = True
            state.start_time = now
            duration = state.duration
            if faults is not None:
                duration *= faults.slowdown_factor(state.entry.cluster_name, now)
            state.effective_finish = now + duration
            state.finish_handle = engine.schedule_after(duration, finish_task, state)

        def input_arrived(state: _TaskState) -> None:
            if state.remaining_inputs <= 0:
                raise SimulationError(
                    f"task {state.key[1]} of {state.key[0]!r} received more "
                    "inputs than predecessors"
                )
            state.remaining_inputs -= 1
            try_start(state)

        def finish_task(state: _TaskState) -> None:
            if state.failed:
                # stale completion event of a task killed mid-flight
                return
            state.finished = True
            state.finish_time = engine.now
            ptg_name, task_id = state.key
            entry = state.entry
            report.add(
                TaskRecord(
                    ptg_name=ptg_name,
                    task_id=task_id,
                    cluster_name=entry.cluster_name,
                    num_processors=entry.num_processors,
                    start=state.start_time,
                    finish=state.finish_time,
                    planned_start=entry.start,
                    planned_finish=entry.finish,
                )
            )
            # release the processors: wake the next queued task on each
            for queued in state.next_tasks:
                queued.blockers -= 1
                try_start(queued)
            # propagate data to the successors
            ptg = graphs[ptg_name]
            for succ in ptg.successors(task_id):
                succ_state = states[(ptg_name, succ)]
                data_bytes = ptg.edge_data(task_id, succ)
                if faults is not None:
                    # the factor in effect when the transfer starts
                    # scales its volume -- a deterministic rule
                    data_bytes *= faults.bandwidth_factor(engine.now)
                network.start_transfer(
                    data_bytes,
                    entry.cluster_name,
                    succ_state.entry.cluster_name,
                    lambda queued=succ_state: input_arrived(queued),
                )

        # ---------------- fault strikes ----------------
        strike_order = [states[key] for key in sorted(states)]

        def strike(window) -> None:
            down = set(window.processors)
            for state in strike_order:
                if not state.started or state.finished or state.failed:
                    continue
                if state.entry.cluster_name != window.cluster_name:
                    continue
                if state.effective_finish <= engine.now + 1e-12:
                    # completes exactly at the strike instant: survives
                    continue
                if any(p in down for p in state.entry.processors):
                    fail_task(state, "killed")

        # ---------------- kick-off and run ----------------
        for state in states.values():
            if state.remaining_inputs == 0:
                engine.schedule(state.release, try_start, state)
        if faults is not None:
            for window in faults.windows:
                engine.schedule(window.start, strike, window)
        engine.run()

        unfinished = [key for key, state in states.items() if not state.finished]
        if unfinished:
            if faults is None:
                raise SimulationError(
                    f"simulation deadlocked with {len(unfinished)} unfinished tasks, "
                    f"e.g. {unfinished[:5]}"
                )
            for key in sorted(unfinished):
                fail_task(states[key], "blocked")
        report.network_bytes = network.total_bytes_transferred
        report.network_flows = network.completed_flows
        return report

    def measure_makespans(
        self, ptgs: Sequence[PTG], schedule: Schedule
    ) -> Dict[str, float]:
        """Convenience wrapper returning only the per-application makespans."""
        return self.execute(ptgs, schedule).makespans()
