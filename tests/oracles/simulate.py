"""Golden oracle of the schedule replay.

The optimized replay (slotted event handles, one wake-up event for the
earliest flow completion, per-resource flow counts kept up to date,
per-network route cache, per-task processor counters in the executor)
must produce **bit-identical reports** to the straightforward
formulation it replaced.  This module keeps that formulation alive:

* :class:`ReferenceSimulationEngine` -- a heap of ``(time, sequence,
  handle)`` entries, ``peek_time`` + ``step`` per event,
* :class:`ReferenceFairShareNetwork` -- one completion event per flow,
  cancelled and re-pushed on every rate change, resource usage recounted
  over every flow at every event, routes derived per transfer,
* :class:`ReferenceScheduleExecutor` -- per-processor queues sorted one by
  one, readiness checked by scanning the processor frontiers.

It serves the golden suite ``tests/test_simulate_golden.py``.  The
contention-free :class:`~repro.simulate.network.EstimatorNetwork` is
shared with the production path: pass it as ``network_factory``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dag.graph import PTG
from repro.exceptions import SimulationError
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.platform.multicluster import MultiClusterPlatform
from repro.simulate.report import FailureRecord, SimulationReport, TaskRecord

TaskKey = Tuple[str, int]


@dataclass(eq=False)
class ReferenceEventHandle:
    """Handle of a scheduled event; keeps enough state to cancel it."""

    time: float
    callback: Callable[..., None]
    args: Tuple[Any, ...]
    cancelled: bool = False

    def cancel(self) -> None:
        """Cancel the event (a no-op if it already fired)."""
        self.cancelled = True


class ReferenceSimulationEngine:
    """Time-ordered execution of callbacks."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, ReferenceEventHandle]] = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._processed

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ReferenceEventHandle:
        """Schedule *callback(*args)* at simulated *time*.

        *time* must not be in the past.  Returns a cancellable handle.
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {time} before current time {self._now}"
            )
        handle = ReferenceEventHandle(
            time=max(time, self._now), callback=callback, args=args
        )
        heapq.heappush(self._heap, (handle.time, next(self._sequence), handle))
        return handle

    def schedule_after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ReferenceEventHandle:
        """Schedule *callback* after *delay* seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, *args)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none is left."""
        while self._heap:
            time, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            self._processed += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Run until the event queue drains (or *until* / *max_events* is hit)."""
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self._now = until
                return
            if not self.step():
                return
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events; "
                    "this usually indicates a livelock in the model"
                )


@dataclass
class ReferenceFlow:
    """One data transfer in progress."""

    flow_id: int
    src_cluster: str
    dst_cluster: str
    total_bytes: float
    remaining_bytes: float
    resources: Tuple[str, ...]
    on_complete: Callable[[], None]
    started_at: float = 0.0
    rate: float = 0.0
    completion_event: Optional[ReferenceEventHandle] = None


class ReferenceFairShareNetwork:
    """Fluid network with per-resource equal bandwidth sharing."""

    def __init__(
        self, platform: MultiClusterPlatform, engine: ReferenceSimulationEngine
    ) -> None:
        self.platform = platform
        self.engine = engine
        self.topology = platform.topology
        self._flows: Dict[int, ReferenceFlow] = {}
        self._ids = itertools.count()
        self._last_update = 0.0
        self.completed_flows = 0
        self.total_bytes_transferred = 0.0
        # resource capacities: the aggregate NIC pool of every cluster
        # (each node has its own link to the switch) + every switch
        # backplane
        self._capacity: Dict[str, float] = {}
        for cluster in platform:
            self._capacity[f"uplink:{cluster.name}"] = (
                self.topology.cluster_access_bandwidth(cluster.num_processors)
            )
        for switch in self.topology.switches:
            self._capacity[f"switch:{switch.name}"] = switch.bandwidth

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def start_transfer(
        self,
        data_bytes: float,
        src_cluster: str,
        dst_cluster: str,
        on_complete: Callable[[], None],
    ) -> int:
        """Start a transfer; *on_complete* fires when the last byte arrives.

        Transfers inside a single cluster and empty transfers complete
        after the path latency only (the data does not cross the switches).
        """
        if data_bytes < 0:
            raise SimulationError(f"data_bytes must be non-negative, got {data_bytes}")
        if src_cluster not in self.platform or dst_cluster not in self.platform:
            raise SimulationError(
                f"unknown cluster in transfer {src_cluster!r} -> {dst_cluster!r}"
            )
        latency = self.topology.path_latency(src_cluster, dst_cluster)
        if data_bytes == 0 or src_cluster == dst_cluster:
            self.engine.schedule_after(latency if src_cluster != dst_cluster else 0.0, on_complete)
            return -1

        flow_id = next(self._ids)

        def _begin() -> None:
            self._advance_progress()
            resources = [f"uplink:{src_cluster}", f"uplink:{dst_cluster}"]
            resources += [
                f"switch:{s.name}" for s in self.topology.route(src_cluster, dst_cluster)
            ]
            flow = ReferenceFlow(
                flow_id=flow_id,
                src_cluster=src_cluster,
                dst_cluster=dst_cluster,
                total_bytes=data_bytes,
                remaining_bytes=data_bytes,
                resources=tuple(dict.fromkeys(resources)),
                on_complete=on_complete,
                started_at=self.engine.now,
            )
            self._flows[flow_id] = flow
            self._recompute_rates()

        # latency is paid before the fluid part of the transfer starts
        self.engine.schedule_after(latency, _begin)
        return flow_id

    @property
    def active_flows(self) -> int:
        """Number of flows currently transferring data."""
        return len(self._flows)

    def flow_rate(self, flow_id: int) -> float:
        """Current rate of a flow (bytes/s); raises if it is not active."""
        try:
            return self._flows[flow_id].rate
        except KeyError:
            raise SimulationError(f"flow {flow_id} is not active") from None

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _advance_progress(self) -> None:
        """Account for the bytes transferred since the last rate change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                flow.remaining_bytes = max(
                    0.0, flow.remaining_bytes - flow.rate * elapsed
                )
        self._last_update = now

    def _recompute_rates(self) -> None:
        """Recompute flow rates and reschedule completion events.

        Completion events are only rescheduled for flows whose rate
        actually changed (flows that do not share any resource with the
        arriving/leaving flow keep their event), which keeps the event
        count linear in practice.
        """
        usage: Dict[str, int] = {}
        for flow in self._flows.values():
            for resource in flow.resources:
                usage[resource] = usage.get(resource, 0) + 1
        for flow in self._flows.values():
            new_rate = min(
                self._capacity[resource] / usage[resource] for resource in flow.resources
            )
            if new_rate <= 0:
                raise SimulationError("flow rate dropped to zero")
            unchanged = (
                flow.completion_event is not None
                and not flow.completion_event.cancelled
                and abs(new_rate - flow.rate) <= 1e-9 * new_rate
            )
            if unchanged:
                continue
            flow.rate = new_rate
            if flow.completion_event is not None:
                flow.completion_event.cancel()
            eta = flow.remaining_bytes / flow.rate
            flow.completion_event = self.engine.schedule_after(
                eta, self._complete_flow, flow.flow_id
            )

    def _complete_flow(self, flow_id: int) -> None:
        self._advance_progress()
        flow = self._flows.get(flow_id)
        if flow is None:
            return
        # numerical safety: the flow may have a few bytes left due to
        # floating point accumulation; treat anything below one byte as done.
        # More than a byte left (time rounding at large instants): re-arm
        # the fired event, unless the new eta would not advance the clock.
        now = self.engine.now
        if flow.remaining_bytes > 1.0 and now + flow.remaining_bytes / flow.rate > now:
            flow.completion_event = None
            self._recompute_rates()
            return
        del self._flows[flow_id]
        self.completed_flows += 1
        self.total_bytes_transferred += flow.total_bytes
        self._recompute_rates()
        flow.on_complete()


@dataclass
class _TaskState:
    """Mutable execution state of one scheduled task."""

    entry: ScheduledTask
    duration: float
    remaining_inputs: int
    started: bool = False
    finished: bool = False
    failed: bool = False
    start_time: float = 0.0
    finish_time: float = 0.0
    effective_finish: float = 0.0
    finish_handle: Optional[ReferenceEventHandle] = None


class ReferenceScheduleExecutor:
    """Execute a planned schedule and measure the resulting makespans.

    Parameters
    ----------
    platform:
        The platform model to replay against.
    network_factory:
        Callable building the network model from ``(platform, engine)``.
        Defaults to the contention-aware
        :class:`ReferenceFairShareNetwork`; the
        differential tests pass
        :class:`~repro.simulate.network.EstimatorNetwork` to replay a
        plan under the mapper's own transfer assumptions.
    """

    def __init__(self, platform: MultiClusterPlatform, network_factory=None) -> None:
        self.platform = platform
        self.network_factory = network_factory or ReferenceFairShareNetwork

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

        engine = ReferenceSimulationEngine()
        network = self.network_factory(self.platform, engine)
        releases = dict(releases) if releases else {}

        # ---------------- state construction ----------------
        states: Dict[TaskKey, _TaskState] = {}
        for ptg in ptgs:
            for task in ptg.tasks():
                if not schedule.has_entry(ptg.name, task.task_id):
                    raise SimulationError(
                        f"schedule misses task {task.task_id} of {ptg.name!r}"
                    )
                entry = schedule.entry(ptg.name, task.task_id)
                cluster = self.platform.cluster(entry.cluster_name)
                duration = task.execution_time(entry.num_processors, cluster.speed_flops)
                states[(ptg.name, task.task_id)] = _TaskState(
                    entry=entry,
                    duration=duration,
                    remaining_inputs=ptg.in_degree(task.task_id),
                )

        # per-processor execution queues, ordered by planned start
        topo_index: Dict[TaskKey, int] = {}
        for ptg in ptgs:
            for i, tid in enumerate(ptg.topological_order()):
                topo_index[(ptg.name, tid)] = i
        proc_queues: Dict[Tuple[str, int], List[TaskKey]] = {}
        for key, state in states.items():
            for proc in state.entry.processors:
                proc_queues.setdefault((state.entry.cluster_name, proc), []).append(key)
        for queue in proc_queues.values():
            queue.sort(
                key=lambda key: (
                    states[key].entry.start,
                    states[key].entry.finish,
                    key[0],
                    topo_index[key],
                )
            )
        queue_position: Dict[TaskKey, Dict[Tuple[str, int], int]] = {
            key: {} for key in states
        }
        for proc, queue in proc_queues.items():
            for position, key in enumerate(queue):
                queue_position[key][proc] = position
        frontier: Dict[Tuple[str, int], int] = {proc: 0 for proc in proc_queues}

        report = SimulationReport(platform_name=self.platform.name)

        # ---------------- event callbacks ----------------
        def fail_task(key: TaskKey, reason: str) -> None:
            state = states[key]
            if state.finished or state.failed:
                return
            state.failed = True
            if state.finish_handle is not None:
                state.finish_handle.cancel()
            report.add_failure(
                FailureRecord(
                    ptg_name=key[0],
                    task_id=key[1],
                    cluster_name=state.entry.cluster_name,
                    time=engine.now,
                    reason=reason,
                )
            )

        def try_start(key: TaskKey) -> None:
            state = states[key]
            if state.started or state.finished or state.failed:
                return
            if state.remaining_inputs > 0:
                return
            release = releases.get(key[0], 0.0)
            if engine.now < release:
                # submitted later: re-check at the release instant (the
                # retry is idempotent, duplicates are harmless)
                engine.schedule(release, try_start, key)
                return
            for proc, position in queue_position[key].items():
                if frontier[proc] != position:
                    return
            if faults is not None:
                down = faults.down_processors(state.entry.cluster_name, engine.now)
                if down and any(p in down for p in state.entry.processors):
                    fail_task(key, "unavailable")
                    return
            state.started = True
            state.start_time = engine.now
            duration = state.duration
            if faults is not None:
                duration *= faults.slowdown_factor(state.entry.cluster_name, engine.now)
            state.effective_finish = engine.now + duration
            state.finish_handle = engine.schedule_after(duration, finish_task, key)

        def input_arrived(key: TaskKey) -> None:
            state = states[key]
            if state.remaining_inputs <= 0:
                raise SimulationError(
                    f"task {key[1]} of {key[0]!r} received more inputs than predecessors"
                )
            state.remaining_inputs -= 1
            try_start(key)

        def finish_task(key: TaskKey) -> None:
            state = states[key]
            if state.failed:
                # stale completion event of a task killed mid-flight
                return
            state.finished = True
            state.finish_time = engine.now
            report.add(
                TaskRecord(
                    ptg_name=key[0],
                    task_id=key[1],
                    cluster_name=state.entry.cluster_name,
                    num_processors=state.entry.num_processors,
                    start=state.start_time,
                    finish=state.finish_time,
                    planned_start=state.entry.start,
                    planned_finish=state.entry.finish,
                )
            )
            # release the processors: advance each frontier and wake the
            # next queued task
            for proc, position in queue_position[key].items():
                if frontier[proc] != position:
                    raise SimulationError(
                        f"processor {proc} finished task {key} out of order"
                    )
                frontier[proc] += 1
                queue = proc_queues[proc]
                if frontier[proc] < len(queue):
                    try_start(queue[frontier[proc]])
            # propagate data to the successors
            ptg = graphs[key[0]]
            for succ in ptg.successors(key[1]):
                succ_key = (key[0], succ)
                data_bytes = ptg.edge_data(key[1], succ)
                if faults is not None:
                    # the factor in effect when the transfer starts
                    # scales its volume -- a deterministic rule
                    data_bytes *= faults.bandwidth_factor(engine.now)
                dst_cluster = states[succ_key].entry.cluster_name
                network.start_transfer(
                    data_bytes,
                    state.entry.cluster_name,
                    dst_cluster,
                    lambda sk=succ_key: input_arrived(sk),
                )

        # ---------------- fault strikes ----------------
        strike_order = sorted(states)

        def strike(window) -> None:
            down = set(window.processors)
            for key in strike_order:
                state = states[key]
                if not state.started or state.finished or state.failed:
                    continue
                if state.entry.cluster_name != window.cluster_name:
                    continue
                if state.effective_finish <= engine.now + 1e-12:
                    # completes exactly at the strike instant: survives
                    continue
                if any(p in down for p in state.entry.processors):
                    fail_task(key, "killed")

        # ---------------- kick-off and run ----------------
        for key, state in states.items():
            if state.remaining_inputs == 0:
                engine.schedule(releases.get(key[0], 0.0), try_start, key)
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
                if not states[key].failed:
                    fail_task(key, "blocked")
        report.network_bytes = network.total_bytes_transferred
        report.network_flows = network.completed_flows
        return report

    def measure_makespans(
        self, ptgs: Sequence[PTG], schedule: Schedule
    ) -> Dict[str, float]:
        """Convenience wrapper returning only the per-application makespans."""
        return self.execute(ptgs, schedule).makespans()
