"""Fluid fair-sharing network model.

Inter-cluster data redistributions are simulated as *flows*.  A flow
traverses a set of network resources:

* the uplink of the source cluster,
* the switch(es) on the route between the two clusters,
* the uplink of the destination cluster.

Each resource has a capacity (bytes/s).  At any instant the rate of a flow
is the minimum, over the resources it traverses, of the resource capacity
divided by the number of flows currently using that resource (equal
sharing per resource -- a standard fluid approximation of TCP fair
sharing, and the reason why clusters that share a switch, as in the
Rennes and Lille sites, experience more contention than clusters with
private switches).

Rates are recomputed whenever a flow starts or completes.  Each flow
additionally pays the path latency once, before data starts flowing.

Bookkeeping
-----------
The network derives the latency and the resources of each (source,
destination) cluster pair once, keeps the flow count and the equal share
``capacity / count`` of every resource up to date as flows begin and
complete, and holds **one** engine event: the wake-up for the earliest
flow completion.  When a flow's rate changes it stores its completion
time and takes the engine sequence number its own completion event
would have got (:meth:`~repro.simulate.engine.SimulationEngine.
reserve_sequence`); after each recompute the wake-up is re-armed at the
smallest ``(time, sequence)``.  Completions therefore run at the same
instants and in the same order, relative to every other event, as with
one cancellable event per flow and rate change -- the formulation the
golden oracle ``tests/oracles/simulate.py`` keeps -- with a fraction of
its heap traffic.  Progress is still accounted for flow by flow at every
event, so every float of a replay stays the same.

:class:`EstimatorNetwork` is the contention-free counterpart: every
transfer takes exactly the time the mappers'
:class:`~repro.mapping.comm.CommunicationEstimator` predicted for it.
Replaying a schedule against it must reproduce the mapper's planned
start and finish times -- the differential invariant
``tests/test_differential_simulation.py`` checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.platform.multicluster import MultiClusterPlatform
from repro.simulate.engine import EventHandle, SimulationEngine


@dataclass(eq=False)
class Flow:
    """One data transfer in progress.

    ``resources`` index the network's resources.  ``eta`` and
    ``sequence`` place the pending completion (``sequence`` is ``None``
    when none is pending); ``wake`` is the engine event pushed for that
    completion, if it ever was the earliest.
    """

    flow_id: int
    total_bytes: float
    remaining_bytes: float
    resources: Tuple[int, ...]
    on_complete: Callable[[], None]
    rate: float = 0.0
    eta: float = 0.0
    sequence: Optional[int] = None
    wake: Optional[EventHandle] = None


class FairShareNetwork:
    """Fluid network with per-resource equal bandwidth sharing."""

    def __init__(self, platform: MultiClusterPlatform, engine: SimulationEngine) -> None:
        self.platform = platform
        self.engine = engine
        self.topology = platform.topology
        self._flows: Dict[int, Flow] = {}
        self._ids = itertools.count()
        self._last_update = 0.0
        self.completed_flows = 0
        self.total_bytes_transferred = 0.0
        # resource capacities: the aggregate NIC pool of every cluster
        # (each node has its own link to the switch) + every switch
        # backplane; a resource is an index into these lists
        capacity: Dict[str, float] = {}
        for cluster in platform:
            capacity[f"uplink:{cluster.name}"] = (
                self.topology.cluster_access_bandwidth(cluster.num_processors)
            )
        for switch in self.topology.switches:
            capacity[f"switch:{switch.name}"] = switch.bandwidth
        self._resource = {name: index for index, name in enumerate(capacity)}
        self._capacity: List[float] = list(capacity.values())
        self._usage = [0] * len(self._capacity)
        self._share = [0.0] * len(self._capacity)
        # (src, dst) -> (latency, resources), derived on first use
        self._paths: Dict[Tuple[str, str], Tuple[float, Tuple[int, ...]]] = {}
        self._armed: Optional[EventHandle] = None

    def _path(self, src_cluster: str, dst_cluster: str) -> Tuple[float, Tuple[int, ...]]:
        """Latency and resource indices of a transfer between two clusters."""
        if src_cluster not in self.platform or dst_cluster not in self.platform:
            raise SimulationError(
                f"unknown cluster in transfer {src_cluster!r} -> {dst_cluster!r}"
            )
        if src_cluster == dst_cluster:
            path: Tuple[float, Tuple[int, ...]] = (0.0, ())
        else:
            names = [f"uplink:{src_cluster}", f"uplink:{dst_cluster}"]
            names += [
                f"switch:{s.name}" for s in self.topology.route(src_cluster, dst_cluster)
            ]
            path = (
                self.topology.path_latency(src_cluster, dst_cluster),
                tuple(self._resource[name] for name in dict.fromkeys(names)),
            )
        self._paths[(src_cluster, dst_cluster)] = path
        return path

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
        path = self._paths.get((src_cluster, dst_cluster))
        latency, resources = path or self._path(src_cluster, dst_cluster)
        if data_bytes == 0 or src_cluster == dst_cluster:
            self.engine.schedule_after(latency, on_complete)
            return -1
        flow_id = next(self._ids)
        # latency is paid before the fluid part of the transfer starts
        self.engine.schedule_after(
            latency,
            self._begin,
            Flow(flow_id, data_bytes, data_bytes, resources, on_complete),
        )
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
    def _count(self, flow: Flow, delta: int) -> None:
        """Add *delta* to the flow count of the flow's resources."""
        usage, share, capacity = self._usage, self._share, self._capacity
        for resource in flow.resources:
            count = usage[resource] = usage[resource] + delta
            if count:
                share[resource] = capacity[resource] / count

    def _begin(self, flow: Flow) -> None:
        self._advance_progress()
        self._flows[flow.flow_id] = flow
        self._count(flow, 1)
        self._recompute_rates()

    def _advance_progress(self) -> None:
        """Account for the bytes transferred since the last rate change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self._flows.values():
                remaining = flow.remaining_bytes - flow.rate * elapsed
                flow.remaining_bytes = remaining if remaining > 0.0 else 0.0
        self._last_update = now

    def _recompute_rates(self) -> None:
        """Recompute flow rates and re-arm the wake-up event.

        A flow keeps its pending completion while its rate is unchanged
        (flows that do not share any resource with the arriving/leaving
        flow); otherwise it takes a new completion time and a new
        sequence number.  The wake-up then moves to the earliest
        ``(time, sequence)``.
        """
        engine = self.engine
        now = engine.now
        reserve = engine.reserve_sequence
        share = self._share.__getitem__
        best: Optional[Flow] = None
        best_eta = best_sequence = 0
        for flow in self._flows.values():
            new_rate = min(map(share, flow.resources))
            if new_rate <= 0:
                raise SimulationError("flow rate dropped to zero")
            sequence = flow.sequence
            if sequence is None or not abs(new_rate - flow.rate) <= 1e-9 * new_rate:
                flow.rate = new_rate
                flow.eta = now + flow.remaining_bytes / new_rate
                flow.sequence = sequence = reserve()
                flow.wake = None
            eta = flow.eta
            if best is None or eta < best_eta or (
                eta == best_eta and sequence < best_sequence
            ):
                best, best_eta, best_sequence = flow, eta, sequence
        armed = self._armed
        if best is not None and best.wake is not None and best.wake is armed:
            return
        if armed is not None:
            armed.cancelled = True
        self._armed = None
        if best is None:
            return
        wake = best.wake
        if wake is None:
            wake = best.wake = engine.schedule_reserved(
                best.eta, best.sequence, self._complete_flow, best
            )
        else:
            # its cancelled copy is still queued at the same (time,
            # sequence): revive it rather than push a duplicate
            wake.cancelled = False
        self._armed = wake

    def _complete_flow(self, flow: Flow) -> None:
        self._advance_progress()
        self._armed = None  # the wake-up that fired
        # numerical safety: the flow may have a few bytes left due to
        # floating point accumulation; treat anything below one byte as done.
        # More than a byte left (time rounding at large instants): re-arm
        # the fired event, unless the new eta would not advance the clock.
        now = self.engine.now
        if flow.remaining_bytes > 1.0 and now + flow.remaining_bytes / flow.rate > now:
            flow.sequence = None
            self._recompute_rates()
            return
        del self._flows[flow.flow_id]
        self._count(flow, -1)
        self.completed_flows += 1
        self.total_bytes_transferred += flow.total_bytes
        self._recompute_rates()
        flow.on_complete()


class EstimatorNetwork:
    """Contention-free network reproducing the mapper's transfer estimates.

    Every transfer completes after exactly the time the memoized
    :class:`~repro.mapping.comm.CommunicationEstimator` predicts
    (latency plus volume over the path's bottleneck bandwidth), with no
    interaction between concurrent flows.  It exposes the same interface
    as :class:`FairShareNetwork`, so the schedule executor can swap the
    two: the fair-share model measures what contention does to a plan,
    this model verifies the plan against its own assumptions.
    """

    def __init__(self, platform: MultiClusterPlatform, engine: SimulationEngine) -> None:
        # Imported here: repro.mapping imports repro.platform like this
        # module does, but keeping the top level free of mapping imports
        # preserves the layering for the common fair-share path.
        from repro.mapping.comm import CommunicationEstimator

        self.platform = platform
        self.engine = engine
        self.estimator = CommunicationEstimator(platform)
        self.completed_flows = 0
        self.total_bytes_transferred = 0.0
        self._ids = itertools.count()

    def start_transfer(
        self,
        data_bytes: float,
        src_cluster: str,
        dst_cluster: str,
        on_complete: Callable[[], None],
    ) -> int:
        """Start a transfer completing after the estimator's predicted time."""
        if data_bytes < 0:
            raise SimulationError(f"data_bytes must be non-negative, got {data_bytes}")
        delay = self.estimator.transfer_time(data_bytes, src_cluster, dst_cluster)

        def _complete() -> None:
            self.completed_flows += 1
            self.total_bytes_transferred += data_bytes
            on_complete()

        self.engine.schedule_after(delay, _complete)
        return next(self._ids)

    @property
    def active_flows(self) -> int:
        """Always zero: transfers are instantaneous bookkeeping-wise."""
        return 0
