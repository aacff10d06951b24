"""Earliest-finish-time placement of one allocated task, with packing.

For one ready task the placement engine evaluates every cluster of the
platform:

1. translate the reference allocation into an actual processor count on
   that cluster,
2. compute the data-ready time on that cluster (predecessor finish times
   plus inter-cluster redistribution estimates),
3. compute the earliest start given processor availability,
4. apply the paper's **allocation packing** mechanism: "if a task has to
   be delayed because all the processors it needs are not available, we
   reduce its allocation if and only if the task can start earlier and
   finish no later than on its original allocation",
5. keep the cluster and processor count with the earliest finish time.

Performance
-----------
The engine is the innermost loop of every mapper, so it runs the
**delta-EFT** selection: instead of fully evaluating every cluster, it
derives an exact per-cluster *lower bound* on the achievable finish time
from the free-time frontier (``max(ready lower bound, first free time) +
duration at the translated allocation``), evaluates clusters in
ascending bound order and stops as soon as the next bound exceeds the
best finish found -- dominated clusters are skipped without computing
their candidates.  One dict lookup per placement gives the translated
processor count of every cluster (keyed by the reference speed and
processors, all that ``ReferenceCluster.translate`` reads); the bounds
are a plain list of floats, ordered by a stable index sort, and only
the clusters evaluated read their count, duration and frontier
(:meth:`~repro.mapping.timeline.ClusterTimeline.kth_free_list`, read
from the timeline on every placement: a rollback or a block replaces
the list).  The packing sweep walks the allocation sizes ``p-1 .. 1``
over that frontier, short-circuiting once the remaining (monotonically
non-decreasing) candidate finishes can no longer be accepted.  Every
cutoff is justified by an exact inequality on the same IEEE-754
quantities a full declaration-order scan computes, so the schedules are
bit-identical to the scalar formulation frozen in
``tests/oracles/mapping.py`` (asserted by ``tests/test_mapping_golden.py``
and ``tests/test_delta_golden.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.allocation.base import Allocation
from repro.dag.task import Task
from repro.exceptions import MappingError
from repro.mapping.comm import CommunicationEstimator
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.mapping.timeline import ClusterTimeline, PlatformTimeline
from repro.obs import meters
from repro.platform.multicluster import MultiClusterPlatform

#: The winner of :meth:`PlacementEngine._select`: ``(processors, start,
#: finish, duration, packed, requested processors, cluster name,
#: timeline, reference processors)``, where ``duration`` is the
#: evaluated execution time that :meth:`PlacementEngine.place` reserves.
Selection = Tuple[int, float, float, float, bool, int, str, ClusterTimeline, int]


class PlacementEngine:
    """Places allocated tasks one by one, maintaining processor timelines.

    Implements the paper's earliest-finish-time mapping of moldable tasks
    over all clusters, including the allocation packing rule (shrink a
    delayed allocation only when it starts earlier and finishes no later).
    """

    def __init__(
        self,
        platform: MultiClusterPlatform,
        enable_packing: bool = True,
        comm: Optional[CommunicationEstimator] = None,
    ) -> None:
        self.platform = platform
        self.enable_packing = enable_packing
        self.comm = comm or CommunicationEstimator(platform)
        self.timelines = PlatformTimeline(platform)
        self.packed_tasks = 0
        # Per-cluster evaluation context, in declaration order, cached
        # once (``place`` is called for every task of every application):
        # (cluster name, timeline, speed_flops).
        self._clusters = [
            (cluster.name, self.timelines.timeline(cluster.name), cluster.speed_flops)
            for cluster in platform
        ]
        # The translated processor count of every cluster, in declaration
        # order, keyed by (reference speed, reference processors): all
        # that ``ReferenceCluster.translate`` reads, and the same pure
        # integer arithmetic for every task of every admission.
        self._translations: Dict[Tuple[float, int], Tuple[int, ...]] = {}
        # a synthetic task runs on one processor wherever it is placed
        self._single = (1,) * len(self._clusters)

    # ------------------------------------------------------------------ #
    # cluster selection
    # ------------------------------------------------------------------ #
    def _select(
        self,
        ptg_name: str,
        task: Task,
        allocation: Allocation,
        predecessors: List[Tuple[int, float]],
        schedule: Schedule,
        not_before: float,
    ) -> Selection:
        """Delta-EFT cluster selection: bound-ordered with early cutoff.

        Bit-identical to a full declaration-order scan of every cluster
        (the oracle in ``tests/oracles/mapping.py``).  For every cluster,
        ``max(ready lower bound, first free time) + T(translated procs)``
        is an exact lower bound on any achievable finish there -- packed
        candidates included, since shrinking the allocation only raises
        the duration and the ``k``-th free time is minimal at ``k = 1``.
        Clusters are evaluated in ascending bound order (a stable sort,
        so equal bounds keep declaration order), so once a bound exceeds
        the best finish found the rest are dominated and skipped without
        computing their data-ready times or candidates.  The winner is
        picked by the (unique) lexicographic minimum of ``(finish, start,
        declaration index)``, which equals the full scan's first-wins
        declaration order, and returned as a :data:`Selection` carrying
        the duration it was evaluated with: ``(alpha + (1 - alpha) / p) *
        flops / speed``, the expression of
        :meth:`~repro.dag.task.Task.execution_time` (``0.0`` for a
        synthetic task).
        """
        if not_before < 0:
            raise MappingError(f"ready_time must be non-negative, got {not_before}")
        # Resolve predecessor placements once (a full scan re-reads the
        # schedule per cluster); their maximal finish joins ``not_before``
        # as a transfer-free lower bound on every cluster's ready time.
        preds: List[Tuple[float, str, float]] = []
        ready_floor = not_before
        for pred_id, data_bytes in predecessors:
            entry = schedule.entry(ptg_name, pred_id)
            pred_finish = entry.finish
            preds.append((pred_finish, entry.cluster_name, data_bytes))
            if pred_finish > ready_floor:
                ready_floor = pred_finish

        ref_procs = allocation.processors(task.task_id)
        if task.is_synthetic:
            # every duration below is exactly 0.0
            alpha = one_minus = flops = 0.0
            counts = self._single
        else:
            alpha = task.alpha
            one_minus = 1.0 - alpha
            flops = task.flops
            reference = allocation.reference
            key = (reference.speed_gflops, ref_procs)
            counts = self._translations.get(key)
            if counts is None:
                # translate() clips to [1, cluster size], matching
                # Allocation.cluster_processors + min()
                counts = self._translations[key] = tuple(
                    reference.translate(ref_procs, cluster) for cluster in self.platform
                )

        # Frontiers are read from the timelines on every call: block()
        # and rollback_transaction() replace a timeline's lists.
        clusters = self._clusters
        bounds: List[float] = []
        for (_, timeline, speed), requested in zip(clusters, counts):
            kth0 = timeline.kth_free_list()[0]
            lower_start = ready_floor if ready_floor >= kth0 else kth0
            bounds.append(lower_start + (alpha + one_minus / requested) * flops / speed)

        comm = self.comm
        enable_packing = self.enable_packing
        best_finish = best_start = float("inf")
        best_decl = len(bounds)
        best: Optional[Selection] = None
        for decl_index in sorted(range(len(bounds)), key=bounds.__getitem__):
            if bounds[decl_index] > best_finish:
                # every remaining candidate finishes at or above its bound
                break
            cname, timeline, speed = clusters[decl_index]
            ready = not_before
            for pred_finish, pred_cluster, data_bytes in preds:
                if pred_cluster == cname:
                    t = pred_finish  # intra-cluster transfer is exactly 0.0
                else:
                    t = pred_finish + comm.transfer_time(
                        data_bytes, pred_cluster, cname
                    )
                if t > ready:
                    ready = t
            requested = counts[decl_index]
            dur_req = (alpha + one_minus / requested) * flops / speed
            frontier = timeline.kth_free_list()
            kth = frontier[requested - 1]
            start = ready if ready >= kth else kth
            finish = start + dur_req

            procs, pstart, pfinish, pdur, packed = (
                requested, start, finish, dur_req, False,
            )
            if enable_packing and requested > 1 and start > ready + 1e-12:
                p = requested - 1
                while p >= 1:
                    kthp = frontier[p - 1]
                    if kthp > ready:
                        dur = (alpha + one_minus / p) * flops / speed
                        alt_finish = kthp + dur
                        if kthp < start - 1e-12 and alt_finish <= finish + 1e-12:
                            if alt_finish < pfinish - 1e-12 or (
                                abs(alt_finish - pfinish) <= 1e-12 and kthp < pstart
                            ):
                                procs, pstart, pfinish, pdur, packed = (
                                    p, kthp, alt_finish, dur, True,
                                )
                        p -= 1
                        continue
                    # the frontier is ascending in p, so from here down
                    # every candidate starts exactly at ``ready`` ...
                    if not ready < start - 1e-12:
                        break  # ... which never satisfies "starts earlier"
                    while p >= 1:
                        dur = (alpha + one_minus / p) * flops / speed
                        alt_finish = ready + dur
                        if alt_finish > finish + 1e-12 or alt_finish > pfinish + 1e-12:
                            # durations only grow as p shrinks, so neither
                            # acceptance bound can be met again: done
                            break
                        if alt_finish < pfinish - 1e-12 or (
                            abs(alt_finish - pfinish) <= 1e-12 and ready < pstart
                        ):
                            procs, pstart, pfinish, pdur, packed = (
                                p, ready, alt_finish, dur, True,
                            )
                        p -= 1
                    break

            if (pfinish, pstart, decl_index) < (best_finish, best_start, best_decl):
                best_finish, best_start, best_decl = pfinish, pstart, decl_index
                best = (
                    procs, pstart, pfinish, pdur, packed, requested, cname, timeline,
                    ref_procs,
                )
        if best is None:  # pragma: no cover - platform is never empty
            raise MappingError("platform has no cluster to place the task on")
        return best

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def place(
        self,
        ptg_name: str,
        task: Task,
        allocation: Allocation,
        predecessors: List[Tuple[int, float]],
        schedule: Schedule,
        not_before: float = 0.0,
    ) -> ScheduledTask:
        """Place *task* on the best cluster and commit the reservation.

        Parameters
        ----------
        ptg_name:
            Name of the application the task belongs to.
        task:
            The task to place.
        allocation:
            The application's allocation (reference processors per task).
        predecessors:
            ``(pred_task_id, edge_data_bytes)`` pairs; all predecessors
            must already appear in *schedule*.
        schedule:
            The schedule under construction; the new entry is added to it.
        not_before:
            Lower bound on the start time (the instant the task became
            ready in the event-driven mapper).
        """
        (
            procs, evaluated_start, evaluated_finish, duration,
            packed, requested, cluster_name, timeline, ref_procs,
        ) = self._select(ptg_name, task, allocation, predecessors, schedule, not_before)
        # reserve exactly what was evaluated: the duration _select computed
        # and its start, on the timeline it read
        indices, start, finish = timeline.reserve(procs, evaluated_start, duration)
        if abs(start - evaluated_start) > 1e-6 or abs(finish - evaluated_finish) > 1e-6:
            # The reservation must match the evaluation: both use the same
            # timeline state, so a mismatch means an internal bug.
            raise MappingError(
                f"inconsistent reservation for task {task.task_id} of {ptg_name!r}: "
                f"evaluated [{evaluated_start:.6f}, {evaluated_finish:.6f}] "
                f"but reserved [{start:.6f}, {finish:.6f}]"
            )
        if packed:
            self.packed_tasks += 1
        registry = meters.active()
        if registry is not None:
            registry.counter("mapping.placements").inc()
            if packed:
                registry.counter("mapping.packed").inc()
            if procs < requested:
                registry.histogram(
                    "mapping.packing_reduction", edges=meters.DEFAULT_COUNT_EDGES
                ).observe(requested - procs)
        entry = ScheduledTask(
            ptg_name, task.task_id, cluster_name, tuple(indices), start, finish, ref_procs
        )
        schedule.add(entry)
        return entry
