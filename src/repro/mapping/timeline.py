"""Per-cluster processor availability timelines.

The mappers are *non-insertion* list schedulers: each processor carries
the time at which it becomes free, and a task needing ``p`` processors on
a cluster starts at the maximum of its data-ready time and the ``p``-th
smallest processor-free time.  No attempt is made to backfill tasks into
earlier idle holes -- the paper explicitly avoids conservative backfilling
("this method that is already complex in the case of independent tasks is
even harder to implement in presence of dependencies") and instead relies
on the ready-task ordering plus the allocation packing mechanism.

Performance
-----------
A timeline keeps its state in two parallel plain Python lists: the
processor free times in ascending order, and the processor indices in
the same order (ascending index among equal free times, exactly the
``(free time, index)`` lexicographic order).  ``earliest_start`` is an
O(1) lookup of the ``p``-th sorted free time, ``select_processors(p)``
is the first ``p`` indices, and ``reserve`` drops the first ``p``
entries of both lists and inserts the new finish time as one block at
its :mod:`bisect` position -- slicing, with no per-processor Python
loop, no tuples and no NumPy call on arrays of at most a few hundred
entries.  The EFT packing sweep in :mod:`repro.mapping.eft` reads the
whole candidate range ``k = 1..p`` from the sorted free times,
:meth:`ClusterTimeline.kth_free_list`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import MappingError
from repro.platform.cluster import Cluster
from repro.platform.multicluster import MultiClusterPlatform


class ClusterTimeline:
    """Tracks when each processor of one cluster becomes free.

    Implements the non-insertion availability model of the paper's mapping
    step: a task needing ``p`` processors starts at the ``p``-th smallest
    free time (no backfilling into idle holes).

    Examples
    --------
    >>> from repro.platform.cluster import Cluster
    >>> t = ClusterTimeline(Cluster("c", 4, 1e9))
    >>> t.reserve(2, 0.0, 5.0)
    ([0, 1], 0.0, 5.0)
    >>> t.earliest_start(2, 0.0)   # two processors are still free
    0.0
    >>> t.earliest_start(3, 0.0)   # the third frees up at 5.0
    5.0
    """

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        count = cluster.num_processors
        # the free times in ascending order, and the processor indices in
        # the same order (ascending index among equal free times)
        self._sorted: List[float] = [0.0] * count
        self._order: List[int] = list(range(count))
        # Transaction support (:meth:`begin_transaction`): when active,
        # the first mutation snapshots the pre-transaction state so a
        # rollback can restore it bitwise.
        self._txn_active = False
        self._txn_saved: Optional[Tuple[List[float], List[int]]] = None

    @property
    def num_processors(self) -> int:
        """Number of processors of the underlying cluster."""
        return self.cluster.num_processors

    def _by_processor(self) -> List[float]:
        """The free time of each processor, in processor index order."""
        free_times = [0.0] * len(self._order)
        for free, index in zip(self._sorted, self._order):
            free_times[index] = free
        return free_times

    def free_times(self) -> np.ndarray:
        """A copy of the per-processor free times."""
        return np.array(self._by_processor(), dtype=float)

    def kth_free_list(self) -> List[float]:
        """The sorted processor free times (ascending) as a plain Python list.

        Entry ``k-1`` is the earliest time at which ``k`` processors are
        simultaneously free under the non-insertion policy, so every
        candidate processor count of the allocation packing rule can be
        evaluated against this one list.  The returned list is internal
        state, updated in place by :meth:`reserve`: callers must not
        mutate it.
        """
        return self._sorted

    # ------------------------------------------------------------------ #
    # transactions (used by the streaming session's atomic admission)
    # ------------------------------------------------------------------ #
    def begin_transaction(self) -> None:
        """Start recording mutations so they can be rolled back.

        The snapshot is lazy: nothing is copied until the first
        :meth:`reserve`/:meth:`block` inside the transaction, so clusters
        an admission never touches cost nothing.
        """
        if self._txn_active:
            raise MappingError(
                f"timeline of cluster {self.cluster.name!r} is already in a "
                "transaction"
            )
        self._txn_active = True
        self._txn_saved = None

    def _txn_snapshot(self) -> None:
        if self._txn_active and self._txn_saved is None:
            self._txn_saved = (list(self._sorted), list(self._order))

    def commit_transaction(self) -> None:
        """Keep the mutations made since :meth:`begin_transaction`."""
        self._txn_active = False
        self._txn_saved = None

    def rollback_transaction(self) -> None:
        """Restore the timeline to its :meth:`begin_transaction` state."""
        if self._txn_saved is not None:
            self._sorted, self._order = self._txn_saved
        self._txn_active = False
        self._txn_saved = None

    def _check_processors(self, processors: int) -> None:
        """Validate a requested processor count (paper: ``1 <= p <= P``)."""
        if processors < 1 or processors > len(self._order):
            raise MappingError(
                f"cannot reserve {processors} processors on cluster "
                f"{self.cluster.name!r} ({self.num_processors} available)"
            )

    def earliest_start(self, processors: int, ready_time: float) -> float:
        """Earliest start time of a task needing *processors* processors.

        The task can start when its data is ready and *processors*
        processors are simultaneously free; with the non-insertion policy
        this is the ``processors``-th smallest free time.  O(1) thanks to
        the incrementally maintained sorted list.
        """
        self._check_processors(processors)
        if ready_time < 0:
            raise MappingError(f"ready_time must be non-negative, got {ready_time}")
        return max(ready_time, self._sorted[processors - 1])

    def select_processors(self, processors: int) -> List[int]:
        """Indices of the *processors* processors that free up first.

        Ties are broken by processor index so the choice is deterministic
        (the returned list is ordered by increasing ``(free time, index)``,
        matching the paper's deterministic earliest-available selection).
        """
        self._check_processors(processors)
        return self._order[:processors]

    def reserve(
        self, processors: int, ready_time: float, duration: float
    ) -> Tuple[List[int], float, float]:
        """Reserve *processors* processors for *duration* seconds.

        Returns ``(processor_indices, start, finish)``.  The reservation
        commits the non-insertion rule: the selected processors are the
        ones that free up first (:meth:`select_processors`), the start
        is :meth:`earliest_start`, and all of them become busy until
        ``start + duration``.  The checks are those of the two methods,
        made once: ``1 <= processors <= P``, a non-negative *ready_time*
        and *duration*.

        The taken processors are the first ``processors`` entries of both
        lists and ``finish`` is at or above all of them, so they are
        dropped and go back as one block at the :func:`bisect.bisect_left`
        position of ``finish``: ``processors`` copies of ``finish``, and
        their indices sorted together with those of the processors already
        free at exactly ``finish`` -- the same lists ``processors``
        separate :func:`bisect.insort` calls of ``(finish, index)`` pairs
        build.
        """
        if duration < 0:
            raise MappingError(f"duration must be non-negative, got {duration}")
        self._check_processors(processors)
        if ready_time < 0:
            raise MappingError(f"ready_time must be non-negative, got {ready_time}")
        ordered, order = self._sorted, self._order
        kth = ordered[processors - 1]
        start = kth if kth > ready_time else ready_time  # max(ready_time, kth)
        finish = start + duration
        indices = order[:processors]
        self._txn_snapshot()
        del ordered[:processors]
        del order[:processors]
        low = high = bisect_left(ordered, finish)
        if high < len(ordered) and ordered[high] == finish:
            high = bisect_right(ordered, finish, low)
        ordered[low:low] = [finish] * processors
        order[low:high] = sorted(order[low:high] + indices)
        return indices, start, finish

    def block(self, processors: Sequence[int], until: float) -> None:
        """Push the free time of *processors* forward to at least *until*.

        Used to seed a fresh timeline with pre-existing reservations and
        with fault down-windows before a repair pass: a blocked
        processor accepts no reservation before *until*.  This is the
        conservative encoding of an unavailability window under the
        non-insertion model -- the idle span *before* the window is
        given up too (the model keeps no holes), which can only delay
        repaired placements, never invalidate them.  Unlike
        :meth:`reserve` this touches arbitrary processors, so both lists
        are rebuilt (new list objects) with a full sort: blocking happens
        once per repair pass, not per placement.
        """
        if until < 0:
            raise MappingError(f"block bound must be non-negative, got {until}")
        indices = [int(p) for p in processors]
        for index in indices:
            if index < 0 or index >= self.num_processors:
                raise MappingError(
                    f"cannot block processor {index} on cluster "
                    f"{self.cluster.name!r} (0..{self.num_processors - 1})"
                )
        self._txn_snapshot()
        free_times = self._by_processor()
        for index in indices:
            free_times[index] = max(free_times[index], until)
        pairs = sorted((free, index) for index, free in enumerate(free_times))
        self._sorted = [free for free, _ in pairs]
        self._order = [index for _, index in pairs]

    def utilisation(self, horizon: float) -> float:
        """Fraction of processor time booked up to *horizon* (diagnostics)."""
        if horizon <= 0:
            return 0.0
        booked = float(np.clip(self.free_times(), 0.0, horizon).sum())
        return booked / (horizon * self.num_processors)


class PlatformTimeline:
    """The set of cluster timelines of one platform."""

    def __init__(self, platform: MultiClusterPlatform) -> None:
        self.platform = platform
        self._timelines: Dict[str, ClusterTimeline] = {
            cluster.name: ClusterTimeline(cluster) for cluster in platform
        }

    def timeline(self, cluster_name: str) -> ClusterTimeline:
        """The timeline of one cluster."""
        try:
            return self._timelines[cluster_name]
        except KeyError:
            raise MappingError(
                f"platform {self.platform.name!r} has no cluster {cluster_name!r}"
            ) from None

    def timelines(self) -> Sequence[ClusterTimeline]:
        """All cluster timelines, in platform declaration order."""
        return [self._timelines[c.name] for c in self.platform]

    def begin_transaction(self) -> None:
        """Start a rollback-capable transaction on every cluster timeline."""
        for timeline in self._timelines.values():
            timeline.begin_transaction()

    def commit_transaction(self) -> None:
        """Keep the reservations made since :meth:`begin_transaction`."""
        for timeline in self._timelines.values():
            timeline.commit_transaction()

    def rollback_transaction(self) -> None:
        """Undo every reservation made since :meth:`begin_transaction`."""
        for timeline in self._timelines.values():
            timeline.rollback_transaction()
