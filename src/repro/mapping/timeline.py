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
A timeline maintains the free times twice: per processor (needed to pick
concrete processor indices) and as an **incrementally sorted array**.
Reserving ``p`` processors removes the ``p`` smallest entries from the
sorted array and re-inserts ``p`` copies of the finish time at the
position found by :func:`numpy.searchsorted`, so the array never needs a
full sort or an :func:`numpy.partition` again.  ``earliest_start`` then
becomes an O(1) lookup of the ``p``-th entry, and the EFT packing sweep in
:mod:`repro.mapping.eft` reads the whole candidate range ``k = 1..p``
from its plain-list mirror, :meth:`ClusterTimeline.kth_free_list`.
"""

from __future__ import annotations

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
        self._free_at = np.zeros(cluster.num_processors, dtype=float)
        # Sorted copy of ``_free_at`` (values only), kept in sync by
        # ``reserve`` with a searchsorted insert instead of re-sorting.
        self._sorted_free = np.zeros(cluster.num_processors, dtype=float)
        # Plain-Python mirror of ``_sorted_free``, materialised on demand
        # by :meth:`kth_free_list` and spliced incrementally on reserve:
        # the delta-EFT engine reads individual entries thousands of
        # times, where NumPy scalar boxing would dominate.  ``None``
        # means "rebuild from ``_sorted_free`` on next access".
        self._sorted_list: Optional[List[float]] = None
        # Transaction support (:meth:`begin_transaction`): when active,
        # the first mutation snapshots the pre-transaction state so a
        # rollback can restore it bitwise.
        self._txn_active = False
        self._txn_saved: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def num_processors(self) -> int:
        """Number of processors of the underlying cluster."""
        return self.cluster.num_processors

    def free_times(self) -> np.ndarray:
        """A copy of the per-processor free times."""
        return self._free_at.copy()

    def kth_free_list(self) -> List[float]:
        """The sorted processor free times (ascending) as a plain Python list.

        Entry ``k-1`` is the earliest time at which ``k`` processors are
        simultaneously free under the non-insertion policy, so every
        candidate processor count of the allocation packing rule can be
        evaluated against this one list.  It is kept in sync
        incrementally across reservations so the delta-EFT engine can
        read frontier entries without per-access NumPy boxing.  The
        returned list is internal state: callers must not mutate it.
        """
        cached = self._sorted_list
        if cached is None:
            cached = self._sorted_list = self._sorted_free.tolist()
        return cached

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
            self._txn_saved = (self._free_at.copy(), self._sorted_free.copy())

    def commit_transaction(self) -> None:
        """Keep the mutations made since :meth:`begin_transaction`."""
        self._txn_active = False
        self._txn_saved = None

    def rollback_transaction(self) -> None:
        """Restore the timeline to its :meth:`begin_transaction` state."""
        if self._txn_saved is not None:
            self._free_at, self._sorted_free = self._txn_saved
            self._sorted_list = None
        self._txn_active = False
        self._txn_saved = None

    def _check_processors(self, processors: int) -> None:
        """Validate a requested processor count (paper: ``1 <= p <= P``)."""
        if processors < 1 or processors > self.num_processors:
            raise MappingError(
                f"cannot reserve {processors} processors on cluster "
                f"{self.cluster.name!r} ({self.num_processors} available)"
            )

    def earliest_start(self, processors: int, ready_time: float) -> float:
        """Earliest start time of a task needing *processors* processors.

        The task can start when its data is ready and *processors*
        processors are simultaneously free; with the non-insertion policy
        this is the ``processors``-th smallest free time.  O(1) thanks to
        the incrementally maintained sorted array.
        """
        self._check_processors(processors)
        if ready_time < 0:
            raise MappingError(f"ready_time must be non-negative, got {ready_time}")
        kth_free = float(self._sorted_free[processors - 1])
        return max(ready_time, kth_free)

    def select_processors(self, processors: int) -> List[int]:
        """Indices of the *processors* processors that free up first.

        Ties are broken by processor index so the choice is deterministic
        (the returned list is ordered by increasing ``(free time, index)``,
        matching the paper's deterministic earliest-available selection).
        """
        self._check_processors(processors)
        # The p-th smallest free time bounds the selection: everything
        # strictly below it is taken, ties at the boundary are filled in
        # index order.  This avoids a full lexsort of all P processors.
        kth = self._sorted_free[processors - 1]
        below = np.flatnonzero(self._free_at < kth)
        if below.size < processors:
            equal = np.flatnonzero(self._free_at == kth)
            chosen = np.concatenate([below, equal[: processors - below.size]])
        else:  # pragma: no cover - below.size is at most processors - 1
            chosen = below[:processors]
        # order by (free time, index) like the original lexsort did
        order = np.lexsort((chosen, self._free_at[chosen]))
        return [int(i) for i in chosen[order]]

    def reserve(
        self, processors: int, ready_time: float, duration: float
    ) -> Tuple[List[int], float, float]:
        """Reserve *processors* processors for *duration* seconds.

        Returns ``(processor_indices, start, finish)``.  The reservation
        commits the non-insertion rule: the selected processors are the
        ones that free up first, and all of them become busy until
        ``start + duration``.
        """
        if duration < 0:
            raise MappingError(f"duration must be non-negative, got {duration}")
        start = self.earliest_start(processors, ready_time)
        indices = self.select_processors(processors)
        finish = start + duration
        self._txn_snapshot()
        self._free_at[indices] = finish
        # Incremental sorted-array update: the removed values are exactly
        # the ``processors`` smallest, and the inserted value is >= all of
        # them, so one searchsorted over the remainder suffices.
        remaining = self._sorted_free[processors:]
        pos = int(np.searchsorted(remaining, finish, side="left"))
        updated = np.empty_like(self._sorted_free)
        updated[:pos] = remaining[:pos]
        updated[pos : pos + processors] = finish
        updated[pos + processors :] = remaining[pos:]
        self._sorted_free = updated
        cached = self._sorted_list
        if cached is not None:
            # same splice on the Python mirror: drop the p smallest,
            # insert p copies of ``finish`` at the searchsorted position
            del cached[:processors]
            cached[pos:pos] = [finish] * processors
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
        :meth:`reserve` this touches arbitrary processors, so the sorted
        free-time array is rebuilt with a full sort (blocking happens
        once per repair pass, not per placement).
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
        self._free_at[indices] = np.maximum(self._free_at[indices], until)
        self._sorted_free = np.sort(self._free_at)
        self._sorted_list = None

    def utilisation(self, horizon: float) -> float:
        """Fraction of processor time booked up to *horizon* (diagnostics)."""
        if horizon <= 0:
            return 0.0
        booked = float(np.clip(self._free_at, 0.0, horizon).sum())
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

    def reset(self) -> None:
        """Forget all reservations (used when re-mapping from scratch)."""
        for cluster in self.platform:
            self._timelines[cluster.name] = ClusterTimeline(cluster)
