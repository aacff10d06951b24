"""Allocation data structure and procedure interface.

An :class:`Allocation` records, for one PTG, how many *reference cluster*
processors each task should use.  It also provides the derived quantities
needed by the constrained allocation procedures (task execution time on
the reference cluster, per-task and per-level power usage, total area) and
by the mapping step (translation to concrete clusters).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro.allocation.reference import ReferenceCluster
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.exceptions import AllocationError
from repro.platform.cluster import Cluster
from repro.platform.multicluster import MultiClusterPlatform
from repro.utils.validation import check_fraction


class Allocation:
    """Processor allocation of one PTG on the reference cluster.

    Parameters
    ----------
    ptg:
        The graph the allocation refers to.
    reference:
        The reference cluster the allocation is expressed against.
    beta:
        The resource constraint the allocation was built under (in
        ``(0, 1]``); purely informational once the allocation exists.

    Notes
    -----
    Synthetic (zero-cost) tasks always keep an allocation of one processor
    and contribute nothing to areas or power sums.
    """

    def __init__(
        self, ptg: PTG, reference: ReferenceCluster, beta: float = 1.0
    ) -> None:
        check_fraction("beta", beta)
        self.ptg = ptg
        self.reference = reference
        self.beta = float(beta)
        self._procs: Dict[int, int] = {t.task_id: 1 for t in ptg.tasks()}

    # ------------------------------------------------------------------ #
    # basic access
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        return iter(self._procs)

    def __len__(self) -> int:
        return len(self._procs)

    def processors(self, task_id: int) -> int:
        """Reference processors allocated to *task_id*."""
        try:
            return self._procs[task_id]
        except KeyError:
            raise AllocationError(
                f"task {task_id} is not part of the allocation for PTG {self.ptg.name!r}"
            ) from None

    def set_processors(self, task_id: int, processors: int) -> None:
        """Set the reference allocation of *task_id* to *processors*."""
        if task_id not in self._procs:
            raise AllocationError(
                f"task {task_id} is not part of the allocation for PTG {self.ptg.name!r}"
            )
        if not isinstance(processors, int) or processors < 1:
            raise AllocationError(
                f"allocation must be a positive integer, got {processors!r}"
            )
        if processors > self.reference.size:
            raise AllocationError(
                f"allocation of {processors} exceeds the reference cluster size "
                f"({self.reference.size})"
            )
        self._procs[task_id] = processors

    def increment(self, task_id: int) -> None:
        """Give one more reference processor to *task_id*."""
        self.set_processors(task_id, self.processors(task_id) + 1)

    def as_dict(self) -> Dict[int, int]:
        """A copy of the task-id -> processors mapping."""
        return dict(self._procs)

    # ------------------------------------------------------------------ #
    # reference-cluster timing
    # ------------------------------------------------------------------ #
    def task_time(self, task: Task) -> float:
        """Execution time of *task* on its current reference allocation."""
        return self.reference.execution_time(task, self.processors(task.task_id))

    def task_area(self, task: Task) -> float:
        """Area (processors x time) of *task* on the reference cluster."""
        if task.is_synthetic:
            return 0.0
        return self.reference.area(task, self.processors(task.task_id))

    def task_power(self, task: Task) -> float:
        """Processing power used by *task* (GFlop/s); zero for synthetic tasks."""
        if task.is_synthetic:
            return 0.0
        return self.reference.power_used(self.processors(task.task_id))

    def total_area(self) -> float:
        """Sum of the task areas (reference processor-seconds)."""
        return sum(self.task_area(t) for t in self.ptg.tasks())

    def total_work_power_seconds(self) -> float:
        """Sum of task areas expressed in (GFlop/s) x seconds.

        This is the quantity the SCRAP constraint compares (after division
        by the critical path length) to ``beta`` times the total platform
        power.
        """
        return self.total_area() * self.reference.speed_gflops

    def critical_path_length(self) -> float:
        """Critical path length of the PTG under the current allocation."""
        return self.ptg.critical_path_length(self.task_time)

    def critical_path(self) -> list:
        """Task ids of the critical path under the current allocation."""
        return self.ptg.critical_path(self.task_time)

    def level_power(self, level: int) -> float:
        """Aggregate power allocated to the tasks of precedence *level*."""
        by_level = self.ptg.tasks_by_level()
        if level not in by_level:
            raise AllocationError(
                f"PTG {self.ptg.name!r} has no precedence level {level}"
            )
        return sum(self.task_power(self.ptg.task(tid)) for tid in by_level[level])

    def level_powers(self) -> Dict[int, float]:
        """Aggregate allocated power of every precedence level."""
        return {
            level: sum(self.task_power(self.ptg.task(tid)) for tid in tids)
            for level, tids in self.ptg.tasks_by_level().items()
        }

    def average_power(self) -> float:
        """Average power usage over the critical path (GFlop/s).

        Defined as total area (in power x seconds) divided by the critical
        path length; this is the quantity SCRAP bounds by ``beta * P``.
        """
        cp = self.critical_path_length()
        if cp <= 0.0:
            return 0.0
        return self.total_work_power_seconds() / cp

    # ------------------------------------------------------------------ #
    # translation to the real platform
    # ------------------------------------------------------------------ #
    def cluster_processors(self, task: Task, cluster: Cluster) -> int:
        """Processor count for *task* when mapped on *cluster*."""
        if task.is_synthetic:
            return 1
        return self.reference.translate(self.processors(task.task_id), cluster)

    def cluster_time(self, task: Task, cluster: Cluster, processors: Optional[int] = None) -> float:
        """Execution time of *task* on *cluster* with *processors* (or the translated count)."""
        procs = processors if processors is not None else self.cluster_processors(task, cluster)
        return task.execution_time(procs, cluster.speed_flops)

    def copy(self) -> "Allocation":
        """An independent copy of the per-task processor counts.

        The processor mapping is copied, so mutating the clone (e.g.
        :meth:`set_processors`) never affects the original.  The ``ptg``
        and ``reference`` attributes are **shared**, not copied: the graph
        is treated as immutable once allocated and the reference cluster
        is a frozen dataclass, so sharing them is both safe and what the
        ablation/campaign code relies on (allocations of the same PTG
        compare by identity of their graph).
        """
        clone = Allocation(self.ptg, self.reference, self.beta)
        clone._procs = dict(self._procs)
        return clone

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Allocation({self.ptg.name}, beta={self.beta:.3f}, "
            f"procs={sorted(self._procs.items())})"
        )


class AllocationProcedure(abc.ABC):
    """Interface of the allocation procedures.

    An allocation procedure turns (PTG, platform, beta) into an
    :class:`Allocation`.  ``beta`` is the resource constraint: the
    fraction of the platform's aggregate processing power the resulting
    schedule is allowed to use (1.0 means the whole platform).
    """

    #: Human readable procedure name (used in reports and ablations).
    name: str = "abstract"

    @abc.abstractmethod
    def allocate(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> Allocation:
        """Compute the allocation of *ptg* on *platform* under constraint *beta*."""

    def prime(
        self, ptg: PTG, platform: MultiClusterPlatform, betas: Iterable[float]
    ) -> None:
        """Prepare the allocations of *ptg* under *betas* ahead of :meth:`allocate`.

        A hint that never changes a result: the default does nothing, and
        the memoising CPA-family allocators run one pass for all of the
        betas (:meth:`repro.allocation.iterative.IterativeAllocator.prime`).
        """

    def memoised(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> bool:
        """True when :meth:`allocate` would answer these arguments from a memo.

        A query that never allocates; the concurrent scheduler builds
        Amdahl tables only for the graphs it answers ``False`` for.  The
        default keeps no memo.
        """
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
