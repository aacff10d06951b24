"""Schedule data structures.

A :class:`Schedule` is the output of the mapping step: for every task of
every submitted application it records the chosen cluster, the concrete
processor indices, the number of processors actually used (which may be
smaller than the translated allocation when the packing mechanism kicked
in), and the planned start and finish times.

The schedule is also the input of the discrete-event executor in
:mod:`repro.simulate`, which replays it against the platform model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.exceptions import MappingError


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one task of one application.

    Attributes
    ----------
    ptg_name:
        Name of the application the task belongs to.
    task_id:
        Task identifier inside its PTG.
    cluster_name:
        Cluster the task runs on.
    processors:
        Concrete processor indices used on that cluster.
    start, finish:
        Planned start and finish times (seconds from submission).
    reference_processors:
        The reference allocation the mapping translated (diagnostics).
    """

    ptg_name: str
    task_id: int
    cluster_name: str
    processors: Tuple[int, ...]
    start: float
    finish: float
    reference_processors: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.finish < self.start:
            raise MappingError(
                f"invalid time window [{self.start}, {self.finish}] for task "
                f"{self.task_id} of {self.ptg_name!r}"
            )
        if len(self.processors) < 1:
            raise MappingError(
                f"task {self.task_id} of {self.ptg_name!r} mapped on zero processors"
            )
        if len(set(self.processors)) != len(self.processors):
            raise MappingError(
                f"task {self.task_id} of {self.ptg_name!r} mapped twice on a processor"
            )

    @property
    def num_processors(self) -> int:
        """Number of processors actually used."""
        return len(self.processors)

    @property
    def duration(self) -> float:
        """Planned execution duration."""
        return self.finish - self.start


class Schedule:
    """A complete mapping of one or several applications onto a platform."""

    def __init__(self, platform_name: str = "") -> None:
        self.platform_name = platform_name
        self._entries: Dict[Tuple[str, int], ScheduledTask] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, entry: ScheduledTask) -> None:
        """Record the placement of one task (each task may be placed once)."""
        key = (entry.ptg_name, entry.task_id)
        if key in self._entries:
            raise MappingError(
                f"task {entry.task_id} of {entry.ptg_name!r} is already scheduled"
            )
        self._entries[key] = entry

    def remove_application(self, ptg_name: str) -> int:
        """Drop every placement of one application; returns the count.

        Used to roll back a partially-mapped application when an
        admission fails mid-placement (the streaming session's
        transactional :meth:`~repro.streaming.engine.StreamSession.admit`).
        Removing an application that was never placed is a no-op.
        """
        keys = [key for key in self._entries if key[0] == ptg_name]
        for key in keys:
            del self._entries[key]
        return len(keys)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ScheduledTask]:
        return iter(self._entries.values())

    def entry(self, ptg_name: str, task_id: int) -> ScheduledTask:
        """Return the placement of one task."""
        try:
            return self._entries[(ptg_name, task_id)]
        except KeyError:
            raise MappingError(
                f"task {task_id} of {ptg_name!r} is not in the schedule"
            ) from None

    def has_entry(self, ptg_name: str, task_id: int) -> bool:
        """True when the task has been placed."""
        return (ptg_name, task_id) in self._entries

    def application_names(self) -> List[str]:
        """Names of the applications present in the schedule."""
        seen: Dict[str, None] = {}
        for name, _ in self._entries:
            seen.setdefault(name, None)
        return list(seen)

    def entries_of(self, ptg_name: str) -> List[ScheduledTask]:
        """All placements of one application, ordered by start time."""
        rows = [e for (name, _), e in self._entries.items() if name == ptg_name]
        if not rows:
            raise MappingError(f"no application named {ptg_name!r} in the schedule")
        return sorted(rows, key=lambda e: (e.start, e.finish, e.task_id))

    def entries_on(self, cluster_name: str) -> List[ScheduledTask]:
        """All placements on one cluster, ordered by start time."""
        rows = [e for e in self._entries.values() if e.cluster_name == cluster_name]
        return sorted(rows, key=lambda e: (e.start, e.finish, e.task_id))

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    def makespan(self, ptg_name: str) -> float:
        """Completion time of the application (from submission at t=0).

        In the concurrent setting the waiting time before the entry task
        starts counts towards the makespan: an application postponed by
        its competitors *is* slowed down, which is exactly what the
        fairness metric must capture.
        """
        return max(e.finish for e in self.entries_of(ptg_name))

    def span(self, ptg_name: str) -> float:
        """Time between the start of the first task and the end of the last one."""
        entries = self.entries_of(ptg_name)
        return max(e.finish for e in entries) - min(e.start for e in entries)

    def global_makespan(self) -> float:
        """Completion time of the last task over all applications."""
        if not self._entries:
            return 0.0
        return max(e.finish for e in self._entries.values())

    def makespans(self) -> Dict[str, float]:
        """Per-application completion times."""
        return {name: self.makespan(name) for name in self.application_names()}

    def work_on(self, cluster_name: str) -> float:
        """Busy processor-seconds consumed on one cluster."""
        return sum(e.duration * e.num_processors for e in self.entries_on(cluster_name))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        apps = ", ".join(
            f"{name}: {self.makespan(name):.1f}s" for name in self.application_names()
        )
        return f"Schedule[{self.platform_name}] {len(self)} tasks ({apps})"
