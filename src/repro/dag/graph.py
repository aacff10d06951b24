"""The parallel task graph (PTG) container.

A PTG is a DAG ``G = (V, E)`` whose vertices are data-parallel
:class:`~repro.dag.task.Task` objects and whose edges carry the amount of
data (in bytes) that the source task must send to the destination task.
"Without loss of generality we assume that G has a single entry task and a
single exit task" (paper, Section 2); :meth:`PTG.ensure_single_entry_exit`
adds zero-cost synthetic tasks when a generated graph has several sources
or sinks.

The class also implements the graph quantities used throughout the
scheduling heuristics:

* **topological order** and **precedence levels** ("the precedence level
  of a task t is a if all its predecessors are at level < a and at least
  one of them is at level a-1", i.e. the longest path from the entry task
  in number of edges),
* **bottom level** -- distance to the exit task in execution time, used
  to prioritise tasks in the mapping step,
* **critical path** -- the path of maximal total execution time,
* **maximal width** -- size of the largest precedence level, one of the
  characteristics driving the PS/WPS constraint strategies,
* **total work** -- sum of the sequential costs of the tasks, the other
  characteristic used by PS-work / WPS-work.

All time-dependent quantities take a ``time_fn(task) -> seconds``
callable so the same graph code serves the allocation procedures (which
evaluate tasks on the reference cluster with their current allocation) and
the mappers (which evaluate them with their final allocation).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.dag.task import Task
from repro.exceptions import InvalidGraphError
from repro.utils.validation import check_finite

TimeFunction = Callable[[Task], float]
CommFunction = Callable[[Task, Task, float], float]

#: Identifier offset used for synthetic entry/exit tasks added by
#: :meth:`PTG.ensure_single_entry_exit`.
_SYNTHETIC_ENTRY_NAME = "__entry__"
_SYNTHETIC_EXIT_NAME = "__exit__"


class PTG:
    """A parallel task graph.

    Parameters
    ----------
    name:
        Application name, unique within a submitted set of applications.
    tasks:
        Optional initial tasks.
    edges:
        Optional initial edges as ``(src_id, dst_id, data_bytes)`` triples.

    Examples
    --------
    >>> from repro.dag import Task, PTG
    >>> g = PTG("demo")
    >>> g.add_task(Task(0, 1e9, 0.1))
    >>> g.add_task(Task(1, 2e9, 0.1))
    >>> g.add_edge(0, 1, 8e6)
    >>> g.n_tasks
    2
    >>> g.precedence_level(1)
    1
    """

    def __init__(
        self,
        name: str,
        tasks: Optional[Iterable[Task]] = None,
        edges: Optional[Iterable[Tuple[int, int, float]]] = None,
    ) -> None:
        if not name:
            raise InvalidGraphError("a PTG needs a non-empty name")
        self.name = name
        self._tasks: Dict[int, Task] = {}
        self._succ: Dict[int, Dict[int, float]] = {}
        self._pred: Dict[int, Dict[int, float]] = {}
        # name-free derived data (topological order, levels, DagArrays,
        # parked Amdahl tables); shared with renamed copies (see copy()),
        # so a mutation detaches it with a fresh dict, never clear()
        self._cache: Dict[str, object] = {}
        for task in tasks or ():
            self.add_task(task)
        for src, dst, data in edges or ():
            self.add_edge(src, dst, data)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_task(self, task: Task) -> None:
        """Add *task* to the graph.  Task ids must be unique."""
        if task.task_id in self._tasks:
            raise InvalidGraphError(
                f"PTG {self.name!r}: duplicate task id {task.task_id}"
            )
        self._tasks[task.task_id] = task
        self._succ[task.task_id] = {}
        self._pred[task.task_id] = {}
        self._cache = {}

    def add_edge(self, src_id: int, dst_id: int, data_bytes: float = 0.0) -> None:
        """Add a dependency edge carrying *data_bytes* bytes.

        Self loops and duplicate edges are rejected; cycles are detected
        lazily by :meth:`validate` / :meth:`topological_order`.
        """
        if src_id not in self._tasks:
            raise InvalidGraphError(f"PTG {self.name!r}: unknown source task {src_id}")
        if dst_id not in self._tasks:
            raise InvalidGraphError(f"PTG {self.name!r}: unknown destination task {dst_id}")
        if src_id == dst_id:
            raise InvalidGraphError(f"PTG {self.name!r}: self loop on task {src_id}")
        if dst_id in self._succ[src_id]:
            raise InvalidGraphError(
                f"PTG {self.name!r}: duplicate edge {src_id} -> {dst_id}"
            )
        if not 0 <= data_bytes < math.inf:
            check_finite(f"PTG {self.name!r}: data on edge {src_id} -> {dst_id}", data_bytes)
            raise InvalidGraphError(
                f"PTG {self.name!r}: negative data on edge {src_id} -> {dst_id}"
            )
        self._succ[src_id][dst_id] = float(data_bytes)
        self._pred[dst_id][src_id] = float(data_bytes)
        self._cache = {}

    def ensure_single_entry_exit(self) -> None:
        """Add synthetic zero-cost entry/exit tasks if needed.

        The schedulers assume a single entry and a single exit task.  If
        the graph already satisfies this, nothing is changed.
        """
        entries = self.entry_tasks()
        exits = self.exit_tasks()
        next_id = (max(self._tasks) + 1) if self._tasks else 0
        if len(entries) != 1:
            entry = Task.synthetic(next_id, name=_SYNTHETIC_ENTRY_NAME)
            self.add_task(entry)
            for t in entries:
                self.add_edge(entry.task_id, t.task_id, 0.0)
            next_id += 1
        if len(exits) != 1:
            exit_task = Task.synthetic(next_id, name=_SYNTHETIC_EXIT_NAME)
            self.add_task(exit_task)
            for t in exits:
                self.add_edge(t.task_id, exit_task.task_id, 0.0)
        self._cache = {}

    # ------------------------------------------------------------------ #
    # container protocol / basic queries
    # ------------------------------------------------------------------ #
    @property
    def n_tasks(self) -> int:
        """Number of tasks (including synthetic entry/exit tasks)."""
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return sum(len(s) for s in self._succ.values())

    def __len__(self) -> int:
        return self.n_tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def task(self, task_id: int) -> Task:
        """Return the task with identifier *task_id*."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise InvalidGraphError(
                f"PTG {self.name!r} has no task with id {task_id}"
            ) from None

    def tasks(self) -> List[Task]:
        """All tasks, in insertion order."""
        return list(self._tasks.values())

    def task_ids(self) -> List[int]:
        """All task identifiers, in insertion order."""
        return list(self._tasks)

    def real_tasks(self) -> List[Task]:
        """Tasks that actually compute (synthetic entry/exit excluded)."""
        return [t for t in self._tasks.values() if not t.is_synthetic]

    def edges(self) -> List[Tuple[int, int, float]]:
        """All edges as ``(src_id, dst_id, data_bytes)`` triples."""
        return [
            (src, dst, data)
            for src, succs in self._succ.items()
            for dst, data in succs.items()
        ]

    def edge_data(self, src_id: int, dst_id: int) -> float:
        """Data volume carried by the edge ``src -> dst`` (bytes)."""
        try:
            return self._succ[src_id][dst_id]
        except KeyError:
            raise InvalidGraphError(
                f"PTG {self.name!r} has no edge {src_id} -> {dst_id}"
            ) from None

    def has_edge(self, src_id: int, dst_id: int) -> bool:
        """True when the edge ``src -> dst`` exists."""
        return dst_id in self._succ.get(src_id, {})

    def predecessors(self, task_id: int) -> List[int]:
        """Ids of the direct predecessors of *task_id*."""
        self.task(task_id)
        return list(self._pred[task_id])

    def successors(self, task_id: int) -> List[int]:
        """Ids of the direct successors of *task_id*."""
        self.task(task_id)
        return list(self._succ[task_id])

    def in_degree(self, task_id: int) -> int:
        """Number of direct predecessors."""
        return len(self._pred[task_id])

    def out_degree(self, task_id: int) -> int:
        """Number of direct successors."""
        return len(self._succ[task_id])

    def entry_tasks(self) -> List[Task]:
        """Tasks without predecessors."""
        return [t for tid, t in self._tasks.items() if not self._pred[tid]]

    def exit_tasks(self) -> List[Task]:
        """Tasks without successors."""
        return [t for tid, t in self._tasks.items() if not self._succ[tid]]

    @property
    def entry_task(self) -> Task:
        """The unique entry task (raises if the graph has several)."""
        entries = self.entry_tasks()
        if len(entries) != 1:
            raise InvalidGraphError(
                f"PTG {self.name!r} has {len(entries)} entry tasks; "
                "call ensure_single_entry_exit() first"
            )
        return entries[0]

    @property
    def exit_task(self) -> Task:
        """The unique exit task (raises if the graph has several)."""
        exits = self.exit_tasks()
        if len(exits) != 1:
            raise InvalidGraphError(
                f"PTG {self.name!r} has {len(exits)} exit tasks; "
                "call ensure_single_entry_exit() first"
            )
        return exits[0]

    # ------------------------------------------------------------------ #
    # structural algorithms
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """Task ids in a topological order (Kahn's algorithm).

        Raises :class:`InvalidGraphError` if the graph contains a cycle.
        The result is cached until the graph is modified.
        """
        cached = self._cache.get("topo")
        if cached is not None:
            return list(cached)  # type: ignore[arg-type]
        in_deg = {tid: len(self._pred[tid]) for tid in self._tasks}
        frontier = [tid for tid, d in in_deg.items() if d == 0]
        order: List[int] = []
        while frontier:
            tid = frontier.pop()
            order.append(tid)
            for succ in self._succ[tid]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    frontier.append(succ)
        if len(order) != len(self._tasks):
            raise InvalidGraphError(f"PTG {self.name!r} contains a cycle")
        self._cache["topo"] = tuple(order)
        return order

    def precedence_levels(self) -> Dict[int, int]:
        """Map every task id to its precedence level.

        The level of an entry task is 0; the level of any other task is
        one more than the maximum level of its predecessors (the paper's
        definition in Section 4).
        """
        cached = self._cache.get("levels")
        if cached is not None:
            return dict(cached)  # type: ignore[arg-type]
        levels: Dict[int, int] = {}
        for tid in self.topological_order():
            preds = self._pred[tid]
            levels[tid] = 0 if not preds else 1 + max(levels[p] for p in preds)
        self._cache["levels"] = dict(levels)
        return levels

    def precedence_level(self, task_id: int) -> int:
        """Precedence level of a single task."""
        return self.precedence_levels()[task_id]

    def tasks_by_level(self) -> Dict[int, List[int]]:
        """Group task ids by precedence level (level -> list of task ids)."""
        by_level: Dict[int, List[int]] = {}
        for tid, level in self.precedence_levels().items():
            by_level.setdefault(level, []).append(tid)
        return dict(sorted(by_level.items()))

    @property
    def depth(self) -> int:
        """Number of precedence levels."""
        if not self._tasks:
            return 0
        return max(self.precedence_levels().values()) + 1

    def level_widths(self) -> List[int]:
        """Number of tasks per precedence level, ordered by level."""
        by_level = self.tasks_by_level()
        return [len(by_level[level]) for level in sorted(by_level)]

    def max_width(self, include_synthetic: bool = False) -> int:
        """Size of the largest precedence level.

        This is the "maximal width" characteristic used by the PS-width
        and WPS-width strategies: it measures the maximum task parallelism
        the application can exploit.  Synthetic entry/exit tasks are
        excluded by default so adding them does not change the width.
        """
        if not self._tasks:
            return 0
        widths: Dict[int, int] = {}
        levels = self.precedence_levels()
        for tid, level in levels.items():
            if not include_synthetic and self._tasks[tid].is_synthetic:
                continue
            widths[level] = widths.get(level, 0) + 1
        return max(widths.values()) if widths else 0

    def total_work(self) -> float:
        """Total sequential work of the application (flop).

        This is the "work" characteristic used by the PS-work and
        WPS-work strategies.
        """
        return sum(t.flops for t in self._tasks.values())

    def total_data_bytes(self) -> float:
        """Total volume of data carried by the edges (bytes)."""
        return sum(data for _, _, data in self.edges())

    # ------------------------------------------------------------------ #
    # timed algorithms
    # ------------------------------------------------------------------ #
    def bottom_levels(
        self, time_fn: TimeFunction, comm_fn: Optional[CommFunction] = None
    ) -> Dict[int, float]:
        """Bottom level of every task.

        The bottom level of a task is its distance to the exit of the PTG
        in execution time: ``bl(v) = T(v) + max_{w in succ(v)} (c(v, w) +
        bl(w))`` where ``c`` is the (optional) communication cost.  Tasks
        are prioritised by decreasing bottom level in the mapping step.
        """
        order = self.topological_order()
        bl: Dict[int, float] = {}
        for tid in reversed(order):
            task = self._tasks[tid]
            exec_time = time_fn(task)
            best = 0.0
            for succ, data in self._succ[tid].items():
                comm = comm_fn(task, self._tasks[succ], data) if comm_fn else 0.0
                candidate = comm + bl[succ]
                if candidate > best:
                    best = candidate
            bl[tid] = exec_time + best
        return bl

    def top_levels(
        self, time_fn: TimeFunction, comm_fn: Optional[CommFunction] = None
    ) -> Dict[int, float]:
        """Top level (distance from the entry task, excluding the task itself)."""
        order = self.topological_order()
        tl: Dict[int, float] = {}
        for tid in order:
            best = 0.0
            for pred, data in self._pred[tid].items():
                pred_task = self._tasks[pred]
                comm = comm_fn(pred_task, self._tasks[tid], data) if comm_fn else 0.0
                candidate = tl[pred] + time_fn(pred_task) + comm
                if candidate > best:
                    best = candidate
            tl[tid] = best
        return tl

    def critical_path_length(
        self, time_fn: TimeFunction, comm_fn: Optional[CommFunction] = None
    ) -> float:
        """Length of the critical path (seconds) under *time_fn*."""
        if not self._tasks:
            return 0.0
        bl = self.bottom_levels(time_fn, comm_fn)
        return max(bl.values())

    def critical_path(
        self, time_fn: TimeFunction, comm_fn: Optional[CommFunction] = None
    ) -> List[int]:
        """Task ids along one critical path, from entry to exit.

        Ties are broken deterministically by task id so that the
        allocation procedures are reproducible.
        """
        if not self._tasks:
            return []
        bl = self.bottom_levels(time_fn, comm_fn)
        entries = self.entry_tasks()
        current = min(
            (t.task_id for t in entries), key=lambda tid: (-bl[tid], tid)
        )
        path = [current]
        while self._succ[current]:

            def _weight(succ_id: int) -> float:
                data = self._succ[current][succ_id]
                comm = (
                    comm_fn(self._tasks[current], self._tasks[succ_id], data)
                    if comm_fn
                    else 0.0
                )
                return comm + bl[succ_id]

            succs = sorted(self._succ[current])
            current = min(succs, key=lambda tid: (-_weight(tid), tid))
            path.append(current)
        return path

    def average_execution_time(self, time_fn: TimeFunction) -> float:
        """Mean of ``time_fn`` over the non-synthetic tasks (0 if none)."""
        real = self.real_tasks()
        if not real:
            return 0.0
        return sum(time_fn(t) for t in real) / len(real)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, require_single_entry_exit: bool = True) -> None:
        """Check structural invariants, raising :class:`InvalidGraphError`.

        Checks: non-empty, acyclic, connected entry/exit reachability,
        and (optionally) a single entry and a single exit task.
        """
        if not self._tasks:
            raise InvalidGraphError(f"PTG {self.name!r} is empty")
        self.topological_order()  # raises on cycles
        entries = self.entry_tasks()
        exits = self.exit_tasks()
        if not entries:
            raise InvalidGraphError(f"PTG {self.name!r} has no entry task")
        if not exits:
            raise InvalidGraphError(f"PTG {self.name!r} has no exit task")
        if require_single_entry_exit:
            if len(entries) != 1:
                raise InvalidGraphError(
                    f"PTG {self.name!r} has {len(entries)} entry tasks (expected 1)"
                )
            if len(exits) != 1:
                raise InvalidGraphError(
                    f"PTG {self.name!r} has {len(exits)} exit tasks (expected 1)"
                )

    def arrays(self):
        """The :class:`~repro.dag.arrays.DagArrays` compilation of this graph.

        Compiled lazily and cached until the graph is mutated
        (:meth:`add_task` / :meth:`add_edge` detach the graph from its
        cache); renamed copies (:meth:`copy`) share the compilation of
        their source.  The compiled arrays are shared by the allocation
        hot loop
        (:class:`repro.allocation.state.AllocationState`) and the mapping
        prioritisation (:meth:`repro.mapping.base.AllocatedPTG.bottom_levels`).
        """
        cached = self._cache.get("arrays")
        if cached is None:
            from repro.dag.arrays import compile_arrays

            cached = compile_arrays(self)
            self._cache["arrays"] = cached
        return cached

    def copy(self, name: Optional[str] = None) -> "PTG":
        """A structural copy of the graph, optionally renamed.

        Tasks are shared (they are immutable), and so is the cache of
        derived data: nothing in it depends on a name (the topological
        order and levels are task ids, the :meth:`arrays` compilation and
        its :attr:`~repro.dag.arrays.DagArrays.digest` cover costs and
        structure only), so recurring jobs submitted as
        ``template.copy(name=...)`` compile one graph between them.
        Mutating either graph afterwards detaches that graph with an
        empty cache; the other keeps the shared one, which still
        describes it.
        """
        clone = PTG(name or self.name, tasks=self.tasks(), edges=self.edges())
        clone._cache = self._cache
        return clone

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PTG {self.name}: {self.n_tasks} tasks, {self.n_edges} edges, "
            f"depth {self.depth}, width {self.max_width()}"
        )
