"""Global-ordering mapper: the baseline the paper argues against.

This mapper aggregates the submitted applications and sorts *all* their
tasks by decreasing bottom level before placing them one by one (the
classical single-DAG list-scheduling order applied to the union of the
graphs).  As illustrated by Figure 1 of the paper, this can postpone the
entry tasks of small applications -- their bottom levels are low, so they
end up near the end of the ordered list even though they are ready at
submission time -- producing unfair and inefficient schedules.

It is kept as the comparison point for the ablation benchmark
``bench_ablation_mapping`` (ready-list ordering vs global ordering).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.exceptions import MappingError
from repro.mapping.base import AllocatedPTG, Mapper
from repro.mapping.eft import PlacementEngine
from repro.mapping.schedule import Schedule
from repro.platform.multicluster import MultiClusterPlatform


class GlobalOrderMapper(Mapper):
    """List scheduling over a global bottom-level ordering of all tasks."""

    name = "global-order"

    def __init__(self, enable_packing: bool = True) -> None:
        self.enable_packing = enable_packing

    def map(
        self, allocated: Sequence[AllocatedPTG], platform: MultiClusterPlatform
    ) -> Schedule:
        """Map all applications onto *platform* with a single global task order."""
        self._check_inputs(allocated)
        schedule = Schedule(platform.name)
        engine = PlacementEngine(platform, enable_packing=self.enable_packing)

        apps: Dict[str, AllocatedPTG] = {a.name: a for a in allocated}

        # Build the global priority list.  Within one application the
        # topological index breaks bottom-level ties so predecessors are
        # always placed before their successors (bottom levels are
        # non-increasing along a path, but zero-cost tasks can tie).
        ordered: List[Tuple[float, int, str, int]] = []
        for name, app in apps.items():
            levels = app.bottom_levels()
            topo_index = {tid: i for i, tid in enumerate(app.ptg.topological_order())}
            for task in app.ptg.tasks():
                ordered.append(
                    (-levels[task.task_id], topo_index[task.task_id], name, task.task_id)
                )
        ordered.sort()

        for _, _, name, task_id in ordered:
            app = apps[name]
            task = app.ptg.task(task_id)
            predecessors = [
                (pred, app.ptg.edge_data(pred, task_id))
                for pred in app.ptg.predecessors(task_id)
            ]
            for pred, _ in predecessors:
                if not schedule.has_entry(name, pred):
                    raise MappingError(
                        f"global ordering placed task {task_id} of {name!r} before "
                        f"its predecessor {pred}"
                    )
            engine.place(
                ptg_name=name,
                task=task,
                allocation=app.allocation,
                predecessors=predecessors,
                schedule=schedule,
                not_before=0.0,
            )

        total_tasks = sum(app.ptg.n_tasks for app in apps.values())
        if len(schedule) != total_tasks:
            raise MappingError(
                f"global-order mapping placed {len(schedule)} tasks out of {total_tasks}"
            )
        return schedule
