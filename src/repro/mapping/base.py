"""Mapper interface and the allocated-application bundle it consumes."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.allocation.base import Allocation
from repro.dag.graph import PTG
from repro.exceptions import MappingError
from repro.platform.multicluster import MultiClusterPlatform


@dataclass(frozen=True)
class AllocatedPTG:
    """A PTG bundled with the allocation computed for it.

    This is what the allocation step hands over to the mapping step.
    """

    ptg: PTG
    allocation: Allocation

    def __post_init__(self) -> None:
        if self.allocation.ptg is not self.ptg:
            raise MappingError(
                f"allocation was computed for PTG {self.allocation.ptg.name!r}, "
                f"not for {self.ptg.name!r}"
            )

    @property
    def name(self) -> str:
        """Application name."""
        return self.ptg.name

    def bottom_levels(self) -> Dict[int, float]:
        """Bottom levels of the tasks under the allocation's reference times.

        The mapping step prioritises tasks "according to their bottom
        level, i.e., the distance to the exit node of the PTG in terms of
        execution times"; the execution times are those of the allocation
        on the reference cluster.

        Computed over the shared :class:`~repro.dag.arrays.DagArrays`
        compilation of the graph (the same one the allocation hot loop
        uses): the per-task reference durations follow the scalar
        operation order of :meth:`~repro.dag.task.Task.execution_time`,
        and the DP runs over the precompiled topology -- bit-identical
        to ``ptg.bottom_levels(allocation.task_time)``, as the golden
        schedule suite asserts.
        """
        arrays = self.ptg.arrays()
        task_ids = arrays.task_ids_tuple
        processors = self.allocation.processors
        speed = self.allocation.reference.speed_flops
        alpha = arrays.alpha_tuple
        flops = arrays.flops_tuple
        # (alpha + (1 - alpha)/p) * w / s, the scalar Amdahl order; the
        # zero sequential cost of synthetic tasks multiplies out to the
        # exact 0.0 that Task.execution_time short-circuits to
        durations = [
            (alpha[i] + (1.0 - alpha[i]) / processors(tid)) * flops[i] / speed
            for i, tid in enumerate(task_ids)
        ]
        return dict(zip(task_ids, arrays.bottom_levels(durations)))


class Mapper(abc.ABC):
    """Interface of the concurrent mapping procedures."""

    #: Mapper name used in reports and ablations.
    name: str = "abstract"

    @abc.abstractmethod
    def map(
        self, allocated: Sequence[AllocatedPTG], platform: MultiClusterPlatform
    ):
        """Map all allocated applications onto *platform* and return a Schedule."""

    @staticmethod
    def _check_inputs(allocated: Sequence[AllocatedPTG]) -> None:
        if not allocated:
            raise MappingError("at least one allocated PTG is required")
        names = [a.name for a in allocated]
        if len(set(names)) != len(names):
            raise MappingError(f"concurrent PTGs must have unique names, got {names}")
        for a in allocated:
            a.ptg.validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
