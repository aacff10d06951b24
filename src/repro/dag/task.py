"""Moldable data-parallel task.

A task is a node of a PTG.  It is *moldable*: the scheduler decides, before
execution, on how many processors (of a single cluster) it runs; the
execution time then follows the Amdahl model of
:class:`repro.dag.cost_models.AmdahlTaskModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.dag.cost_models import (
    AmdahlTaskModel,
    ComplexityClass,
    communication_bytes,
    sequential_flops,
)
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_finite


@dataclass(frozen=True)
class Task:
    """A data-parallel task.

    Parameters
    ----------
    task_id:
        Identifier, unique inside its PTG.
    flops:
        Sequential computational cost ``w`` in flop.
    alpha:
        Amdahl non-parallelizable fraction in ``[0, 1]``.
    data_elements:
        Size ``d`` of the dataset the task produces, in double-precision
        elements.  It determines the volume of data sent along the task's
        outgoing edges (``8 * d`` bytes).  Zero for synthetic entry/exit
        tasks that carry no data.
    complexity:
        The complexity class the cost was derived from (informational).
    name:
        Human-readable name; defaults to ``"t<task_id>"``.

    Examples
    --------
    >>> t = Task(0, flops=1e9, alpha=0.0, data_elements=4e6)
    >>> t.execution_time(2, 1e9)
    0.5
    >>> t.output_bytes
    32000000.0
    """

    task_id: int
    flops: float
    alpha: float
    data_elements: float = 0.0
    complexity: Optional[ComplexityClass] = None
    name: str = ""

    def __post_init__(self) -> None:
        # one comparison on the valid path; NaN and infinities go on to
        # check_finite, which names the task
        if not 0 <= self.flops < math.inf:
            check_finite(f"task {self.task_id} flops", self.flops)
            raise ConfigurationError(f"task flops must be non-negative, got {self.flops}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ConfigurationError(f"task alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.data_elements < math.inf:
            check_finite(f"task {self.task_id} data_elements", self.data_elements)
            raise ConfigurationError(
                f"task data_elements must be non-negative, got {self.data_elements}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"t{self.task_id}")

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def is_synthetic(self) -> bool:
        """True for zero-cost structural tasks (virtual entry/exit nodes)."""
        return self.flops == 0.0

    @property
    def model(self) -> Optional[AmdahlTaskModel]:
        """The Amdahl model of the task, or ``None`` for synthetic tasks."""
        if self.is_synthetic:
            return None
        return AmdahlTaskModel(flops=self.flops, alpha=self.alpha)

    @property
    def output_bytes(self) -> float:
        """Data volume produced by the task (bytes), ``8 * d``."""
        return communication_bytes(self.data_elements)

    # ------------------------------------------------------------------ #
    # timing
    # ------------------------------------------------------------------ #
    def execution_time(self, processors: int, speed_flops: float) -> float:
        """Execution time on *processors* processors of speed *speed_flops*.

        Synthetic (zero-flop) tasks take no time regardless of the
        allocation.
        """
        if processors < 1:
            raise ConfigurationError(f"processors must be >= 1, got {processors}")
        if self.is_synthetic:
            return 0.0
        return AmdahlTaskModel(self.flops, self.alpha).time(processors, speed_flops)

    def area(self, processors: int, speed_flops: float) -> float:
        """Work area ``p * T(p)`` (processor-seconds); zero for synthetic tasks."""
        if self.is_synthetic:
            return 0.0
        return AmdahlTaskModel(self.flops, self.alpha).area(processors, speed_flops)

    def marginal_gain(self, processors: int, speed_flops: float) -> float:
        """Benefit of adding one processor (see :meth:`AmdahlTaskModel.marginal_gain`)."""
        if self.is_synthetic:
            return 0.0
        return AmdahlTaskModel(self.flops, self.alpha).marginal_gain(
            processors, speed_flops
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_cost_model(
        cls,
        task_id: int,
        complexity: ComplexityClass,
        data_elements: float,
        a_factor: float,
        alpha: float,
        name: str = "",
    ) -> "Task":
        """Build a task from the paper's cost model parameters."""
        flops = sequential_flops(complexity, data_elements, a_factor)
        return cls(
            task_id=task_id,
            flops=flops,
            alpha=alpha,
            data_elements=data_elements,
            complexity=complexity,
            name=name,
        )

    @classmethod
    def synthetic(cls, task_id: int, name: str = "") -> "Task":
        """A zero-cost structural task (virtual entry or exit node)."""
        return cls(task_id=task_id, flops=0.0, alpha=0.0, data_elements=0.0, name=name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task {self.name} (w={self.flops:.3g} flop, alpha={self.alpha:.2f})"
