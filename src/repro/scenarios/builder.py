"""Fluent scenario builder with cross-product sweeps.

:class:`Scenario` builds :class:`~repro.scenarios.spec.ScenarioSpec`
objects readably::

    spec = (
        Scenario.on("rennes")
        .workload(family="fft", n_ptgs=8)
        .pipeline(allocator="scrap", strategy="WPS-width", mapper="ready-list")
        .build()
    )

and :meth:`Scenario.sweep` expands named axes into the cross-product of
specs, which is how "8 strategies x 1 pipeline" becomes a full scenario
space (allocator x strategy x mapper x packing x platform x family)::

    specs = (
        Scenario.on("rennes")
        .workload(family="fft", n_ptgs=8)
        .sweep(strategy=["S", "ES"], allocator=["hcpa", "scrap-max"])
    )

Examples
--------
>>> spec = Scenario.on("lille").workload(family="strassen", n_ptgs=4).build()
>>> spec.platform, spec.workload.family
('lille', 'strassen')
>>> specs = Scenario.on("lille").sweep(allocator=["hcpa", "scrap"], packing=[True, False])
>>> len(specs)
4
>>> [(s.pipeline.allocator, s.pipeline.packing) for s in specs]
[('hcpa', True), ('hcpa', False), ('scrap', True), ('scrap', False)]
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.experiments.workload import WorkloadSpec
from repro.scenarios.spec import PipelineSpec, ScenarioSpec

#: Sweepable axes, in the (fixed, documented) cross-product order:
#: earlier axes vary slowest.
SWEEP_AXES = (
    "platform",
    "family",
    "n_ptgs",
    "seed",
    "max_tasks",
    "allocator",
    "strategy",
    "mapper",
    "packing",
    "mu",
)


class Scenario:
    """Fluent builder of :class:`~repro.scenarios.spec.ScenarioSpec` objects.

    Builder state is plain keyword dictionaries; nothing is validated
    until :meth:`build` constructs the frozen spec, so axes can be set
    in any order and overridden freely.
    """

    def __init__(self, platform: str = "rennes") -> None:
        """Start a builder targeting *platform* (a registry name)."""
        self._platform = platform
        self._workload: Dict = {}
        self._pipeline: Dict = {}
        self._strategies: Optional[Union[str, Sequence[str]]] = None

    @classmethod
    def on(cls, platform: str) -> "Scenario":
        """Start a builder targeting *platform* (reads fluently)."""
        return cls(platform)

    # ------------------------------------------------------------------ #
    # axis setters
    # ------------------------------------------------------------------ #
    def workload(
        self,
        family: Optional[str] = None,
        n_ptgs: Optional[int] = None,
        seed: Optional[int] = None,
        max_tasks: Optional[int] = None,
    ) -> "Scenario":
        """Set workload fields; only the given keywords are overridden."""
        if family is not None:
            self._workload["family"] = family
        if n_ptgs is not None:
            self._workload["n_ptgs"] = n_ptgs
        if seed is not None:
            self._workload["seed"] = seed
        if max_tasks is not None:
            self._workload["max_tasks"] = max_tasks
        return self

    def pipeline(
        self,
        allocator: Optional[str] = None,
        strategy: Optional[Union[str, Sequence[str]]] = None,
        mapper: Optional[str] = None,
        packing: Optional[bool] = None,
        mu: Optional[float] = None,
    ) -> "Scenario":
        """Set pipeline fields; *strategy* takes one name or a sequence."""
        if allocator is not None:
            self._pipeline["allocator"] = allocator
        if mapper is not None:
            self._pipeline["mapper"] = mapper
        if packing is not None:
            self._pipeline["packing"] = packing
        if mu is not None:
            self._pipeline["mu"] = mu
        if strategy is not None:
            self._strategies = strategy
        return self

    def strategies(self, *names: str) -> "Scenario":
        """Select the strategy set to compare (explicit alternative to ``pipeline``)."""
        self._strategies = names
        return self

    # ------------------------------------------------------------------ #
    # terminal operations
    # ------------------------------------------------------------------ #
    def build(self) -> ScenarioSpec:
        """Construct (and thereby validate) the spec described so far."""
        return ScenarioSpec(
            platform=self._platform,
            workload=WorkloadSpec(**self._workload),
            pipeline=PipelineSpec(**self._pipeline),
            strategies=self._strategies,
        )

    def sweep(self, **axes) -> List[ScenarioSpec]:
        """Expand named axes into the cross-product of specs.

        Each keyword names one of :data:`SWEEP_AXES` and takes a
        sequence of values (a scalar is treated as a one-element
        sequence).  The ``strategy`` axis accepts either single names
        (one strategy per spec -- the common per-strategy sweep) or
        tuples of names (one strategy *set* per spec).  Axes not swept
        keep the builder's current value; the expansion order is
        :data:`SWEEP_AXES` order with earlier axes varying slowest, so
        the resulting list is deterministic.
        """
        unknown = sorted(set(axes) - set(SWEEP_AXES))
        if unknown:
            raise ConfigurationError(
                f"unknown sweep axis/axes {unknown}; sweepable: {list(SWEEP_AXES)}"
            )
        names = [axis for axis in SWEEP_AXES if axis in axes]
        values = []
        for axis in names:
            axis_values = axes[axis]
            if isinstance(axis_values, (str, bytes)) or not isinstance(
                axis_values, (list, tuple)
            ):
                axis_values = [axis_values]
            if not axis_values:
                raise ConfigurationError(f"sweep axis {axis!r} has no values")
            values.append(list(axis_values))

        specs: List[ScenarioSpec] = []
        for combo in itertools.product(*values):
            clone = self._clone()
            for axis, value in zip(names, combo):
                clone._apply_axis(axis, value)
            specs.append(clone.build())
        return specs

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _clone(self) -> "Scenario":
        """An independent copy of the builder state."""
        clone = Scenario(self._platform)
        clone._workload = dict(self._workload)
        clone._pipeline = dict(self._pipeline)
        clone._strategies = self._strategies
        return clone

    def _apply_axis(self, axis: str, value) -> None:
        """Apply one sweep-axis value to this builder."""
        if axis == "platform":
            self._platform = value
        elif axis in ("family", "n_ptgs", "seed", "max_tasks"):
            self._workload[axis] = value
        elif axis == "strategy":
            self._strategies = value
        else:  # allocator, mapper, packing, mu
            self._pipeline[axis] = value
