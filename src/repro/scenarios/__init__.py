"""Declarative, serializable scenarios with unified plugin registries.

This package is the front door of the experiment harness: a
:class:`~repro.scenarios.spec.ScenarioSpec` describes one experiment --
platform, workload family, allocation procedure, constraint strategies,
mapper, packing -- entirely by registry name, round-trips through JSON,
and runs on the existing scheduler / simulator / campaign machinery:

* :mod:`repro.scenarios.registry` -- the generic plugin
  :class:`~repro.scenarios.registry.Registry` and the built-in axes
  (:data:`ALLOCATORS`, :data:`MAPPERS`, :data:`STRATEGIES`,
  :data:`PLATFORMS`, :data:`FAMILIES`),
* :mod:`repro.scenarios.spec` -- the frozen spec dataclasses with
  JSON round-trip and stable content hashes,
* :mod:`repro.scenarios.builder` -- the fluent
  :class:`~repro.scenarios.builder.Scenario` builder and its
  cross-product ``sweep()``,
* :mod:`repro.scenarios.run` -- :func:`run_scenario` /
  :func:`run_scenarios` execution, including spec-keyed persistent
  stores with resume.
"""

from repro.experiments.workload import WorkloadSpec
from repro.scenarios.builder import Scenario, SWEEP_AXES
from repro.scenarios.registry import (
    ALLOCATORS,
    ARRIVALS,
    FAMILIES,
    MAPPERS,
    PLATFORMS,
    REGISTRIES,
    STRATEGIES,
    Registry,
    RegistryEntry,
)
from repro.scenarios.run import (
    ScenarioResult,
    build_pipeline,
    build_strategies,
    run_scenario,
    run_scenarios,
    scenario_workload,
)
from repro.scenarios.spec import (
    PipelineSpec,
    ScenarioSpec,
    SPEC_FORMAT_VERSION,
    SPEC_HASH_VERSION,
    load_specs,
    scenario_hash_payload,
)

__all__ = [
    "Registry",
    "RegistryEntry",
    "ALLOCATORS",
    "ARRIVALS",
    "MAPPERS",
    "STRATEGIES",
    "PLATFORMS",
    "FAMILIES",
    "REGISTRIES",
    "ScenarioSpec",
    "PipelineSpec",
    "WorkloadSpec",
    "SPEC_FORMAT_VERSION",
    "SPEC_HASH_VERSION",
    "load_specs",
    "scenario_hash_payload",
    "Scenario",
    "SWEEP_AXES",
    "ScenarioResult",
    "run_scenario",
    "run_scenarios",
    "build_pipeline",
    "build_strategies",
    "scenario_workload",
]
