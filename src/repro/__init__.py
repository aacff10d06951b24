"""repro -- Concurrent scheduling of parallel task graphs on multi-clusters.

This package is a from-scratch reproduction of

    N'Takpe, T. and Suter, F.  "Concurrent Scheduling of Parallel Task
    Graphs on Multi-Clusters Using Constrained Resource Allocations",
    INRIA Research Report RR-6774, December 2008 (HCW/IPDPS 2009).

It provides:

* a heterogeneous multi-cluster platform model with the Grid'5000 subsets
  used in the paper (:mod:`repro.platform`),
* a parallel task graph (PTG) model with moldable data-parallel tasks and
  the paper's generators: random layered DAGs, FFT and Strassen
  (:mod:`repro.dag`),
* the two-step scheduling machinery: constrained allocation procedures
  (CPA, HCPA, SCRAP, SCRAP-MAX, :mod:`repro.allocation`), resource
  constraint strategies (S, ES, PS-*, WPS-*, :mod:`repro.constraints`)
  and concurrent mapping procedures (:mod:`repro.mapping`),
* single-PTG and concurrent multi-PTG schedulers (:mod:`repro.scheduler`),
* baseline comparators (HEFT, MHEFT, DAG aggregation,
  :mod:`repro.baselines`),
* a discrete-event simulation substrate replacing SimGrid
  (:mod:`repro.simulate`),
* the paper's evaluation metrics (:mod:`repro.metrics`) and the full
  experiment harness reproducing every table and figure
  (:mod:`repro.experiments`),
* a campaign orchestration subsystem -- shard fan-out across worker
  processes, append-only result persistence, own-makespan caching and
  resume-after-interrupt (:mod:`repro.campaigns`),
* a declarative scenario layer -- serializable scenario specs selecting
  every axis (allocator, strategy, mapper, packing, platform, workload
  family) by plugin-registry name, a fluent builder with cross-product
  sweeps, and spec-keyed execution with resume
  (:mod:`repro.scenarios`),
* a multi-tenant online workload engine -- seeded Poisson / bursty /
  trace-driven arrival streams, an incremental event-driven streaming
  scheduler, windowed fairness / utilisation / stall metrics, and
  resumable streaming sweeps (:mod:`repro.streaming`,
  :mod:`repro.metrics.windows`),
* a schedule-invariant validator checking any produced schedule for
  precedence, overlap, capacity, release and sane-time violations
  (:mod:`repro.validate`).

Quickstart
----------

The scenario API is the front door: describe the experiment
declaratively, run it, read the metrics.

>>> from repro import Scenario, run_scenario
>>> spec = (
...     Scenario.on("rennes")
...     .workload(family="fft", n_ptgs=2, seed=7)
...     .pipeline(allocator="scrap-max", strategy=["ES", "WPS-width"], mapper="ready-list")
...     .build()
... )
>>> result = run_scenario(spec)
>>> sorted(result.experiment.outcomes)
['ES', 'WPS-width']
>>> 0.0 <= result.unfairness_of("ES")
True
>>> spec == type(spec).from_dict(spec.to_dict())  # specs round-trip through JSON
True

The scheduling machinery underneath stays directly scriptable:

>>> from repro import grid5000, generate_random_ptg, RandomPTGConfig
>>> from repro import ConcurrentScheduler, strategy
>>> import numpy as np
>>> rng = np.random.default_rng(42)
>>> platform = grid5000.rennes()
>>> ptgs = [
...     generate_random_ptg(rng, RandomPTGConfig(n_tasks=20), name=f"app-{i}")
...     for i in range(4)
... ]
>>> scheduler = ConcurrentScheduler(strategy("WPS-width"))
>>> result = scheduler.schedule(ptgs, platform)
>>> set(result.makespans) == {ptg.name for ptg in ptgs}
True
>>> all(m > 0 for m in result.makespans.values())
True
>>> result.global_makespan >= max(result.makespans.values())
True
"""

from __future__ import annotations

import logging as _logging

# Library logging convention: the package never configures handlers for
# its users; the CLI (and any embedding application) attaches its own.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro._version import __version__
from repro.exceptions import (
    ReproError,
    InvalidGraphError,
    InvalidPlatformError,
    AllocationError,
    MappingError,
    SimulationError,
    ConfigurationError,
    CampaignError,
)
from repro.platform import (
    Cluster,
    MultiClusterPlatform,
    NetworkTopology,
    Switch,
    grid5000,
)
from repro.dag import (
    Task,
    PTG,
    ComplexityClass,
    AmdahlTaskModel,
    RandomPTGConfig,
    generate_random_ptg,
    generate_fft_ptg,
    generate_strassen_ptg,
)
from repro.allocation import (
    Allocation,
    ReferenceCluster,
    CPAAllocator,
    HCPAAllocator,
    ScrapAllocator,
    ScrapMaxAllocator,
)
from repro.constraints import (
    ConstraintStrategy,
    SelfishStrategy,
    EqualShareStrategy,
    ProportionalShareStrategy,
    WeightedProportionalShareStrategy,
    strategy,
    STRATEGY_NAMES,
)
from repro.mapping import (
    Schedule,
    ScheduledTask,
    ReadyListMapper,
    GlobalOrderMapper,
)
from repro.scheduler import (
    SinglePTGScheduler,
    ConcurrentScheduler,
    ConcurrentScheduleResult,
)
from repro.simulate import ScheduleExecutor, SimulationReport
from repro.metrics import slowdown, average_slowdown, unfairness, relative_makespans
from repro.campaigns import (
    CampaignStore,
    ExperimentShard,
    OwnMakespanCache,
    make_shards,
    run_campaign_parallel,
)
from repro.scenarios import (
    ALLOCATORS,
    ARRIVALS,
    FAMILIES,
    MAPPERS,
    PLATFORMS,
    REGISTRIES,
    STRATEGIES,
    PipelineSpec,
    Registry,
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
    run_scenarios,
)
from repro.streaming import (
    Arrival,
    ArrivalSpec,
    StreamResult,
    StreamSession,
    generate_arrivals,
    run_stream_scenario,
    run_stream_scenarios,
)
from repro.metrics.windows import WindowedMetrics, windowed_metrics
from repro.validate import ValidationReport, Violation, validate_result, validate_schedule
from repro import obs
from repro.obs import TelemetrySpec

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "InvalidGraphError",
    "InvalidPlatformError",
    "AllocationError",
    "MappingError",
    "SimulationError",
    "ConfigurationError",
    "CampaignError",
    # platform
    "Cluster",
    "MultiClusterPlatform",
    "NetworkTopology",
    "Switch",
    "grid5000",
    # dag
    "Task",
    "PTG",
    "ComplexityClass",
    "AmdahlTaskModel",
    "RandomPTGConfig",
    "generate_random_ptg",
    "generate_fft_ptg",
    "generate_strassen_ptg",
    # allocation
    "Allocation",
    "ReferenceCluster",
    "CPAAllocator",
    "HCPAAllocator",
    "ScrapAllocator",
    "ScrapMaxAllocator",
    # constraints
    "ConstraintStrategy",
    "SelfishStrategy",
    "EqualShareStrategy",
    "ProportionalShareStrategy",
    "WeightedProportionalShareStrategy",
    "strategy",
    "STRATEGY_NAMES",
    # mapping
    "Schedule",
    "ScheduledTask",
    "ReadyListMapper",
    "GlobalOrderMapper",
    # scheduler
    "SinglePTGScheduler",
    "ConcurrentScheduler",
    "ConcurrentScheduleResult",
    # simulation
    "ScheduleExecutor",
    "SimulationReport",
    # metrics
    "slowdown",
    "average_slowdown",
    "unfairness",
    "relative_makespans",
    # campaigns
    "CampaignStore",
    "ExperimentShard",
    "OwnMakespanCache",
    "make_shards",
    "run_campaign_parallel",
    # scenarios
    "Registry",
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
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "run_scenarios",
    # streaming
    "Arrival",
    "ArrivalSpec",
    "StreamResult",
    "StreamSession",
    "generate_arrivals",
    "run_stream_scenario",
    "run_stream_scenarios",
    # windowed metrics
    "WindowedMetrics",
    "windowed_metrics",
    # validation
    "ValidationReport",
    "Violation",
    "validate_schedule",
    "validate_result",
    # observability
    "obs",
    "TelemetrySpec",
]
