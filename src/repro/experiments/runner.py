"""Experiment and campaign runners.

One *experiment* is: one platform, one workload (a set of concurrent
PTGs), a set of constraint strategies, and one pipeline (an allocation
procedure plus a concurrent mapper -- the paper's SCRAP-MAX + ready-list
by default, or any pairing selected through a
:class:`repro.scenarios.spec.PipelineSpec`).  For each strategy the
runner

1. schedules the workload with the concurrent scheduler,
2. executes the schedule on the discrete-event simulator,
3. computes the per-application slowdowns against the single-application
   reference makespans ``M_own`` (also simulated), the resulting
   unfairness, and the batch makespan.

A *campaign* runs many experiments (several workloads per PTG count,
several platforms) and aggregates them the way the paper's figures do:
average unfairness and average *relative* makespan per (strategy, number
of concurrent PTGs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.allocation.base import AllocationProcedure
from repro.allocation.scrap import ScrapMaxAllocator
from repro.constraints.base import ConstraintStrategy
from repro.constraints.registry import paper_strategies
from repro.dag.graph import PTG
from repro.exceptions import ConfigurationError
from repro.experiments.workload import (
    PAPER_PTG_COUNTS,
    WorkloadSpec,
    make_workload,
    paper_workload_specs,
)
from repro.metrics.fairness import slowdowns, unfairness
from repro.metrics.makespan import average_relative_makespan
from repro.obs import trace
from repro.platform.grid5000 import all_sites
from repro.platform.multicluster import MultiClusterPlatform
from repro.scheduler.concurrent import ConcurrentScheduler, check_submission
from repro.scheduler.single import SinglePTGScheduler, check_ptg
from repro.simulate.executor import ScheduleExecutor
from repro.utils.validation import check_max_tasks

#: Signature of campaign progress callbacks: called with a short,
#: human-readable string after each experiment (shared by the serial
#: runner and :mod:`repro.campaigns.orchestrator`).
ProgressCallback = Callable[[str], None]


@dataclass
class StrategyOutcome:
    """Measured outcome of one strategy on one experiment."""

    strategy: str
    betas: Dict[str, float]
    makespans: Dict[str, float]
    slowdowns: Dict[str, float]
    unfairness: float
    batch_makespan: float
    mean_application_makespan: float


@dataclass
class ExperimentResult:
    """Measured outcome of every strategy on one experiment."""

    platform: str
    workload: str
    n_ptgs: int
    own_makespans: Dict[str, float]
    outcomes: Dict[str, StrategyOutcome] = field(default_factory=dict)

    def unfairness_of(self, strategy_name: str) -> float:
        """Unfairness achieved by one strategy."""
        return self.outcomes[strategy_name].unfairness

    def batch_makespans(self) -> Dict[str, float]:
        """Batch (global) makespan of every strategy, for relative-makespan aggregation."""
        return {name: out.batch_makespan for name, out in self.outcomes.items()}


def compute_own_makespans(
    ptgs: Sequence[PTG],
    platform: MultiClusterPlatform,
    single_scheduler: Optional[SinglePTGScheduler] = None,
) -> Dict[str, float]:
    """Simulated makespan of each application when it has the platform alone."""
    scheduler = single_scheduler or SinglePTGScheduler()
    executor = ScheduleExecutor(platform)
    own: Dict[str, float] = {}
    with trace.span("experiment.own_makespans", apps=str(len(ptgs))):
        for ptg in ptgs:
            result = scheduler.schedule(ptg, platform)
            report = executor.execute([ptg], result.schedule)
            own[ptg.name] = report.makespan(ptg.name)
    return own


def _check_experiment(
    ptgs: Sequence[PTG], strategies: Sequence[ConstraintStrategy]
) -> None:
    """The checks every experiment makes first."""
    if not ptgs:
        raise ConfigurationError("at least one PTG is required")
    if not strategies:
        raise ConfigurationError("at least one strategy is required")


def prime_experiment(
    ptgs: Sequence[PTG],
    platform: MultiClusterPlatform,
    strategies: Sequence[ConstraintStrategy],
    allocator: AllocationProcedure,
    reference: bool = False,
) -> None:
    """Hand *allocator* every beta an experiment asks of it, before it allocates.

    That is each strategy's betas (strategies are deterministic), plus
    ``beta = 1`` for every graph when *reference* says the own-makespan
    references allocate through *allocator* too.  A memoising allocator
    then serves the whole experiment with one forked pass per graph
    (:meth:`repro.allocation.iterative.IterativeAllocator.prime`) and
    every later ``allocate`` is a memo hit; any other allocator ignores
    the hint.  The inputs are checked in the order the experiment checks
    them, so a bad one raises what it raises unprimed, and a graph a
    strategy leaves out is skipped for the scheduler to report.
    """
    _check_experiment(ptgs, strategies)
    if reference:
        for ptg in ptgs:
            check_ptg(ptg)
    check_submission(ptgs)
    wanted: Dict[str, List[float]] = {
        ptg.name: [1.0] if reference else [] for ptg in ptgs
    }
    for strat in strategies:
        betas = strat.compute_betas(ptgs, platform)
        for name, values in wanted.items():
            if name in betas:
                values.append(betas[name])
    for ptg in ptgs:
        allocator.prime(ptg, platform, wanted[ptg.name])


def run_experiment(
    ptgs: Sequence[PTG],
    platform: MultiClusterPlatform,
    strategies: Sequence[ConstraintStrategy],
    workload_label: str = "",
    own_makespans: Optional[Mapping[str, float]] = None,
    allocator: Optional[AllocationProcedure] = None,
    mapper=None,
    reference_allocator: Optional[AllocationProcedure] = None,
) -> ExperimentResult:
    """Run one experiment: every strategy on one workload and one platform.

    *allocator* and *mapper* select the pipeline; ``None`` keeps the
    paper's defaults (SCRAP-MAX allocation, ready-list mapping with
    packing).  Instances are shared across the strategies of the
    experiment.

    Without *own_makespans*, the allocator is primed with every beta of
    the experiment (:func:`prime_experiment`) and the references are then
    computed at ``beta = 1`` through *reference_allocator*: by default
    their own SCRAP-MAX, or the experiment's when *allocator* is
    ``None``.  Pass the experiment's allocator only when it computes
    what that SCRAP-MAX would (registry name ``scrap-max``, see
    :func:`repro.scenarios.run.reference_allocator_for`).  A caller
    bringing *own_makespans* primes the allocator itself, before it
    computes them.
    """
    if allocator is None:
        allocator = ScrapMaxAllocator()
        if reference_allocator is None:
            reference_allocator = allocator
    if own_makespans:
        _check_experiment(ptgs, strategies)
        own = dict(own_makespans)
    else:
        prime_experiment(
            ptgs, platform, strategies, allocator,
            reference=reference_allocator is allocator,
        )
        own = compute_own_makespans(
            ptgs, platform, SinglePTGScheduler(allocator=reference_allocator)
        )
    executor = ScheduleExecutor(platform)

    result = ExperimentResult(
        platform=platform.name,
        workload=workload_label or f"workload-{len(ptgs)}",
        n_ptgs=len(ptgs),
        own_makespans=own,
    )
    for strat in strategies:
        scheduler = ConcurrentScheduler(strategy=strat, allocator=allocator, mapper=mapper)
        with trace.span(
            "experiment.strategy", strategy=strat.name, apps=str(len(ptgs))
        ):
            planned = scheduler.schedule(ptgs, platform)
            report = executor.execute(ptgs, planned.schedule)
        multi = report.makespans()
        sd = slowdowns(own, multi)
        result.outcomes[strat.name] = StrategyOutcome(
            strategy=strat.name,
            betas=dict(planned.betas),
            makespans=multi,
            slowdowns=sd,
            unfairness=unfairness(sd),
            batch_makespan=report.global_makespan(),
            mean_application_makespan=sum(multi.values()) / len(multi),
        )
    return result


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a campaign (one figure of the paper).

    Parameters
    ----------
    family:
        Application family: ``"random"``, ``"fft"`` or ``"strassen"``.
    ptg_counts:
        Numbers of concurrent PTGs (x axis of the figures).
    workloads_per_point:
        Number of random workloads per PTG count (25 in the paper).
    platforms:
        Target platforms (the four Grid'5000 subsets in the paper).
    strategy_names:
        Names of the strategies to compare; defaults to the paper's set
        for the family (width-based strategies are dropped for Strassen).
    base_seed:
        Seed of the workload generation.
    max_tasks:
        Optional cap on random-PTG sizes (laptop-scale runs).
    pipeline:
        Optional :class:`repro.scenarios.spec.PipelineSpec` selecting
        the allocator / mapper / packing / mu by registry name;
        ``None`` keeps the paper's default pipeline.
    """

    family: str = "random"
    ptg_counts: Tuple[int, ...] = PAPER_PTG_COUNTS
    workloads_per_point: int = 25
    platforms: Optional[Tuple[MultiClusterPlatform, ...]] = None
    strategy_names: Optional[Tuple[str, ...]] = None
    base_seed: int = 0
    max_tasks: Optional[int] = None
    pipeline: Optional["PipelineSpec"] = None  # noqa: F821 - imported lazily

    def __post_init__(self) -> None:
        """Refuse a task-count cap the workers could not generate."""
        check_max_tasks(self.max_tasks)

    def resolved_platforms(self) -> List[MultiClusterPlatform]:
        """The platforms of the campaign (default: the four Grid'5000 subsets)."""
        return list(self.platforms) if self.platforms else all_sites()

    def resolved_strategies(self) -> List[ConstraintStrategy]:
        """The strategy instances of the campaign."""
        mu = self.pipeline.mu if self.pipeline is not None else None
        include_width = self.family != "strassen"
        if self.strategy_names is None:
            if mu is None:
                return paper_strategies(self.family, include_width=include_width)
            from repro.constraints.registry import STRATEGY_NAMES

            names: Tuple[str, ...] = tuple(
                n for n in STRATEGY_NAMES if include_width or "width" not in n
            )
        else:
            names = self.strategy_names
        from repro.constraints.registry import strategy as make_strategy

        return [make_strategy(name, family=self.family, mu=mu) for name in names]

    def resolved_pipeline(self) -> "PipelineSpec":
        """The pipeline of the campaign (default: the paper's)."""
        if self.pipeline is not None:
            return self.pipeline
        # Imported lazily: repro.scenarios sits on the workload layer of
        # this package, so a top-level import here would be circular.
        from repro.scenarios.spec import PipelineSpec

        return PipelineSpec()

    def scenario_specs(self) -> List["ScenarioSpec"]:
        """The campaign grid as declarative scenario specs, in campaign order.

        One :class:`repro.scenarios.spec.ScenarioSpec` per (workload,
        platform) cell.  Every platform of the campaign must be
        addressable by name in the platform registry -- campaigns built
        on ad-hoc platform objects cannot be expressed declaratively.
        """
        from repro.scenarios.registry import PLATFORMS
        from repro.scenarios.spec import ScenarioSpec

        platforms = self.resolved_platforms()
        for platform in platforms:
            if platform.name not in PLATFORMS:
                raise ConfigurationError(
                    f"platform {platform.name!r} is not registered; register it "
                    f"in repro.scenarios.PLATFORMS to express this campaign as "
                    f"scenario specs (available: {PLATFORMS.names()})"
                )
        strategy_names = tuple(s.name for s in self.resolved_strategies())
        pipeline = self.resolved_pipeline()
        specs: List["ScenarioSpec"] = []
        for workload in paper_workload_specs(
            self.family,
            ptg_counts=self.ptg_counts,
            workloads_per_point=self.workloads_per_point,
            base_seed=self.base_seed,
            max_tasks=self.max_tasks,
        ):
            for platform in platforms:
                specs.append(
                    ScenarioSpec(
                        platform=platform.name,
                        workload=workload,
                        pipeline=pipeline,
                        strategies=strategy_names,
                    )
                )
        return specs


@dataclass
class CampaignResult:
    """Aggregated campaign results (one figure of the paper)."""

    config: CampaignConfig
    experiments: List[ExperimentResult] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def strategy_names(self) -> List[str]:
        """Strategies of the results, in the first experiment's order.

        Every experiment must report the same strategy set: a strategy
        missing from some experiment has no average there, so a mixed
        campaign is refused with :class:`ConfigurationError`.
        """
        if not self.experiments:
            return []
        names = set(self.experiments[0].outcomes)
        for exp in self.experiments:
            if set(exp.outcomes) != names:
                raise ConfigurationError(
                    "every experiment must report the same strategies; "
                    f"expected {sorted(names)}, got {sorted(exp.outcomes)}"
                )
        return list(self.experiments[0].outcomes)

    def ptg_counts(self) -> List[int]:
        """Numbers of concurrent PTGs present in the results, sorted."""
        return sorted({exp.n_ptgs for exp in self.experiments})

    def _experiments_at(self, n_ptgs: int) -> List[ExperimentResult]:
        rows = [e for e in self.experiments if e.n_ptgs == n_ptgs]
        if not rows:
            raise ConfigurationError(f"no experiment with {n_ptgs} concurrent PTGs")
        return rows

    def average_unfairness(self) -> Dict[str, List[float]]:
        """Strategy -> unfairness averaged over experiments, ordered by PTG count."""
        counts = self.ptg_counts()
        result: Dict[str, List[float]] = {name: [] for name in self.strategy_names()}
        for count in counts:
            rows = self._experiments_at(count)
            for name in result:
                values = [r.unfairness_of(name) for r in rows]
                result[name].append(sum(values) / len(values))
        return result

    def average_relative_makespan(self) -> Dict[str, List[float]]:
        """Strategy -> average relative batch makespan, ordered by PTG count."""
        counts = self.ptg_counts()
        result: Dict[str, List[float]] = {name: [] for name in self.strategy_names()}
        for count in counts:
            rows = self._experiments_at(count)
            per_experiment = [r.batch_makespans() for r in rows]
            averaged = average_relative_makespan(per_experiment)
            for name in result:
                result[name].append(averaged[name])
        return result

    def average_mean_application_makespan(self) -> Dict[str, List[float]]:
        """Strategy -> plain average of the mean per-application makespan."""
        counts = self.ptg_counts()
        result: Dict[str, List[float]] = {name: [] for name in self.strategy_names()}
        for count in counts:
            rows = self._experiments_at(count)
            for name in result:
                values = [r.outcomes[name].mean_application_makespan for r in rows]
                result[name].append(sum(values) / len(values))
        return result


def run_campaign(
    config: CampaignConfig, progress: Optional[ProgressCallback] = None
) -> CampaignResult:
    """Run a full campaign: every workload on every platform.

    *progress*, when given, is called with a short string after each
    experiment (used by the CLI to show advancement).
    """
    platforms = config.resolved_platforms()
    strategies = config.resolved_strategies()
    allocator = mapper = reference = None
    if config.pipeline is not None:
        from repro.scenarios.run import build_pipeline, reference_allocator_for

        allocator, mapper = build_pipeline(config.pipeline)
        reference = reference_allocator_for(config.pipeline, allocator)
    specs = paper_workload_specs(
        config.family,
        ptg_counts=config.ptg_counts,
        workloads_per_point=config.workloads_per_point,
        base_seed=config.base_seed,
        max_tasks=config.max_tasks,
    )
    result = CampaignResult(config=config)
    for spec in specs:
        ptgs = make_workload(spec)
        for platform in platforms:
            experiment = run_experiment(
                ptgs, platform, strategies, workload_label=spec.label(),
                allocator=allocator, mapper=mapper, reference_allocator=reference,
            )
            result.experiments.append(experiment)
            if progress is not None:
                progress(f"{spec.label()} on {platform.name}")
    return result
