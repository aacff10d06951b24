"""Execute scenario specs on the existing scheduling and campaign machinery.

:func:`run_scenario` turns one
:class:`~repro.scenarios.spec.ScenarioSpec` into a
:class:`ScenarioResult`: the workload is regenerated from its seed, every
component is instantiated from its registry name, and the experiment runs
through :func:`repro.experiments.runner.run_experiment` -- so a default
spec reproduces the pre-scenario harness bit for bit.

:func:`run_scenarios` runs many specs with the campaign machinery:
multiprocessing fan-out (:mod:`repro.campaigns.pool`), an optional
spec-keyed persistent store (:mod:`repro.campaigns.store`) and
resume-after-interrupt -- each spec's
:meth:`~repro.scenarios.spec.ScenarioSpec.content_hash` is its shard key,
so a rerun of an already-stored spec is skipped, even from a different
process or a different sweep that happens to contain the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.allocation.base import AllocationProcedure
from repro.constraints.base import ConstraintStrategy
from repro.dag.graph import PTG
from repro.exceptions import CampaignError, ConfigurationError
from repro.experiments.runner import ExperimentResult, ProgressCallback, run_experiment
from repro.experiments.workload import make_workload
from repro.mapping.base import Mapper
from repro.platform.multicluster import MultiClusterPlatform
from repro.scenarios.registry import ALLOCATORS, MAPPERS, PLATFORMS, STRATEGIES
from repro.scenarios.spec import PipelineSpec, ScenarioSpec


#: The allocator whose allocation at ``beta = 1`` is the own-makespan
#: reference's: :class:`~repro.scheduler.single.SinglePTGScheduler`'s
#: default, SCRAP-MAX with the balance stop and no efficiency guard.
REFERENCE_ALLOCATOR = "scrap-max"


def build_pipeline(pipeline: PipelineSpec) -> Tuple[AllocationProcedure, Mapper]:
    """Instantiate the (allocator, mapper) pair a pipeline spec names."""
    allocator = ALLOCATORS.create(pipeline.allocator)
    mapper = MAPPERS.create(pipeline.mapper, enable_packing=pipeline.packing)
    return allocator, mapper


def reference_allocator_for(
    pipeline: PipelineSpec, allocator: AllocationProcedure
) -> Optional[AllocationProcedure]:
    """*allocator*, built from *pipeline*, when it also serves the references.

    Decided by the registry name the allocator was built from, so a
    wrapped or substituted instance keeps the pipeline's answer; ``None``
    leaves the references their own SCRAP-MAX (see
    :func:`repro.experiments.runner.run_experiment`).
    """
    return allocator if pipeline.allocator == REFERENCE_ALLOCATOR else None


def build_strategies(spec: ScenarioSpec) -> List[ConstraintStrategy]:
    """Instantiate the strategy set of a scenario.

    Strategies are built with the workload family (which selects the
    paper's ``mu`` defaults) and the pipeline's optional ``mu``
    override.
    """
    return [
        STRATEGIES.create(name, mu=spec.pipeline.mu, family=spec.workload.family)
        for name in spec.resolved_strategy_names()
    ]


def scenario_workload(spec: ScenarioSpec) -> List[PTG]:
    """Generate the PTGs of a scenario (deterministic in the seed).

    Non-built-in families dispatch through the
    :data:`~repro.scenarios.registry.FAMILIES` plugin registry inside
    :func:`~repro.experiments.workload.make_workload`.
    """
    return make_workload(spec.workload)


@dataclass
class ScenarioResult:
    """Outcome of one scenario: the spec plus the measured experiment.

    The experiment is a plain
    :class:`~repro.experiments.runner.ExperimentResult`, so every
    aggregation that works on harness results works here unchanged.
    """

    spec: ScenarioSpec
    experiment: ExperimentResult
    #: Telemetry summary captured by the run, when the spec asked for one
    #: (``spec.telemetry``); a plain-JSON document from
    #: :func:`repro.obs.export.telemetry_summary`.
    telemetry: Optional[Dict] = None

    @property
    def key(self) -> str:
        """The scenario's content hash (the store/shard key)."""
        return self.spec.content_hash()

    def unfairness_of(self, strategy_name: str) -> float:
        """Unfairness achieved by one strategy of the scenario."""
        return self.experiment.unfairness_of(strategy_name)

    def batch_makespans(self) -> Dict[str, float]:
        """Batch makespan of every strategy of the scenario."""
        return self.experiment.batch_makespans()


def run_scenario(
    spec: ScenarioSpec,
    platform: Optional[MultiClusterPlatform] = None,
    ptgs: Optional[Sequence[PTG]] = None,
    own_makespans: Optional[Dict[str, float]] = None,
) -> ScenarioResult:
    """Run one scenario and return its :class:`ScenarioResult`.

    Parameters
    ----------
    spec:
        The scenario to run.
    platform:
        Optional platform *object* overriding the spec's registry name
        -- the escape hatch for platforms that are not registered (the
        mu-sweep harness and the unit tests use it to reuse synthetic
        platforms).
    ptgs:
        Optional pre-generated workload (must match the spec's seed to
        keep results reproducible); sweeps that share one workload
        across many pipelines pass it to avoid regeneration.
    own_makespans:
        Optional precomputed single-application reference makespans,
        e.g. from the campaign cache.
    """
    if spec.is_streaming:
        raise ConfigurationError(
            f"scenario {spec.label()!r} has an arrivals section: run it with "
            f"repro.streaming.run_stream_scenario (CLI: repro-ptg stream / "
            f"repro-ptg run routes it automatically)"
        )
    if spec.faults is not None:
        raise ConfigurationError(
            f"scenario {spec.label()!r} has a faults section but no arrivals: "
            f"fault injection runs on the streaming path (add an arrivals "
            f"section, or drop the faults section for a plain batch run)"
        )
    target = platform if platform is not None else PLATFORMS.create(spec.platform)
    # The scenario starts its own telemetry session only when the caller
    # has not installed one (so ``repro trace`` keeps a single session).
    obs_session = None
    if spec.telemetry is not None and not obs.enabled():
        obs_session = obs.enable(spec.telemetry)
    try:
        workload = list(ptgs) if ptgs is not None else scenario_workload(spec)
        strategies = build_strategies(spec)
        allocator, mapper = build_pipeline(spec.pipeline)
        experiment = run_experiment(
            workload,
            target,
            strategies,
            workload_label=spec.workload.label(),
            own_makespans=own_makespans,
            allocator=allocator,
            mapper=mapper,
            reference_allocator=reference_allocator_for(spec.pipeline, allocator),
        )
    finally:
        if obs_session is not None:
            obs.disable()
    result = ScenarioResult(spec=spec, experiment=experiment)
    if obs_session is not None:
        result.telemetry = obs_session.summary(
            labels={"scenario": spec.label(), "key": result.key}
        )
    return result


def run_scenarios(
    specs: Sequence[ScenarioSpec],
    jobs: Optional[int] = None,
    store: Optional[Union[str, "object"]] = None,
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
) -> List[ScenarioResult]:
    """Run many scenarios with fan-out, persistence and resume.

    Parameters
    ----------
    specs:
        The scenarios to run (e.g. a :meth:`Scenario.sweep` expansion).
        Duplicate specs (same content hash) are executed once.
    jobs:
        Worker processes (``None``: one per CPU; ``1``: inline).
    store:
        A :class:`~repro.campaigns.store.CampaignStore` or directory
        path.  Results are keyed by spec content hash: completed specs
        are skipped on resume and every new result is appended as it
        arrives.  Unlike campaign stores, a scenario store is not bound
        to one fixed spec list -- the content-derived keys make mixing
        sweeps safe.
    resume:
        Whether an already-populated store may be continued; a populated
        store with ``resume=False`` raises, mirroring the campaign
        orchestrator.
    progress:
        Called with a short string after each scenario completes.

    Returns
    -------
    list of ScenarioResult
        One result per input spec, in input order (duplicates share the
        same experiment object).
    """
    # Imported lazily: repro.campaigns sits on the experiment layer and
    # its shard module imports repro.scenarios.spec, so a top-level
    # import here would be circular.
    from repro.campaigns.pool import run_shards
    from repro.campaigns.shards import make_shards_from_specs
    from repro.campaigns.store import CampaignStore

    specs = list(specs)
    if not specs:
        raise ConfigurationError("at least one scenario spec is required")
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = CampaignStore(store)

    shards = make_shards_from_specs(specs)
    keys = [shard.key() for shard in shards]

    results: Dict[str, ExperimentResult] = {}
    cache = None
    if store is not None:
        results = store.results_by_key()
        if results and not resume:
            raise CampaignError(
                f"store {store.root} already holds {len(results)} result(s); pass "
                f"resume=True (--resume) to continue it or point at a fresh directory"
            )
        cache = store.load_cache()

    seen = set(results)
    pending = []
    for shard, key in zip(shards, keys):
        if key not in seen:
            seen.add(key)
            pending.append(shard)
    if progress is not None and len(shards) != len(pending):
        progress(f"resuming: {len(shards) - len(pending)}/{len(shards)} already done")

    failures: Dict[str, str] = {}
    for outcome in run_shards(pending, jobs=jobs, cache=cache, return_workload=False):
        if not outcome.ok:
            failures[outcome.label] = outcome.error or ""
            if progress is not None:
                progress(f"FAILED {outcome.label}")
            continue
        results[outcome.key] = outcome.result
        if store is not None:
            store.append(outcome.key, outcome.result)
            if outcome.telemetry is not None:
                from repro.obs.export import TELEMETRY_CHANNEL

                store.append_payload(TELEMETRY_CHANNEL, outcome.key, outcome.telemetry)
            if outcome.cache_entries:
                store.save_cache(cache)
        if progress is not None:
            progress(outcome.label)

    if failures:
        first_label, first_error = next(iter(failures.items()))
        raise CampaignError(
            f"{len(failures)} scenario(s) failed; first failure on "
            f"{first_label}:\n{first_error}"
        )
    return [
        ScenarioResult(spec=spec, experiment=_in_spec_order(spec, results[key]))
        for spec, key in zip(specs, keys)
    ]


def _in_spec_order(spec: ScenarioSpec, experiment: ExperimentResult) -> ExperimentResult:
    """Reorder the experiment's outcomes to the spec's strategy order.

    Records reloaded from a store have their outcome keys in canonical
    JSON (sorted) order; freshly executed ones are in strategy order.
    Normalising to the spec's order keeps fresh and resumed runs
    rendering identically.
    """
    order = [
        name for name in spec.resolved_strategy_names() if name in experiment.outcomes
    ]
    order += [name for name in experiment.outcomes if name not in order]
    experiment.outcomes = {name: experiment.outcomes[name] for name in order}
    return experiment
