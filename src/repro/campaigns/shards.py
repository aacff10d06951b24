"""Deterministic decomposition of a campaign into experiment shards.

A *shard* is the unit of fan-out of the campaign orchestrator: one
workload specification run on one platform with one set of constraint
strategies and one pipeline.  Shards are self-describing -- a worker
process can execute one from its fields alone (the workload is
regenerated from its seed, the strategies and the pipeline components
are rebuilt from their registry names) -- and carry a stable,
content-derived key so that a result store can recognise an
already-completed shard across interrupted and resumed runs.

The key is the **scenario content hash**: a shard built from a
:class:`~repro.scenarios.spec.ScenarioSpec`
(:func:`make_shards_from_specs`) has ``shard.key() ==
spec.content_hash()``, so campaign stores and scenario stores speak the
same key space.

:func:`make_shards` enumerates the shards of a
:class:`~repro.experiments.runner.CampaignConfig` in exactly the order
the serial :func:`~repro.experiments.runner.run_campaign` visits them
(workload-major, then platform), which keeps progress reporting and
result aggregation identical between the serial and parallel paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaigns.cache import content_digest, platform_fingerprint
from repro.experiments.runner import CampaignConfig
from repro.experiments.workload import WorkloadSpec, paper_workload_specs
from repro.obs.config import TelemetrySpec
from repro.platform.multicluster import MultiClusterPlatform
from repro.scenarios.registry import PLATFORMS
from repro.scenarios.spec import (
    PipelineSpec,
    SPEC_HASH_VERSION,
    ScenarioSpec,
    scenario_hash_payload,
)

#: Version stamp of the shard-key scheme.  Bump when the key payload
#: changes so stale stores are not silently misinterpreted.  Version 2
#: unified shard keys with scenario content hashes (the payload now
#: includes the pipeline); it is the same constant as
#: :data:`repro.scenarios.spec.SPEC_HASH_VERSION`.
SHARD_KEY_VERSION = SPEC_HASH_VERSION


@dataclass(frozen=True)
class ExperimentShard:
    """One self-describing unit of campaign work.

    Attributes
    ----------
    index:
        Position of the shard in campaign order (used to reassemble
        results in the serial runner's order).
    spec:
        The workload specification; the worker regenerates the PTGs from
        its seed, so the shard stays small and picklable.
    platform:
        The target platform.
    strategy_names:
        Registry names of the strategies to compare; the worker rebuilds
        the instances with the family-specific paper parameters.
    pipeline:
        The pipeline (allocator / mapper / packing / mu, all by registry
        name); the worker rebuilds the component instances.
    telemetry:
        Optional :class:`~repro.obs.config.TelemetrySpec`; when set, the
        worker captures telemetry around the shard and ships the summary
        back in its :class:`~repro.campaigns.pool.ShardOutcome`.
    """

    index: int
    spec: WorkloadSpec
    platform: MultiClusterPlatform
    strategy_names: Tuple[str, ...]
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    telemetry: Optional[TelemetrySpec] = None

    def label(self) -> str:
        """Readable identifier used in progress reports and logs.

        Includes the pipeline, so the shards of a pipeline-only sweep
        (same workload and platform, different allocator/mapper/packing
        /mu) stay distinguishable in progress output and failure
        summaries.
        """
        return f"{self.spec.label()} on {self.platform.name} [{self.pipeline.label()}]"

    def key_payload(self) -> Dict:
        """The content from which the shard key is derived.

        This is :func:`repro.scenarios.spec.scenario_hash_payload` --
        the same payload scenario content hashes digest -- with the
        platform described by its content fingerprint.
        """
        return scenario_hash_payload(
            family=self.spec.family,
            n_ptgs=self.spec.n_ptgs,
            seed=self.spec.seed,
            max_tasks=self.spec.max_tasks,
            platform_fp=platform_fingerprint(self.platform),
            strategy_names=self.strategy_names,
            pipeline=self.pipeline,
            telemetry=self.telemetry,
        )

    def key(self) -> str:
        """Stable content-derived key of the shard.

        Two shards share a key exactly when they describe the same
        computation: same workload content (family, size, seed, caps),
        same platform content, same strategy set and same pipeline.
        The key is independent of process, ordering and platform
        *object* identity, so it survives interruption and resumption
        -- and it equals the :meth:`ScenarioSpec.content_hash` of the
        scenario describing the same computation.
        """
        return content_digest(self.key_payload())

    @classmethod
    def from_scenario(cls, scenario: ScenarioSpec, index: int = 0) -> "ExperimentShard":
        """Expand one scenario spec into its (single) shard.

        Streaming scenarios (an ``arrivals`` section) are rejected: they
        shard as whole scenario specs through
        :func:`repro.streaming.run.run_stream_scenarios`, not as batch
        experiment shards.
        """
        if scenario.is_streaming:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                f"streaming scenario {scenario.label()!r} cannot become a "
                f"batch experiment shard; run it with "
                f"repro.streaming.run_stream_scenarios"
            )
        if scenario.faults is not None:
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(
                f"scenario {scenario.label()!r} carries a faults section; "
                f"fault injection runs on the streaming path, not as a "
                f"batch experiment shard"
            )
        return cls(
            index=index,
            spec=scenario.workload,
            platform=PLATFORMS.create(scenario.platform),
            strategy_names=scenario.resolved_strategy_names(),
            pipeline=scenario.pipeline,
            telemetry=scenario.telemetry,
        )


def make_shards(config: CampaignConfig) -> List[ExperimentShard]:
    """Split *config* into its experiment shards, in campaign order."""
    platforms = config.resolved_platforms()
    strategy_names = tuple(s.name for s in config.resolved_strategies())
    pipeline = config.resolved_pipeline()
    specs = paper_workload_specs(
        config.family,
        ptg_counts=config.ptg_counts,
        workloads_per_point=config.workloads_per_point,
        base_seed=config.base_seed,
        max_tasks=config.max_tasks,
    )
    shards: List[ExperimentShard] = []
    for spec in specs:
        for platform in platforms:
            shards.append(
                ExperimentShard(
                    index=len(shards),
                    spec=spec,
                    platform=platform,
                    strategy_names=strategy_names,
                    pipeline=pipeline,
                )
            )
    return shards


def make_shards_from_specs(specs: Sequence[ScenarioSpec]) -> List[ExperimentShard]:
    """Expand scenario specs into shards, in input order.

    This is how :func:`repro.scenarios.run.run_scenarios` feeds a sweep
    into the campaign pool; ``shard.key() == spec.content_hash()``
    holds for every pair.
    """
    return [
        ExperimentShard.from_scenario(spec, index=index)
        for index, spec in enumerate(specs)
    ]


def campaign_signature(shards: List[ExperimentShard]) -> str:
    """Content digest of a whole campaign (the ordered list of shard keys).

    Stored in the result store's metadata so a resumed run can verify it
    is continuing the *same* campaign and not silently mixing configs.
    """
    return content_digest([shard.key() for shard in shards])
