"""Campaign orchestration: parallel, persistent, resumable experiment runs.

The paper's evaluation is thousands of independent experiments (25
workloads per PTG count, five PTG counts, four platforms, seven or eight
strategies).  This subsystem turns the one-shot serial campaign runner
into an orchestration layer:

* :mod:`repro.campaigns.shards` -- deterministic decomposition of a
  :class:`~repro.experiments.runner.CampaignConfig` into self-describing
  experiment shards with stable content-derived keys,
* :mod:`repro.campaigns.pool` -- a :mod:`multiprocessing` executor that
  fans shards out across worker processes with ordered progress and
  per-shard failure capture,
* :mod:`repro.campaigns.store` -- an append-only JSONL result store with
  full :class:`~repro.experiments.runner.ExperimentResult` round-tripping
  and archival of the generated workloads; each channel's log is its
  only on-disk format,
* :mod:`repro.campaigns.aggregate` -- :func:`summarize_store`, the paper
  aggregates of a stored campaign, computed by
  :class:`~repro.experiments.runner.CampaignResult` like an in-process one,
* :mod:`repro.campaigns.cache` -- a keyed cache of single-application
  reference makespans shared across strategies, shards and resumed runs,
* :mod:`repro.campaigns.orchestrator` -- :func:`run_campaign_parallel`,
  which skips already-stored shards (resume-after-interrupt) and
  re-assembles a :class:`~repro.experiments.runner.CampaignResult` whose
  aggregates are bit-identical to the serial runner's.
"""

from repro.campaigns.cache import (
    OwnMakespanCache,
    compute_own_makespans_cached,
    platform_fingerprint,
    ptg_fingerprint,
)
from repro.campaigns.orchestrator import (
    CampaignRun,
    CampaignRunStats,
    orchestrate,
    run_campaign_parallel,
)
from repro.campaigns.pool import ShardOutcome, default_jobs, execute_shard, run_shards
from repro.campaigns.shards import ExperimentShard, campaign_signature, make_shards
from repro.campaigns.store import (
    CampaignStore,
    experiment_result_from_dict,
    experiment_result_to_dict,
    strategy_outcome_from_dict,
    strategy_outcome_to_dict,
)

__all__ = [
    # cache
    "OwnMakespanCache",
    "compute_own_makespans_cached",
    "platform_fingerprint",
    "ptg_fingerprint",
    # shards
    "ExperimentShard",
    "campaign_signature",
    "make_shards",
    # pool
    "ShardOutcome",
    "default_jobs",
    "execute_shard",
    "run_shards",
    # store
    "CampaignStore",
    "experiment_result_to_dict",
    "experiment_result_from_dict",
    "strategy_outcome_to_dict",
    "strategy_outcome_from_dict",
    # orchestrator
    "CampaignRun",
    "CampaignRunStats",
    "orchestrate",
    "run_campaign_parallel",
]
