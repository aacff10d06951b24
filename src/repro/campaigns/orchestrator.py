"""Campaign orchestration: fan out, persist, resume, re-aggregate.

:func:`run_campaign_parallel` is the parallel, persistent counterpart of
the serial :func:`repro.experiments.runner.run_campaign`:

1. the campaign is split into deterministic shards
   (:func:`repro.campaigns.shards.make_shards`),
2. shards whose key is already present in the result store are skipped
   (resume-after-interrupt; the check is a key-only scan, no result is
   deserialised),
3. the remaining shards are handed to the process-pool executor
   (:data:`repro.scenarios.registry.EXECUTORS`: ``process-pool`` or its
   one-job alias ``serial``), each completed shard being appended to the
   store -- results, archived workload and own-makespan cache -- the
   moment it arrives,
4. the :class:`~repro.experiments.runner.CampaignResult` is re-assembled
   from the store in campaign order, so ``average_unfairness()`` and
   ``average_relative_makespan()`` aggregate exactly as the serial
   runner's in-memory result does.

Because shards are seeded deterministically and results round-trip
exactly through JSON, a parallel run, a serial run and a resumed run of
the same :class:`~repro.experiments.runner.CampaignConfig` produce
bit-identical aggregates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.campaigns.pool import RetryPolicy, default_jobs
from repro.campaigns.shards import ExperimentShard, campaign_signature, make_shards
from repro.campaigns.store import CampaignStore
from repro.exec.procpool import ExecutionPolicy, ProcessPoolExecutor
from repro.exceptions import CampaignError
from repro.experiments.runner import (
    CampaignConfig,
    CampaignResult,
    ExperimentResult,
    ProgressCallback,
)
from repro.obs import meters
from repro.obs.logs import get_logger

_LOG = get_logger("campaigns.orchestrator")

#: Version stamp of the store metadata document.
META_FORMAT_VERSION = 1

#: Store channel recording shards that kept failing after their retries.
QUARANTINE_CHANNEL = "quarantine"


@dataclass
class CampaignRunStats:
    """Bookkeeping of one orchestrated campaign run."""

    total_shards: int = 0
    skipped_shards: int = 0
    executed_shards: int = 0
    failed_shards: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed_seconds: float = 0.0
    failures: Dict[str, str] = field(default_factory=dict)
    #: Labels of the shards written to the store's quarantine channel.
    quarantined: List[str] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of own-makespan lookups served from the cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


@dataclass
class CampaignRun:
    """Result + statistics of one orchestrated campaign run."""

    result: CampaignResult
    stats: CampaignRunStats


def _campaign_meta(config: CampaignConfig, shards: List[ExperimentShard]) -> Dict:
    return {
        "format_version": META_FORMAT_VERSION,
        "signature": campaign_signature(shards),
        "family": config.family,
        "ptg_counts": list(config.ptg_counts),
        "workloads_per_point": config.workloads_per_point,
        "base_seed": config.base_seed,
        "max_tasks": config.max_tasks,
        "platforms": [p.name for p in config.resolved_platforms()],
        "strategies": [s.name for s in config.resolved_strategies()],
        "pipeline": config.resolved_pipeline().to_dict(),
        "total_shards": len(shards),
    }


def _check_store(
    store: CampaignStore,
    config: CampaignConfig,
    shards: List[ExperimentShard],
    resume: bool,
    completed: int,
) -> None:
    meta = store.read_meta()
    if meta is not None:
        signature = campaign_signature(shards)
        if meta.get("signature") != signature:
            raise CampaignError(
                f"store {store.root} belongs to a different campaign "
                f"(stored signature {meta.get('signature')!r}, this campaign "
                f"{signature!r}); refusing to mix results"
            )
    if completed and not resume:
        raise CampaignError(
            f"store {store.root} already holds {completed} result(s); pass "
            f"resume=True (--resume) to continue it or point at a fresh directory"
        )
    if meta is None:
        store.write_meta(_campaign_meta(config, shards))


def _resolve_executor(
    executor: Optional[Union[str, ProcessPoolExecutor]],
) -> ProcessPoolExecutor:
    """An executor instance from a registry name (default: process-pool)."""
    if executor is None:
        executor = "process-pool"
    if isinstance(executor, str):
        from repro.scenarios.registry import EXECUTORS

        return EXECUTORS.create(executor)
    return executor


def orchestrate(
    config: CampaignConfig,
    store: Optional[Union[CampaignStore, str]] = None,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    resume: bool = True,
    archive_workloads: bool = True,
    retry: Optional[RetryPolicy] = None,
    executor: Optional[Union[str, ProcessPoolExecutor]] = None,
) -> CampaignRun:
    """Run *config* in parallel with persistence, returning result + stats.

    Parameters
    ----------
    config:
        The campaign to run.
    store:
        A :class:`CampaignStore` or a directory path.  When given,
        completed shards are skipped (if *resume*) and every new shard is
        persisted as it completes; when omitted, the run is in-memory
        only (no resume, no archive).
    jobs:
        Worker processes (default: the executor's own, one per CPU for
        ``process-pool``; ``1`` runs inline).
    progress:
        Called with a short string after each shard is skipped, completed
        or failed.
    resume:
        Whether an already-populated store may be continued.  A store
        holding results from a *different* campaign is always refused.
    archive_workloads:
        Whether to archive each shard's generated PTGs next to its
        result record.
    retry:
        Optional :class:`~repro.campaigns.pool.RetryPolicy`: workers
        re-attempt failing shards with capped exponential backoff
        before reporting them failed.  Shards that keep failing are
        *quarantined* when a store is given -- their traceback is
        appended to the store's ``quarantine`` channel and the campaign
        completes over the surviving shards instead of aborting; a
        later resume re-runs them (their result key is still missing).
    executor:
        Which executor fans the shards out: a name from
        :data:`repro.scenarios.registry.EXECUTORS` (``process-pool``,
        the default, or its one-job alias ``serial``) or a
        :class:`~repro.exec.procpool.ProcessPoolExecutor` instance.
        An explicit *jobs* wins over the executor's own job count.
    """
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = CampaignStore(store)
    shards = make_shards(config)
    stats = CampaignRunStats(total_shards=len(shards))
    engine = _resolve_executor(executor)
    policy = ExecutionPolicy(
        jobs=jobs, retry=retry, return_workload=store is not None and archive_workloads
    )

    results: Dict[str, ExperimentResult] = {}
    completed = set()
    cache = None
    if store is not None:
        completed = store.completed_keys()
        _check_store(store, config, shards, resume, completed=len(completed))
        cache = store.load_cache()

    pending = [s for s in shards if s.key() not in completed]
    stats.skipped_shards = len(shards) - len(pending)
    if progress is not None and stats.skipped_shards:
        progress(f"resuming: {stats.skipped_shards}/{len(shards)} shards already done")
    _LOG.debug(
        "campaign: %d shard(s), %d pending, %d skipped (executor: %s)",
        len(shards), len(pending), stats.skipped_shards, engine.name,
    )

    registry = meters.active()
    wall_start = time.perf_counter()
    for outcome in engine.submit_shards(
        pending, store=store, policy=policy, cache=cache
    ):
        if not outcome.ok:
            stats.failed_shards += 1
            stats.failures[outcome.label] = outcome.error or ""
            if store is not None:
                store.append_payload(
                    QUARANTINE_CHANNEL,
                    outcome.key,
                    {
                        "label": outcome.label,
                        "index": outcome.index,
                        "attempts": outcome.attempts,
                        "seconds": outcome.seconds,
                        "error": outcome.error or "",
                    },
                )
                stats.quarantined.append(outcome.label)
            if progress is not None:
                progress(f"FAILED {outcome.label}")
            continue
        stats.executed_shards += 1
        stats.cache_hits += outcome.cache_hits
        stats.cache_misses += outcome.cache_misses
        stats.executed_seconds += outcome.seconds
        if registry is not None:
            registry.histogram("campaign.shard_seconds").observe(outcome.seconds)
        _LOG.debug("shard done: %s (%.3fs)", outcome.label, outcome.seconds)
        results[outcome.key] = outcome.result
        if store is not None:
            store.append(
                outcome.key,
                outcome.result,
                workload=outcome.workload if archive_workloads else None,
            )
            if outcome.cache_entries:
                store.save_cache(cache)
        if progress is not None:
            progress(outcome.label)

    if registry is not None and stats.executed_shards:
        # worker utilisation: summed shard CPU seconds over the wall-clock
        # budget of the pool (1.0 = every worker busy the whole run)
        wall = time.perf_counter() - wall_start
        # the job count the executor ran with, resolved as submit_shards does
        ran = policy.jobs if policy.jobs is not None else engine.jobs
        workers = default_jobs() if ran is None else max(1, int(ran))
        if wall > 0.0:
            registry.gauge("campaign.worker_utilisation").set(
                stats.executed_seconds / (wall * workers)
            )
        registry.counter("campaign.shards_executed").inc(stats.executed_shards)
        registry.counter("campaign.shards_skipped").inc(stats.skipped_shards)
        if stats.failed_shards:
            registry.counter("campaign.shards_failed").inc(stats.failed_shards)

    if stats.failures:
        done = stats.executed_shards + stats.skipped_shards
        first_label, first_error = next(iter(stats.failures.items()))
        if store is None or not results:
            # without a store there is nowhere to quarantine, and a run
            # with zero surviving shards has nothing to aggregate
            raise CampaignError(
                f"{stats.failed_shards} shard(s) failed ({done}/{len(shards)} "
                f"completed{' and persisted' if store is not None else ''}); "
                f"first failure on {first_label}:\n{first_error}"
            )
        _LOG.warning(
            "quarantined %d shard(s); campaign completes over %d surviving shard(s)",
            stats.failed_shards, done,
        )
        if progress is not None:
            progress(
                f"quarantined {stats.failed_shards} shard(s) "
                f"(see the store's {QUARANTINE_CHANNEL!r} channel)"
            )

    if store is not None and stats.skipped_shards:
        # resumed shards were never deserialised on the way in (the
        # resume check is key-only); load them once for the aggregate
        stored = store.results_by_key()
        for key in completed:
            if key not in results and key in stored:
                results[key] = stored[key]

    experiments = [results[shard.key()] for shard in shards if shard.key() in results]
    result = CampaignResult(config=config, experiments=experiments)
    return CampaignRun(result=result, stats=stats)


def run_campaign_parallel(
    config: CampaignConfig,
    store: Optional[Union[CampaignStore, str]] = None,
    jobs: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    resume: bool = True,
    executor: Optional[Union[str, ProcessPoolExecutor]] = None,
) -> CampaignResult:
    """Parallel, persistent, resumable drop-in for ``run_campaign``.

    Same aggregates as the serial runner (bit-identical for a given
    *config*, whichever *executor* fans the shards out); see
    :func:`orchestrate` for the parameters and for access to the run
    statistics.
    """
    return orchestrate(
        config, store=store, jobs=jobs, progress=progress, resume=resume,
        executor=executor,
    ).result
