"""``campaign-fig3``: the Figure 3 campaign through ``orchestrate``.

Random PTGs capped at 20 tasks (bench scale), the eight strategies of the
random family, PTG counts 2-10 and the four Grid'5000 sites, run by the
default process-pool executor with one worker per CPU into a fresh store,
then aggregated.  It is the only workload that runs the simulator, the
own-makespan references, the batch ``ConcurrentScheduler``, store appends
and the executor.  An operation is one shard (one workload on one
platform under every strategy); its latency is the shard's own run time,
as the worker measured it.

A run is :data:`CAMPAIGNS` such campaigns, one after the other, each with
its own workload seeds, store and pool.  A campaign runs its shards in
PTG-count order, so its largest shards, which set the latency p90, all
run in its last few seconds; three campaigns put them in three places
of the run instead of one, and the p90 samples more of the host's speed
drift than one window would.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from perfbench import common, tracing

PTG_COUNTS = (2, 4, 6, 8, 10)
MAX_TASKS = 20
#: Campaigns per run.
CAMPAIGNS = 3
#: Workloads per PTG count of each campaign per requested second: three
#: at ``--seconds 20`` (3 x 60 = 180 shards) leave eighteen shards beyond
#: the latency p90.
WORKLOADS_PER_SECOND = 0.15
SETUP_PROBES = 9


@dataclass
class Ready:
    """Everything the timed phase needs, built during set-up: per campaign,
    its configuration, its shards and its store."""

    configs: list
    shards: list
    stores: list


def workloads_per_point(seconds: int) -> int:
    """Workloads per PTG count of one campaign (fixed by the duration)."""
    return max(1, round(seconds * WORKLOADS_PER_SECOND))


def setup(workload: str, seed: int, seconds: int, workdir=None, campaigns=CAMPAIGNS) -> Ready:
    """Cold set-up: imports, platforms, every campaign's shards, fresh stores.

    The process pools start inside ``orchestrate``, so their start-up is
    part of the timed phase, where the program pays it.  Campaign ``i``
    draws its workloads from base seed ``100 * seed + 10 * i``, so no two
    campaigns of a run share a workload.
    """
    # orchestrate is imported here so that its import cost is set-up time
    from repro.campaigns import CampaignStore, make_shards, orchestrate  # noqa: F401
    from repro.experiments.runner import CampaignConfig
    from repro.platform import grid5000

    configs = [
        CampaignConfig(
            family="random",
            ptg_counts=PTG_COUNTS,
            workloads_per_point=workloads_per_point(seconds),
            platforms=tuple(grid5000.all_sites()),
            base_seed=100 * seed + 10 * index,
            max_tasks=MAX_TASKS,
        )
        for index in range(campaigns)
    ]
    stores = [
        CampaignStore(workdir / f"store-{index}") if workdir is not None else None
        for index in range(campaigns)
    ]
    return Ready(configs, [make_shards(config) for config in configs], stores)


def recording_pool(jobs: int, waits=None):
    """The default process-pool executor, keeping each outcome's ``seconds``.

    The shard times are measured by the workers themselves; this executor
    only copies them out of the outcomes as they pass.  With *waits* it
    also records how long the orchestrator waited for each outcome
    (traced runs only).
    """
    from repro.exec.procpool import ProcessPoolExecutor

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self) -> None:
            super().__init__(jobs)
            self.seconds = []

        def submit_shards(self, shards, store=None, policy=None, cache=None):
            outcomes = super().submit_shards(shards, store=store, policy=policy, cache=cache)
            while True:
                tic = time.perf_counter()
                outcome = next(outcomes, None)
                if waits is not None:
                    waits.append(time.perf_counter() - tic)
                if outcome is None:
                    return
                self.seconds.append(outcome.seconds)
                yield outcome

    return RecordingPool()


def aggregates(result) -> dict:
    """The paper aggregates of an in-memory campaign result."""
    return {
        "experiments": len(result.experiments),
        "average_unfairness": result.average_unfairness(),
        "average_relative_makespan": result.average_relative_makespan(),
        "average_mean_application_makespan": result.average_mean_application_makespan(),
    }


def check(outcome: common.Outcome, shards: list, store, run, summary: dict, recorder=None):
    """Output checks of one orchestrated campaign."""
    from repro.campaigns.aggregate import summarize_store
    from repro.validate import validate_experiment_metrics

    stats = run.stats
    total = len(shards)
    outcome.attempted += total
    outcome.failed += total - stats.executed_shards
    outcome.check(not stats.quarantined, f"quarantined shards: {stats.quarantined[:3]}")
    outcome.check(
        len(run.result.experiments) == total,
        f"{len(run.result.experiments)} of {total} experiments in the result",
    )
    stored = summarize_store(store)
    outcome.check(
        all(stored[name] == value for name, value in summary.items()),
        "aggregates read back from the store differ from the in-memory ones",
    )
    validate = validate_experiment_metrics
    if recorder is not None:
        validate = recorder.wrap("validate", validate_experiment_metrics)
    invalid = [exp.workload for exp in run.result.experiments if not validate(exp).ok]
    outcome.failed += len(invalid)
    outcome.check(not invalid, f"metric validation failed for {invalid[:3]}")


def note_digest(outcome: common.Outcome, summaries: list, key: str = "digest") -> None:
    """Note the aggregates' digest under *key*; a later pass noted under the
    same key must reproduce it."""
    campaign_digest = common.digest(summaries)
    previous = outcome.notes.setdefault(key, campaign_digest)
    outcome.check(previous == campaign_digest, "a traced pass produced other aggregates")


def run(workload: str, seed: int, seconds: int, trace: bool) -> common.Outcome:
    """One benchmark run of the campaigns."""
    from repro.campaigns import orchestrate

    outcome = common.Outcome()
    workdir = common.work_dir(workload)
    jobs = os.cpu_count() or 1
    try:
        ready = setup(workload, seed, seconds, workdir)
        waits = [] if trace else None
        pool = recording_pool(jobs, waits)
        campaigns, summaries = [], []
        wall = 0.0
        for config, store in zip(ready.configs, ready.stores):
            gc.collect()
            start = time.perf_counter()
            campaign = orchestrate(config, store=store, jobs=jobs, executor=pool)
            summary = aggregates(campaign.result)
            wall += time.perf_counter() - start
            campaigns.append(campaign)
            summaries.append(summary)
        peak_rss = common.rss_mb() + jobs * common.rss_mb(resource.RUSAGE_CHILDREN)
        for shards, store, campaign, summary in zip(
            ready.shards, ready.stores, campaigns, summaries
        ):
            check(outcome, shards, store, campaign, summary)
        note_digest(outcome, summaries)
        shards = sum(len(part) for part in ready.shards)
        outcome.notes["operations"] = (
            f"{shards} shards in {len(campaigns)} campaigns on {jobs} workers"
        )
        if not trace:
            outcome.metrics.update(common.latency_metrics(pool.seconds))
            outcome.metrics["throughput_per_s"] = shards / wall
            outcome.metrics["app_makespan_s"] = statistics.mean(
                strategy.mean_application_makespan
                for campaign in campaigns
                for experiment in campaign.result.experiments
                for strategy in experiment.outcomes.values()
            )
            outcome.metrics["peak_rss_mb"] = peak_rss
            samples = common.median_setup(
                lambda: common.probe_cold_start(workload, seed, seconds), SETUP_PROBES
            )
            outcome.metrics["setup_s"] = statistics.median(samples)
            outcome.notes["setup samples (s)"] = [round(s, 4) for s in samples]
            return outcome

        # The pool pass above gives the executor's metrics.  The layers are
        # traced inline on the first campaign, which runs inline untraced
        # first: pool shards share the host and run slower, so only an
        # inline pass is a fair base for the overhead.
        metrics = {
            "exec.wait_ms": 1000.0 * sum(waits) / shards,
            "exec.utilisation": sum(pool.seconds) / (wall * jobs),
            "campaigns.cache_hit_ratio": statistics.mean(
                campaign.stats.cache_hit_rate for campaign in campaigns
            ),
        }
        del campaigns
        untraced = inline_pass(outcome, workload, seed, seconds, workdir / "inline")
        recorder = tracing.Recorder()
        traced = inline_pass(outcome, workload, seed, seconds, workdir / "traced", recorder)
        metrics.update(traced)
        metrics["bench.trace_overhead"] = untraced["shard seconds"] / traced["shard seconds"]
        del metrics["shard seconds"]
        outcome.metrics.update(tracing.with_absent_layers(metrics))
        recorder.dump(common.WORK / f"spans-{workload}.jsonl")
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def inline_pass(outcome, workload: str, seed: int, seconds: int, workdir, recorder=None) -> dict:
    """Run the first campaign inline (``jobs=1``).

    With a *recorder* every layer is wrapped (forked pool workers could
    not hand their span totals back, hence inline) and the per-layer
    metrics are returned; either way ``shard seconds`` is the mean shard
    time.
    """
    from repro.campaigns import orchestrate
    from repro.campaigns.aggregate import summarize_store

    ready = setup(workload, seed, seconds, workdir, campaigns=1)
    (config,), (shard_list,), (store,) = ready.configs, ready.shards, ready.stores
    with tracing.Patches() as patches:
        if recorder is not None:
            install(recorder, patches, type(store))
            span = recorder.operation(0)
        gc.collect()
        campaign = orchestrate(config, store=store, jobs=1)
        if recorder is not None:
            recorder.close(span)
    tic = time.perf_counter()
    summary = aggregates(campaign.result)
    summarize_store(store.root)
    aggregate_seconds = time.perf_counter() - tic
    check(outcome, shard_list, store, campaign, summary, recorder=recorder)
    note_digest(outcome, [summary], key="inline digest")
    shards = len(shard_list)
    metrics = {"shard seconds": campaign.stats.executed_seconds / shards}
    if recorder is not None:
        metrics.update(tracing.layer_metrics(recorder.summary(), shards))
        metrics["campaigns.aggregate_ms"] = 1000.0 * aggregate_seconds / shards
        metrics["campaigns.store_bytes"] = (
            sum(path.stat().st_size for path in store.root.rglob("*") if path.is_file())
            / shards
        )
    return metrics


def install(recorder: tracing.Recorder, patches: tracing.Patches, store_class) -> None:
    """Wrap every layer a shard and the orchestrator call into."""
    from repro.campaigns import cache as cache_module
    from repro.campaigns import pool as pool_module
    from repro.experiments import runner
    from repro.mapping import ready_list
    from repro.scheduler import concurrent

    make_strategy = pool_module.strategy
    build_pipeline = pool_module.build_pipeline
    placement_engine = ready_list.PlacementEngine

    def traced_strategy(*args, **kwargs):
        return tracing.TracedStrategy(make_strategy(*args, **kwargs), recorder)

    def traced_pipeline(pipeline):
        allocator, mapper = build_pipeline(pipeline)
        return (
            tracing.TracedAllocator(allocator, recorder),
            tracing.TracedMapper(mapper, recorder),
        )

    def traced_engine(*args, **kwargs):
        engine = placement_engine(*args, **kwargs)
        tracing.instrument_engine(engine, recorder)
        return engine

    class TracedScheduler(runner.ConcurrentScheduler):
        schedule = recorder.wrap("scheduler.schedule", runner.ConcurrentScheduler.schedule)

    class TracedExecutor(runner.ScheduleExecutor):
        execute = recorder.wrap("simulate", runner.ScheduleExecutor.execute)

    patches.set(pool_module, "strategy", traced_strategy)
    patches.set(pool_module, "build_pipeline", traced_pipeline)
    patches.wrap(recorder, pool_module, "make_workload", "dag.generate")
    patches.wrap(recorder, pool_module, "compute_own_makespans_cached", "scheduler.own")
    patches.wrap(recorder, pool_module, "run_experiment", "experiments")
    patches.set(runner, "ConcurrentScheduler", TracedScheduler)
    patches.set(runner, "ScheduleExecutor", TracedExecutor)
    patches.set(cache_module, "ScheduleExecutor", TracedExecutor)
    patches.set(ready_list, "PlacementEngine", traced_engine)
    patches.wrap(recorder, concurrent, "compile_arrays_batch", "dag.compile")
    patches.wrap(recorder, concurrent, "prepare_allocation_tables", "dag.compile")
    for method in ("append", "append_payload", "save_cache"):
        patches.wrap(recorder, store_class, method, "campaigns.store")
