"""Multiprocessing fan-out of experiment shards.

:func:`run_shards` executes a list of
:class:`~repro.campaigns.shards.ExperimentShard` either inline
(``jobs=1``) or across a :class:`multiprocessing.Pool` of worker
processes, yielding one :class:`ShardOutcome` per shard *in shard
order* (``imap`` preserves submission order) so progress reporting and
result persistence stay deterministic regardless of which worker
finishes first.

Failures are captured, not propagated: a shard that raises returns a
:class:`ShardOutcome` carrying the formatted traceback, and the
remaining shards keep running.  A :class:`RetryPolicy` makes the worker
re-attempt a failing shard first -- capped exponential backoff with
deterministic, key-seeded jitter -- so transient crashes (a flaky
filesystem, an OOM-killed sibling) heal in place and only repeatedly
failing shards surface.  The orchestrator decides what to do with those
once every shard has had its chance (it quarantines them when it has a
store).

Workers are seeded with a snapshot of the own-makespan cache taken at
submission time and ship their fresh entries back in the outcome; the
orchestrator merges them so later submissions (and the persisted store)
benefit.  Entries computed concurrently by two workers are simply
computed twice -- correctness never depends on the cache.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.campaigns.cache import (
    OwnMakespanCache,
    compute_own_makespans_cached,
    platform_fingerprint,
)
from repro.campaigns.shards import ExperimentShard
from repro.constraints.registry import strategy
from repro.experiments.runner import (
    ExperimentResult,
    prime_experiment,
    run_experiment,
)
from repro.experiments.workload import make_workload
from repro.obs import trace
from repro.scenarios.run import build_pipeline, reference_allocator_for


@dataclass(frozen=True)
class RetryPolicy:
    """How a worker re-attempts a failing shard before giving up.

    Backoff before retry ``n`` (1-based) is capped exponential --
    ``min(max_delay, base_delay * 2**(n-1))`` -- scaled by a
    deterministic jitter in ``[0.5, 1.0]`` derived from ``seed``, the
    shard key and the attempt number, so concurrent workers retrying
    different shards spread out while replays of the same campaign
    back off identically.
    """

    attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the policy's field values."""
        if not isinstance(self.attempts, int) or self.attempts < 1:
            raise ValueError(f"attempts must be a positive integer, got {self.attempts!r}")
        if self.base_delay <= 0 or self.max_delay <= 0:
            raise ValueError("base_delay and max_delay must be positive")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay}) must not undercut "
                f"base_delay ({self.base_delay})"
            )

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry *attempt* (1-based) of shard *key*."""
        cap = min(self.max_delay, self.base_delay * 2 ** (attempt - 1))
        digest = hashlib.sha256(f"{self.seed}:{key}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return cap * (0.5 + 0.5 * unit)


@dataclass
class ShardOutcome:
    """What came back from executing one shard.

    Exactly one of :attr:`result` and :attr:`error` is set.  The PTGs
    generated for the shard ride along so the orchestrator can archive
    them without regenerating the workload.
    """

    key: str
    label: str
    index: int
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    workload: Optional[list] = None
    cache_entries: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    telemetry: Optional[Dict] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True when the shard executed to completion."""
        return self.error is None


def default_jobs() -> int:
    """Default worker count: one per available CPU."""
    return os.cpu_count() or 1


def execute_shard(
    shard: ExperimentShard,
    cache_entries: Optional[Mapping[str, float]] = None,
    return_workload: bool = True,
    retry: Optional[RetryPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ShardOutcome:
    """Execute one shard, re-attempting failures under *retry*.

    Without a policy the shard runs exactly once (the pre-hardening
    behaviour).  With one, a failing attempt sleeps the policy's
    backoff and re-runs, up to ``retry.attempts`` total attempts; the
    returned outcome's :attr:`ShardOutcome.attempts` records how many
    it took.  *sleep* is injectable so tests assert the backoff without
    waiting it out.
    """
    attempts = 1 if retry is None else retry.attempts
    outcome = _execute_shard_attempt(shard, cache_entries, return_workload)
    for attempt in range(1, attempts):
        if outcome.ok:
            break
        sleep(retry.delay(shard.key(), attempt))
        outcome = _execute_shard_attempt(shard, cache_entries, return_workload)
        outcome.attempts = attempt + 1
    return outcome


def _execute_shard_attempt(
    shard: ExperimentShard,
    cache_entries: Optional[Mapping[str, float]] = None,
    return_workload: bool = True,
) -> ShardOutcome:
    """Execute one shard from its self-describing fields, once.

    This is the pure worker function of the subsystem: the workload is
    regenerated from its seed, the strategies and the pipeline
    components are rebuilt from their registry names, and the result is
    a serialisable :class:`ExperimentResult` -- nothing depends on
    process state, so the same call runs inline or in a worker process.
    """
    start = time.perf_counter()
    with ExitStack() as stack:
        # The shard starts its own telemetry session only when the caller
        # has not installed one (inline runs under ``repro trace`` keep
        # the CLI session so the whole run lands in a single trace).
        session = None
        if shard.telemetry is not None and not obs.enabled():
            session = stack.enter_context(obs.capture(shard.telemetry))
        try:
            with trace.span("campaign.shard", shard=shard.label()):
                ptgs = make_workload(shard.spec)
                strategies = [
                    strategy(name, family=shard.spec.family, mu=shard.pipeline.mu)
                    for name in shard.strategy_names
                ]
                allocator, mapper = build_pipeline(shard.pipeline)
                reference = reference_allocator_for(shard.pipeline, allocator)
                # before the references allocate, so that their beta = 1
                # joins each graph's one pass
                prime_experiment(
                    ptgs, shard.platform, strategies, allocator,
                    reference=reference is not None,
                )
                cache = OwnMakespanCache(cache_entries)
                own = compute_own_makespans_cached(
                    ptgs, shard.platform, cache,
                    platform_fp=platform_fingerprint(shard.platform),
                    allocator=reference,
                )
                result = run_experiment(
                    ptgs,
                    shard.platform,
                    strategies,
                    workload_label=shard.spec.label(),
                    own_makespans=own,
                    allocator=allocator,
                    mapper=mapper,
                )
            return ShardOutcome(
                key=shard.key(),
                label=shard.label(),
                index=shard.index,
                result=result,
                workload=ptgs if return_workload else None,
                cache_entries=dict(cache.new_entries),
                cache_hits=cache.hits,
                cache_misses=cache.misses,
                seconds=time.perf_counter() - start,
                telemetry=(
                    session.summary(labels={"shard": shard.label(), "key": shard.key()})
                    if session is not None
                    else None
                ),
            )
        except Exception:
            return ShardOutcome(
                key=shard.key(),
                label=shard.label(),
                index=shard.index,
                error=traceback.format_exc(),
                seconds=time.perf_counter() - start,
            )


#: Per-worker state installed by :func:`_init_worker`.  The cache
#: snapshot is shipped once per worker process (through the pool
#: initializer) instead of once per shard, which matters when resuming
#: a large campaign with a warm cache.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    cache_entries: Dict[str, float],
    return_workload: bool,
    retry: Optional[RetryPolicy],
) -> None:
    """Pool initializer: install the shared cache snapshot in the worker."""
    _WORKER_STATE["cache_entries"] = cache_entries
    _WORKER_STATE["return_workload"] = return_workload
    _WORKER_STATE["retry"] = retry


def _worker(shard: ExperimentShard) -> ShardOutcome:
    """Pool entry point (module-level so it pickles)."""
    return execute_shard(
        shard,
        _WORKER_STATE.get("cache_entries"),
        return_workload=bool(_WORKER_STATE.get("return_workload", True)),
        retry=_WORKER_STATE.get("retry"),
    )


def run_shards(
    shards: Sequence[ExperimentShard],
    jobs: Optional[int] = None,
    cache: Optional[OwnMakespanCache] = None,
    return_workload: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> Iterator[ShardOutcome]:
    """Execute *shards*, yielding outcomes in shard order.

    Parameters
    ----------
    shards:
        The shards to run.
    jobs:
        Worker process count; ``None`` means one per CPU, ``1`` runs
        inline in the calling process (no multiprocessing at all, which
        also keeps single-job runs debuggable).
    cache:
        Own-makespan cache shared across shards.  Inline runs consult
        and update it between shards; parallel runs snapshot it at pool
        start and merge worker entries back as outcomes arrive.
    return_workload:
        Whether outcomes carry the generated PTGs.  Callers that will
        not archive workloads should pass ``False`` so workers skip
        pickling every graph back to the orchestrator.
    retry:
        Optional :class:`RetryPolicy`; failing shards are re-attempted
        in their worker (with backoff) before being reported failed.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    cache = cache if cache is not None else OwnMakespanCache()

    if jobs == 1 or len(shards) <= 1:
        for shard in shards:
            outcome = execute_shard(shard, cache.entries, return_workload, retry=retry)
            cache.merge(outcome.cache_entries)
            cache.hits += outcome.cache_hits
            cache.misses += outcome.cache_misses
            yield outcome
        return

    snapshot = dict(cache.entries)
    with multiprocessing.Pool(
        processes=jobs,
        initializer=_init_worker,
        initargs=(snapshot, return_workload, retry),
    ) as pool:
        for outcome in pool.imap(_worker, shards, chunksize=1):
            cache.merge(outcome.cache_entries)
            cache.hits += outcome.cache_hits
            cache.misses += outcome.cache_misses
            yield outcome
