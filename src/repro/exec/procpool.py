"""The campaign executor: shards fan out across a process pool.

``process-pool`` wraps the campaign fan-out
(:func:`repro.campaigns.pool.run_shards`) behind the executor interface
of :func:`repro.campaigns.orchestrator.orchestrate`: a ``name`` and a
:meth:`~ProcessPoolExecutor.submit_shards` that yields one
:class:`~repro.campaigns.pool.ShardOutcome` per shard.  It has the
worker seeding, the cache snapshot/merge discipline and the ordered
``imap`` progress of :func:`~repro.campaigns.pool.run_shards`; one job
runs every shard inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.campaigns.cache import OwnMakespanCache
from repro.campaigns.pool import RetryPolicy, ShardOutcome, run_shards
from repro.campaigns.shards import ExperimentShard
from repro.campaigns.store import CampaignStore


@dataclass(frozen=True)
class ExecutionPolicy:
    """The knobs of one submission.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` lets the executor pick its own
        default (one job for the ``serial`` alias); a set value wins,
        so ``serial`` with ``jobs=4`` runs a pool of four.
    retry:
        Optional :class:`~repro.campaigns.pool.RetryPolicy`, applied
        *inside* the worker (capped exponential backoff before a shard
        is reported failed).
    return_workload:
        Whether outcomes carry the generated PTGs (the orchestrator
        needs them only when it archives workloads).
    """

    jobs: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    return_workload: bool = True


#: The policy used when a caller passes none.
DEFAULT_POLICY = ExecutionPolicy()


class ProcessPoolExecutor:
    """Fan shards out across a :mod:`multiprocessing` pool."""

    #: Registry name of the executor.
    name = "process-pool"

    def __init__(self, jobs: Optional[int] = None) -> None:
        """Create the executor with an optional default worker count."""
        self.jobs = jobs

    def submit_shards(
        self,
        shards: Sequence[ExperimentShard],
        store: Optional[CampaignStore] = None,
        policy: Optional[ExecutionPolicy] = None,
        cache: Optional[OwnMakespanCache] = None,
    ) -> Iterator[ShardOutcome]:
        """Yield one outcome per shard from the worker pool, in shard order.

        The policy's ``jobs`` wins over the constructor default;
        ``jobs=1`` degenerates to the inline path (no pool at all).
        Failures come back as error-carrying outcomes, and worker cache
        entries are merged into *cache* as outcomes arrive.

        *store* is unused: the orchestrator persists every outcome
        itself.  It stays in the signature because subclasses forward
        all four arguments (the campaign benchmark's recording pool
        does).
        """
        policy = DEFAULT_POLICY if policy is None else policy
        jobs = policy.jobs if policy.jobs is not None else self.jobs
        return run_shards(
            shards,
            jobs=jobs,
            cache=cache,
            return_workload=policy.return_workload,
            retry=policy.retry,
        )
