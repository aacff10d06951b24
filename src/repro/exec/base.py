"""The executor protocol: how campaigns fan shards out.

An *executor* is the pluggable engine behind
:func:`repro.campaigns.orchestrator.orchestrate`: it takes the pending
:class:`~repro.campaigns.shards.ExperimentShard` list and yields one
:class:`~repro.campaigns.pool.ShardOutcome` per shard, however it likes
-- inline, across a process pool, or across spool-fed worker processes
standing in for an ssh/queue cluster.  Executors are name-addressable
through the :data:`~repro.scenarios.registry.EXECUTORS` registry, the
same plugin axis pattern as allocators, mappers and platforms:

========================  =============================================
``process-pool``          :mod:`multiprocessing` fan-out (the default);
                          one job runs every shard inline
``serial``                alias of ``process-pool`` with one job
``local-cluster``         N worker *processes* over a spool directory
                          with durable work-stealing shard leases
========================  =============================================

The orchestrator is executor-agnostic: whatever the executor yields is
persisted, quarantined, metered and aggregated exactly as before, so
the golden guarantee of the campaign subsystem -- bit-identical
aggregates across executors, resumes and serial reruns -- holds by
construction as long as the executor runs every shard through
:func:`repro.campaigns.pool.execute_shard`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

try:  # pragma: no cover - typing fallback exercised only on old Pythons
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from repro.campaigns.cache import OwnMakespanCache
from repro.campaigns.pool import RetryPolicy, ShardOutcome
from repro.campaigns.shards import ExperimentShard
from repro.campaigns.store import CampaignStore


@dataclass(frozen=True)
class ExecutionPolicy:
    """Cross-executor knobs of one submission.

    Parameters
    ----------
    jobs:
        Parallelism: worker processes for ``process-pool`` and
        ``local-cluster``.  ``None`` lets the executor pick its own
        default (one job for the ``serial`` alias of ``process-pool``);
        a set value wins, so ``serial`` with ``jobs=4`` runs a pool of
        four.
    retry:
        Optional :class:`~repro.campaigns.pool.RetryPolicy`; every
        executor applies it *inside* the worker (capped exponential
        backoff before a shard is reported failed), so quarantine
        semantics are identical across executors.
    return_workload:
        Whether outcomes carry the generated PTGs (the orchestrator
        needs them only when it archives workloads).
    lease_timeout:
        Seconds without a heartbeat after which a lease counts as stale
        and its shard becomes stealable (lease-based executors only).
    heartbeat_interval:
        Seconds between heartbeat refreshes of a held lease; ``None``
        derives a safe default (a fifth of the timeout).
    poll_interval:
        Seconds the spool workers and the collector sleep between scans
        when there is nothing to do.
    max_lease_attempts:
        Ceiling on re-leases of one shard: a shard whose lease expired
        this many times is reported failed (and quarantined by the
        orchestrator) instead of being stolen forever.
    """

    jobs: Optional[int] = None
    retry: Optional[RetryPolicy] = None
    return_workload: bool = True
    lease_timeout: float = 5.0
    heartbeat_interval: Optional[float] = None
    poll_interval: float = 0.05
    max_lease_attempts: int = 5

    def __post_init__(self) -> None:
        """Validate the policy's field values."""
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {self.lease_timeout}")
        if self.heartbeat_interval is not None and self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {self.poll_interval}")
        if self.max_lease_attempts < 1:
            raise ValueError(
                f"max_lease_attempts must be at least 1, got {self.max_lease_attempts}"
            )

    def effective_heartbeat(self) -> float:
        """The heartbeat period: explicit, or a fifth of the lease timeout."""
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return self.lease_timeout / 5.0


#: The policy used when a caller passes none.
DEFAULT_POLICY = ExecutionPolicy()


@runtime_checkable
class Executor(Protocol):
    """What every executor implements (structural protocol)."""

    #: Registry name of the executor (``process-pool`` / ``local-cluster`` / ...).
    name: str

    def submit_shards(
        self,
        shards: Sequence[ExperimentShard],
        store: Optional[CampaignStore] = None,
        policy: Optional[ExecutionPolicy] = None,
        cache: Optional[OwnMakespanCache] = None,
    ) -> Iterator[ShardOutcome]:
        """Execute *shards*, yielding one outcome per shard.

        Implementations must run every shard through
        :func:`repro.campaigns.pool.execute_shard` (directly or in a
        worker) so results stay bit-identical across executors, must
        capture failures as error-carrying outcomes rather than raising,
        and must merge worker cache entries into *cache* as outcomes
        arrive.  Outcome order is *not* part of the contract -- the
        orchestrator reassembles campaign order from shard keys.
        """
        ...
