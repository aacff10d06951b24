"""Pluggable distributed executors for campaign shards.

``repro.exec`` is the execution axis of the campaign subsystem: the
:func:`~repro.campaigns.orchestrator.orchestrate` loop hands its pending
shards to an :class:`~repro.exec.base.Executor` and consumes the
resulting :class:`~repro.campaigns.pool.ShardOutcome` stream without
caring how (or where) the shards actually ran.  Two executors ship
built in, name-addressable through the
:data:`~repro.scenarios.registry.EXECUTORS` registry:

* ``process-pool`` (:mod:`repro.exec.procpool`) -- the original
  :mod:`multiprocessing` fan-out, the default; ``jobs=1`` runs every
  shard inline, and the registry name ``serial`` is an alias that
  builds exactly that;
* ``local-cluster`` (:mod:`repro.exec.cluster`) -- N independent worker
  *processes* over a spool directory with durable work-stealing shard
  leases (:mod:`repro.exec.leases`, :mod:`repro.exec.worker`), the
  local stand-in for an ssh/queue-backed cluster.

Both run every shard through
:func:`repro.campaigns.pool.execute_shard`, so campaign aggregates are
bit-identical whichever executor produced them.
"""

from repro.exec.base import DEFAULT_POLICY, ExecutionPolicy, Executor
from repro.exec.cluster import LocalClusterExecutor
from repro.exec.leases import Lease, LeaseBoard
from repro.exec.procpool import ProcessPoolExecutor
from repro.scenarios.registry import EXECUTORS

__all__ = [
    "DEFAULT_POLICY",
    "EXECUTORS",
    "ExecutionPolicy",
    "Executor",
    "Lease",
    "LeaseBoard",
    "LocalClusterExecutor",
    "ProcessPoolExecutor",
]
