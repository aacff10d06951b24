"""The campaign executor.

``repro.exec`` is the execution axis of the campaign subsystem: the
:func:`~repro.campaigns.orchestrator.orchestrate` loop hands its pending
shards to a :class:`~repro.exec.procpool.ProcessPoolExecutor` and
consumes the resulting :class:`~repro.campaigns.pool.ShardOutcome`
stream.  The executor is name-addressable through the
:data:`~repro.scenarios.registry.EXECUTORS` registry under two names:

* ``process-pool`` -- the :mod:`multiprocessing` fan-out of
  :func:`repro.campaigns.pool.run_shards`, the default;
* ``serial`` -- an alias that builds the same executor with one job,
  which runs every shard inline.

Every shard runs through :func:`repro.campaigns.pool.execute_shard`, so
campaign aggregates are bit-identical whichever name is chosen and
however many jobs run.
"""

from repro.exec.procpool import DEFAULT_POLICY, ExecutionPolicy, ProcessPoolExecutor
from repro.scenarios.registry import EXECUTORS

__all__ = [
    "DEFAULT_POLICY",
    "EXECUTORS",
    "ExecutionPolicy",
    "ProcessPoolExecutor",
]
