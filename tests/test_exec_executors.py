"""Executor-equivalence and work-stealing tests for repro.exec.

The golden guarantee under test: the *same* campaign config produces
bit-identical aggregates and identical store keys whichever executor
fans the shards out -- serial, process-pool, or local-cluster with a
forced lease steal in the middle.
"""

import pytest

from repro import obs
from repro.campaigns.shards import make_shards
from repro.campaigns.store import CampaignStore
from repro.exceptions import ConfigurationError
from repro.exec import EXECUTORS
from repro.exec.base import DEFAULT_POLICY, ExecutionPolicy, Executor
from repro.exec.cluster import LocalClusterExecutor
from repro.exec.procpool import ProcessPoolExecutor
from repro.experiments.runner import CampaignConfig
from repro.obs import TelemetrySpec


TINY = CampaignConfig(ptg_counts=(2,), workloads_per_point=2, base_seed=3,
                      max_tasks=14)

#: A fast lease policy for the cluster tests: quick staleness detection,
#: quick polling, so a forced steal resolves in about a second.
FAST_LEASES = ExecutionPolicy(lease_timeout=1.0, heartbeat_interval=0.2,
                              poll_interval=0.05)


@pytest.fixture(scope="module")
def tiny_shards():
    return make_shards(TINY)


@pytest.fixture(scope="module")
def serial_outcomes(tiny_shards):
    return {o.key: o for o in EXECUTORS.create("serial").submit_shards(tiny_shards)}


class TestRegistry:
    def test_executors_are_registered(self):
        assert EXECUTORS.names() == ["serial", "process-pool", "local-cluster"]

    def test_create_builds_instances(self):
        serial = EXECUTORS.create("serial")
        assert isinstance(serial, ProcessPoolExecutor) and serial.jobs == 1
        assert isinstance(EXECUTORS.create("process-pool"), ProcessPoolExecutor)
        assert isinstance(EXECUTORS.create("LOCAL-CLUSTER"), LocalClusterExecutor)

    def test_every_executor_satisfies_the_protocol(self):
        for name in EXECUTORS.names():
            assert isinstance(EXECUTORS.create(name), Executor)

    def test_unknown_executor_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            EXECUTORS.create("slurm")


class TestExecutionPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.jobs is None
        assert DEFAULT_POLICY.lease_timeout == 5.0
        assert DEFAULT_POLICY.max_lease_attempts == 5

    def test_effective_heartbeat_defaults_to_a_fifth_of_the_timeout(self):
        assert ExecutionPolicy(lease_timeout=10.0).effective_heartbeat() == 2.0
        assert ExecutionPolicy(heartbeat_interval=0.5).effective_heartbeat() == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"lease_timeout": 0.0},
        {"heartbeat_interval": -1.0},
        {"poll_interval": 0.0},
        {"max_lease_attempts": 0},
    ])
    def test_invalid_values_are_refused(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)


class TestProcessPoolEquivalence:
    def test_bit_identical_to_serial(self, tiny_shards, serial_outcomes):
        pooled = {
            o.key: o
            for o in ProcessPoolExecutor(jobs=2).submit_shards(tiny_shards)
        }
        assert set(pooled) == set(serial_outcomes)
        for key, outcome in pooled.items():
            assert outcome.ok
            assert outcome.result == serial_outcomes[key].result

    def test_policy_jobs_override_constructor_jobs(self, tiny_shards):
        executor = ProcessPoolExecutor(jobs=64)
        outcomes = list(executor.submit_shards(
            tiny_shards[:1], policy=ExecutionPolicy(jobs=1)
        ))
        assert len(outcomes) == 1 and outcomes[0].ok


class TestSerialAlias:
    """``serial`` builds a process pool whose default is one inline job."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        import repro.exec.procpool as procpool

        seen = []
        real = procpool.run_shards

        def recording(shards, jobs=None, **kwargs):
            seen.append(jobs)
            return real(shards, jobs=jobs, **kwargs)

        monkeypatch.setattr(procpool, "run_shards", recording)
        return seen

    def test_runs_one_job_in_submission_order(self, tiny_shards, pool_sizes):
        outcomes = list(EXECUTORS.create("serial").submit_shards(tiny_shards))
        assert pool_sizes == [1]
        assert [o.key for o in outcomes] == [s.key() for s in tiny_shards]

    def test_policy_jobs_fan_the_alias_out(
        self, tiny_shards, serial_outcomes, pool_sizes
    ):
        pooled = list(EXECUTORS.create("serial").submit_shards(
            tiny_shards, policy=ExecutionPolicy(jobs=2)
        ))
        assert pool_sizes == [2]
        for outcome in pooled:
            assert outcome.ok
            assert outcome.result == serial_outcomes[outcome.key].result

    def test_later_shards_reuse_the_cache(self, tiny_shards, serial_outcomes):
        from repro.campaigns.cache import OwnMakespanCache

        alias = EXECUTORS.create("serial")
        cache = OwnMakespanCache()
        list(alias.submit_shards(tiny_shards, cache=cache))
        assert cache.entries
        misses = cache.misses
        again = list(alias.submit_shards(tiny_shards, cache=cache))
        assert cache.misses == misses and cache.hits > 0
        assert [o.result for o in again] == [
            serial_outcomes[s.key()].result for s in tiny_shards
        ]


class TestLocalClusterEquivalence:
    def test_bit_identical_to_serial(self, tiny_shards, serial_outcomes):
        clustered = {
            o.key: o
            for o in LocalClusterExecutor(workers=2).submit_shards(
                tiny_shards, policy=FAST_LEASES
            )
        }
        assert set(clustered) == set(serial_outcomes)
        for key, outcome in clustered.items():
            assert outcome.ok, outcome.error
            assert outcome.result == serial_outcomes[key].result

    def test_spool_is_removed_after_the_run(self, tiny_shards, tmp_path):
        spool = tmp_path / "spool"
        executor = LocalClusterExecutor(workers=1, spool=str(spool))
        list(executor.submit_shards(tiny_shards[:1], policy=FAST_LEASES))
        assert not spool.exists()

    def test_empty_submission_spawns_nothing(self):
        executor = LocalClusterExecutor(workers=2)
        assert list(executor.submit_shards([])) == []
        assert executor.processes == []


class TestWorkStealing:
    def test_killed_worker_loses_its_shard_to_a_survivor(
        self, tiny_shards, serial_outcomes, tmp_path
    ):
        """Kill one worker after its first lease: zero lost shards.

        Fault injection makes the race deterministic: whichever worker
        w0 is, it dies (``os._exit``) immediately after *first*
        acquiring a lease, so exactly that shard must be stolen by a
        surviving worker once the heartbeat goes stale.
        """
        executor = LocalClusterExecutor(
            workers=2, faults={"w0": {"die_after_lease": "*"}}
        )
        store = CampaignStore(tmp_path / "store")
        with obs.capture(TelemetrySpec(metrics=True)) as session:
            outcomes = {
                o.key: o for o in executor.submit_shards(
                    tiny_shards, store=store, policy=FAST_LEASES
                )
            }
        # zero lost shards, bit-identical results
        assert set(outcomes) == set(serial_outcomes)
        for key, outcome in outcomes.items():
            assert outcome.ok, outcome.error
            assert outcome.result == serial_outcomes[key].result
        # the dead worker's shard was stolen, and the meters saw it
        counters = session.registry.snapshot()["counters"]
        assert counters.get("exec.steals", 0) >= 1
        assert counters.get("exec.lease_expiries", 0) >= 1
        # per-worker shard counters: only the survivor(s) completed work
        per_worker = {
            name: value for name, value in counters.items()
            if name.startswith("exec.worker.")
        }
        assert sum(per_worker.values()) == len(tiny_shards)
        assert per_worker.get("exec.worker.w0.shards", 0) == 0
        # leases were all released once the campaign completed
        assert list((store.root / "leases").glob("*.lease")) == []

    def test_all_workers_dead_falls_back_inline(self, tiny_shards):
        """Every worker dies: the collector finishes the shards itself."""
        executor = LocalClusterExecutor(
            workers=2, faults={"*": {"die_after_lease": "*"}}
        )
        with obs.capture(TelemetrySpec(metrics=True)) as session:
            outcomes = {
                o.key: o
                for o in executor.submit_shards(tiny_shards, policy=FAST_LEASES)
            }
        assert len(outcomes) == len(tiny_shards)
        assert all(o.ok for o in outcomes.values())
        counters = session.registry.snapshot()["counters"]
        assert counters.get("exec.inline_fallback", 0) >= 1

    def test_stalled_worker_is_stolen_from(self, tiny_shards, serial_outcomes):
        """A stalling (not dead) worker misses heartbeats and is robbed.

        The stolen shard may eventually be written twice -- once by the
        thief, once by the late owner -- which must stay harmless
        because shard execution is deterministic.
        """
        executor = LocalClusterExecutor(
            workers=2,
            faults={"w0": {"stall_after_lease": "*", "stall_seconds": 4.0}},
        )
        outcomes = {
            o.key: o
            for o in executor.submit_shards(tiny_shards, policy=FAST_LEASES)
        }
        assert set(outcomes) == set(serial_outcomes)
        for key, outcome in outcomes.items():
            assert outcome.ok, outcome.error
            assert outcome.result == serial_outcomes[key].result
