"""Executor-equivalence tests for repro.exec.

The golden guarantee under test: the *same* campaign config produces
bit-identical aggregates and identical store keys whichever executor
name fans the shards out -- ``serial`` or ``process-pool`` -- and
however many jobs it runs.
"""

import dataclasses

import pytest

from repro.campaigns.cache import OwnMakespanCache
from repro.campaigns.pool import RetryPolicy
from repro.campaigns.shards import make_shards
from repro.campaigns.store import CampaignStore
from repro.exceptions import ConfigurationError
from repro.exec import EXECUTORS
from repro.exec.procpool import DEFAULT_POLICY, ExecutionPolicy, ProcessPoolExecutor
from repro.experiments.runner import CampaignConfig


TINY = CampaignConfig(ptg_counts=(2,), workloads_per_point=2, base_seed=3,
                      max_tasks=14)


@pytest.fixture(scope="module")
def tiny_shards():
    return make_shards(TINY)


@pytest.fixture(scope="module")
def serial_outcomes(tiny_shards):
    return {o.key: o for o in EXECUTORS.create("serial").submit_shards(tiny_shards)}


@pytest.fixture
def run_shards_calls(monkeypatch):
    """Record the arguments the executor hands to ``run_shards``."""
    import repro.exec.procpool as procpool

    calls = []
    real = procpool.run_shards

    def recording(shards, jobs=None, **kwargs):
        calls.append(dict(kwargs, jobs=jobs))
        return real(shards, jobs=jobs, **kwargs)

    monkeypatch.setattr(procpool, "run_shards", recording)
    return calls


@pytest.fixture
def pools_started(monkeypatch):
    """Record the size of every ``multiprocessing.Pool`` the fan-out starts."""
    import repro.campaigns.pool as pool

    sizes = []
    real = pool.multiprocessing.Pool

    def recording(processes=None, *args, **kwargs):
        sizes.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(pool.multiprocessing, "Pool", recording)
    return sizes


class TestRegistry:
    def test_executors_are_registered(self):
        assert EXECUTORS.names() == ["serial", "process-pool"]

    def test_create_builds_instances(self):
        serial = EXECUTORS.create("serial")
        assert isinstance(serial, ProcessPoolExecutor) and serial.jobs == 1
        assert isinstance(EXECUTORS.create("process-pool"), ProcessPoolExecutor)

    def test_unknown_executor_is_refused(self):
        for name in ("slurm", "local-cluster"):
            with pytest.raises(ConfigurationError, match="unknown executor") as caught:
                EXECUTORS.create(name)
            assert "['serial', 'process-pool']" in str(caught.value)

    @pytest.mark.parametrize("name", ["serial", "process-pool"])
    def test_create_forwards_the_job_count(self, name):
        executor = EXECUTORS.create(name, jobs=3)
        assert type(executor) is ProcessPoolExecutor
        assert executor.name == "process-pool"
        assert executor.jobs == 3


class TestExecutionPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.jobs is None

    def test_default_policy_ships_workloads_without_retry(self):
        assert DEFAULT_POLICY.retry is None
        assert DEFAULT_POLICY.return_workload is True

    def test_holds_exactly_the_three_submission_fields(self):
        names = [f.name for f in dataclasses.fields(ExecutionPolicy)]
        assert names == ["jobs", "retry", "return_workload"]

    def test_is_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_POLICY.jobs = 4


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

    @pytest.mark.parametrize("family", ["random", "fft", "strassen", "mixed"])
    def test_every_family_is_bit_identical(self, family):
        shards = make_shards(CampaignConfig(
            family=family, ptg_counts=(2,), workloads_per_point=1, base_seed=3,
            max_tasks=14,
        ))
        inline = [o.result for o in EXECUTORS.create("serial").submit_shards(shards)]
        pooled = list(ProcessPoolExecutor(jobs=2).submit_shards(shards))
        assert all(o.ok for o in pooled)
        assert [o.result for o in pooled] == inline


class TestSubmitShards:
    """What ``submit_shards`` hands to ``run_shards`` and what comes back."""

    @pytest.mark.parametrize("constructor_jobs, policy_jobs, expected", [
        (None, None, None),
        (None, 2, 2),
        (3, None, 3),
        (3, 1, 1),
        (1, None, 1),
        (1, 4, 4),
    ])
    def test_job_count_resolution(
        self, run_shards_calls, constructor_jobs, policy_jobs, expected
    ):
        """A policy's ``jobs`` wins; ``None`` falls back to the constructor's."""
        executor = ProcessPoolExecutor(jobs=constructor_jobs)
        assert list(executor.submit_shards(
            [], policy=ExecutionPolicy(jobs=policy_jobs)
        )) == []
        assert [call["jobs"] for call in run_shards_calls] == [expected]

    @pytest.mark.parametrize("policy", [
        None,
        ExecutionPolicy(retry=RetryPolicy(attempts=2)),
        ExecutionPolicy(return_workload=False),
    ], ids=["default", "retry", "no-workload"])
    def test_policy_and_cache_are_forwarded(self, run_shards_calls, policy):
        cache = OwnMakespanCache()
        list(ProcessPoolExecutor(jobs=1).submit_shards([], policy=policy, cache=cache))
        expected = DEFAULT_POLICY if policy is None else policy
        (call,) = run_shards_calls
        assert call["cache"] is cache
        assert call["retry"] is expected.retry
        assert call["return_workload"] is expected.return_workload

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_empty_submission_starts_no_pool(self, pools_started, jobs):
        assert list(ProcessPoolExecutor(jobs=jobs).submit_shards([])) == []
        assert pools_started == []

    @pytest.mark.parametrize("jobs", [2, 8])
    def test_a_single_shard_runs_inline(
        self, tiny_shards, serial_outcomes, pools_started, jobs
    ):
        (outcome,) = ProcessPoolExecutor(jobs=jobs).submit_shards(tiny_shards[:1])
        assert pools_started == []
        assert outcome.result == serial_outcomes[outcome.key].result

    def test_several_shards_start_one_pool_of_the_resolved_size(
        self, tiny_shards, pools_started
    ):
        list(ProcessPoolExecutor(jobs=2).submit_shards(tiny_shards[:3]))
        assert pools_started == [2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_store_is_left_to_the_caller(self, tiny_shards, tmp_path, jobs):
        """Nothing is persisted: ``orchestrate`` appends every outcome itself."""
        store = CampaignStore(tmp_path / "store")
        outcomes = list(ProcessPoolExecutor(jobs=jobs).submit_shards(
            tiny_shards[:2], store=store
        ))
        assert all(o.ok for o in outcomes)
        assert store.completed_keys() == set()
        assert store.read_meta() is None

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("return_workload", [True, False])
    def test_outcomes_carry_workloads_only_on_request(
        self, tiny_shards, jobs, return_workload
    ):
        shards = tiny_shards[:2]
        outcomes = list(ProcessPoolExecutor(jobs=jobs).submit_shards(
            shards, policy=ExecutionPolicy(return_workload=return_workload)
        ))
        for shard, outcome in zip(shards, outcomes):
            if return_workload:
                assert len(outcome.workload) == shard.spec.n_ptgs
            else:
                assert outcome.workload is None

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_pooled_outcomes_arrive_in_submission_order(
        self, tiny_shards, serial_outcomes, jobs
    ):
        outcomes = list(ProcessPoolExecutor(jobs=jobs).submit_shards(tiny_shards))
        assert [o.key for o in outcomes] == [s.key() for s in tiny_shards]
        assert [o.index for o in outcomes] == [s.index for s in tiny_shards]
        assert [o.result for o in outcomes] == [
            serial_outcomes[s.key()].result for s in tiny_shards
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failing_shard_comes_back_as_an_error(
        self, tiny_shards, serial_outcomes, monkeypatch, jobs
    ):
        """The failure is captured in its outcome; the other shards complete."""
        from repro.campaigns import pool

        doomed = tiny_shards[1].key()
        original = pool.run_experiment

        def failing(ptgs, platform, *args, **kwargs):
            if platform.name == tiny_shards[1].platform.name:
                raise RuntimeError("shard crashed")
            return original(ptgs, platform, *args, **kwargs)

        monkeypatch.setattr(pool, "run_experiment", failing)
        outcomes = list(ProcessPoolExecutor(jobs=jobs).submit_shards(tiny_shards[:3]))
        assert [o.key for o in outcomes] == [s.key() for s in tiny_shards[:3]]
        for outcome in outcomes:
            if outcome.key == doomed:
                assert outcome.result is None
                assert "shard crashed" in outcome.error
            else:
                assert outcome.result == serial_outcomes[outcome.key].result

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_retry_policy_heals_in_the_worker(
        self, tiny_shards, serial_outcomes, monkeypatch, jobs
    ):
        """Each process's first experiment crashes once; the retry heals it."""
        from repro.campaigns import pool

        original = pool.run_experiment
        calls = {"n": 0}

        def flaky_once(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient crash")
            return original(*args, **kwargs)

        monkeypatch.setattr(pool, "run_experiment", flaky_once)
        retry = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.01)
        shards = tiny_shards[:4]
        outcomes = list(ProcessPoolExecutor(jobs=jobs).submit_shards(
            shards, policy=ExecutionPolicy(retry=retry)
        ))
        assert [o.result for o in outcomes] == [
            serial_outcomes[s.key()].result for s in shards
        ]
        # the first shard is the first experiment of whichever process runs it
        assert outcomes[0].attempts == 2
        assert 1 <= sum(o.attempts == 2 for o in outcomes) <= jobs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_cache_entries_are_merged(self, tiny_shards, jobs):
        cache = OwnMakespanCache()
        outcomes = list(ProcessPoolExecutor(jobs=jobs).submit_shards(
            tiny_shards, cache=cache
        ))
        fresh = {}
        for outcome in outcomes:
            fresh.update(outcome.cache_entries)
        assert fresh and cache.entries == fresh
        assert cache.misses == sum(o.cache_misses for o in outcomes)
        assert cache.hits == sum(o.cache_hits for o in outcomes)

    def test_a_warm_cache_reaches_the_pool_workers(self, tiny_shards):
        cache = OwnMakespanCache()
        list(ProcessPoolExecutor(jobs=1).submit_shards(tiny_shards, cache=cache))
        entries, misses = dict(cache.entries), cache.misses
        outcomes = list(ProcessPoolExecutor(jobs=2).submit_shards(
            tiny_shards, cache=cache
        ))
        assert all(o.cache_misses == 0 and o.cache_hits > 0 for o in outcomes)
        assert cache.misses == misses and cache.entries == entries


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

