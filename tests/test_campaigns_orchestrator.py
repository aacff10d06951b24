"""Tests for the campaign orchestrator: parallel fan-out, persistence, resume."""

import os

import pytest

from repro import obs
from repro.campaigns.orchestrator import orchestrate, run_campaign_parallel
from repro.campaigns.pool import RetryPolicy, execute_shard, run_shards
from repro.campaigns.shards import ExperimentShard, make_shards
from repro.campaigns.store import CampaignStore
from repro.exceptions import CampaignError, ConfigurationError
from repro.exec.procpool import ExecutionPolicy, ProcessPoolExecutor
from repro.experiments.runner import CampaignConfig, run_campaign
from repro.experiments.workload import WorkloadSpec
from repro.obs import TelemetrySpec
from repro.platform.builder import heterogeneous_platform


@pytest.fixture(scope="module")
def platform():
    return heterogeneous_platform((10, 14), (3.0, 4.0), name="orch-platform")


@pytest.fixture(scope="module")
def config(platform):
    return CampaignConfig(
        family="random",
        ptg_counts=(2, 3),
        workloads_per_point=2,
        platforms=(platform,),
        strategy_names=("S", "ES"),
        base_seed=17,
        max_tasks=8,
    )


@pytest.fixture(scope="module")
def serial(config):
    return run_campaign(config)


class TestExecuteShard:
    def test_matches_serial_experiment(self, config, serial):
        shard = make_shards(config)[0]
        outcome = execute_shard(shard)
        assert outcome.ok
        assert outcome.result == serial.experiments[0]
        assert outcome.workload is not None

    def test_failure_is_captured_not_raised(self, config, platform):
        shard = ExperimentShard(
            index=0,
            spec=WorkloadSpec("random", n_ptgs=2, seed=1, max_tasks=8),
            platform=platform,
            strategy_names=("no-such-strategy",),
        )
        outcome = execute_shard(shard)
        assert not outcome.ok
        assert outcome.result is None
        assert "no-such-strategy" in outcome.error


class TestRunShards:
    def test_outcomes_arrive_in_shard_order(self, config):
        shards = make_shards(config)
        outcomes = list(run_shards(shards, jobs=2))
        assert [o.index for o in outcomes] == [s.index for s in shards]
        assert [o.key for o in outcomes] == [s.key() for s in shards]

    def test_inline_and_parallel_agree(self, config):
        shards = make_shards(config)
        inline = [o.result for o in run_shards(shards, jobs=1)]
        parallel = [o.result for o in run_shards(shards, jobs=2)]
        assert inline == parallel


class TestParallelMatchesSerial:
    def test_aggregates_are_bit_identical(self, config, serial):
        result = run_campaign_parallel(config, jobs=2)
        assert result.average_unfairness() == serial.average_unfairness()
        assert (
            result.average_relative_makespan() == serial.average_relative_makespan()
        )
        assert (
            result.average_mean_application_makespan()
            == serial.average_mean_application_makespan()
        )

    def test_store_round_trip_is_bit_identical(self, config, serial, tmp_path):
        """Aggregates survive the JSONL round trip exactly."""
        run_campaign_parallel(config, store=str(tmp_path / "s"), jobs=2)
        # a fresh orchestration re-assembles everything from the store
        rebuilt = run_campaign_parallel(config, store=str(tmp_path / "s"), jobs=2)
        assert rebuilt.average_unfairness() == serial.average_unfairness()
        assert (
            rebuilt.average_relative_makespan() == serial.average_relative_makespan()
        )


class TestWorkerUtilisation:
    def test_serial_alias_divides_by_the_one_job_it_ran(self, config, monkeypatch):
        """The gauge counts the jobs the executor ran, not the CPUs."""
        import repro.campaigns.orchestrator as orchestrator

        monkeypatch.setattr(orchestrator, "default_jobs", lambda: 8)
        with obs.capture(TelemetrySpec(metrics=True)) as session:
            orchestrate(config, executor="serial")
        gauges = session.registry.snapshot()["gauges"]
        assert gauges["campaign.worker_utilisation"]["value"] > 0.5

    @pytest.mark.parametrize("executor, jobs", [
        ("process-pool", 1),
        (ProcessPoolExecutor(jobs=1), None),
        (ProcessPoolExecutor(jobs=8), 1),
    ], ids=["jobs-1", "instance-of-one-job", "jobs-win-over-instance"])
    def test_divides_by_the_jobs_the_executor_ran(
        self, config, monkeypatch, executor, jobs
    ):
        """One inline job keeps the gauge near 1 whatever the CPU count."""
        import repro.campaigns.orchestrator as orchestrator

        monkeypatch.setattr(orchestrator, "default_jobs", lambda: 8)
        with obs.capture(TelemetrySpec(metrics=True)) as session:
            orchestrate(config, executor=executor, jobs=jobs)
        gauges = session.registry.snapshot()["gauges"]
        assert gauges["campaign.worker_utilisation"]["value"] > 0.5


class RecordingPool(ProcessPoolExecutor):
    """A pool that records every submission, as the campaign benchmark's does."""

    def __init__(self, jobs=None):
        super().__init__(jobs)
        self.submissions = []

    def submit_shards(self, shards, store=None, policy=None, cache=None):
        self.submissions.append((list(shards), store, policy, cache))
        return super().submit_shards(shards, store=store, policy=policy, cache=cache)


class TestExecutorSelection:
    @pytest.mark.parametrize("executor, jobs", [
        ("serial", None),
        ("process-pool", 2),
        (ProcessPoolExecutor(jobs=2), None),
        (RecordingPool(jobs=2), None),
    ], ids=["serial", "process-pool", "instance", "subclass"])
    def test_aggregates_match_the_serial_runner(self, config, serial, executor, jobs):
        run = orchestrate(config, jobs=jobs, executor=executor)
        assert run.result.experiments == serial.experiments
        assert run.result.average_unfairness() == serial.average_unfairness()
        assert (
            run.result.average_relative_makespan()
            == serial.average_relative_makespan()
        )

    @pytest.mark.parametrize("name", ["slurm", "local-cluster"])
    def test_unknown_executor_name_is_refused(self, config, name):
        with pytest.raises(ConfigurationError, match="unknown executor") as caught:
            orchestrate(config, executor=name)
        assert "['serial', 'process-pool']" in str(caught.value)

    def test_a_store_run_submits_its_store_policy_and_cache(self, config, tmp_path):
        pool = RecordingPool(jobs=2)
        retry = RetryPolicy(attempts=2)
        orchestrate(config, store=tmp_path / "s", jobs=1, retry=retry, executor=pool)
        ((shards, store, policy, cache),) = pool.submissions
        assert [s.key() for s in shards] == [s.key() for s in make_shards(config)]
        assert isinstance(store, CampaignStore) and store.root == tmp_path / "s"
        assert policy == ExecutionPolicy(jobs=1, retry=retry, return_workload=True)
        assert cache is not None and cache.entries == store.load_cache().entries

    def test_an_in_memory_run_submits_no_store_and_no_cache(self, config):
        pool = RecordingPool()
        orchestrate(config, jobs=1, executor=pool)
        ((shards, store, policy, cache),) = pool.submissions
        assert len(shards) == len(make_shards(config))
        assert store is None and cache is None
        assert policy == ExecutionPolicy(jobs=1, retry=None, return_workload=False)

    @pytest.mark.parametrize("use_store, archive, requested", [
        (False, True, False),
        (True, True, True),
        (True, False, False),
    ], ids=["no-store", "archive", "no-archive"])
    def test_workloads_are_requested_only_for_the_archive(
        self, config, tmp_path, use_store, archive, requested
    ):
        pool = RecordingPool(jobs=1)
        store = CampaignStore(tmp_path / "s") if use_store else None
        orchestrate(config, store=store, archive_workloads=archive, executor=pool)
        ((_, _, policy, _),) = pool.submissions
        assert policy.return_workload is requested
        if use_store:
            assert store.workloads_dir.exists() is archive
            for shard in make_shards(config) if archive else ():
                assert len(store.load_workload(shard.key())) == shard.spec.n_ptgs


class TestResume:
    def test_completed_shards_are_skipped(self, config, tmp_path):
        store = CampaignStore(tmp_path / "s")
        first = orchestrate(config, store=store, jobs=1)
        assert first.stats.executed_shards == first.stats.total_shards
        second = orchestrate(config, store=store, jobs=1)
        assert second.stats.executed_shards == 0
        assert second.stats.skipped_shards == second.stats.total_shards
        assert (
            second.result.average_unfairness() == first.result.average_unfairness()
        )

    def test_interrupted_run_completes_without_reexecution(
        self, config, serial, tmp_path
    ):
        """Drop all but one record, resume, and check only the rest re-runs."""
        store = CampaignStore(tmp_path / "s")
        orchestrate(config, store=store, jobs=1)
        with open(store.results_path, "r", encoding="utf-8") as handle:
            first_line = handle.readline()
        with open(store.results_path, "w", encoding="utf-8") as handle:
            handle.write(first_line)
        resumed = orchestrate(config, store=store, jobs=1)
        assert resumed.stats.skipped_shards == 1
        assert resumed.stats.executed_shards == resumed.stats.total_shards - 1
        assert resumed.result.average_unfairness() == serial.average_unfairness()

    def test_progress_reports_resume_and_labels(self, config, tmp_path):
        store = CampaignStore(tmp_path / "s")
        orchestrate(config, store=store, jobs=1)
        messages = []
        orchestrate(config, store=store, jobs=1, progress=messages.append)
        assert any("resuming" in m for m in messages)

    def test_warm_cache_serves_resumed_reference_makespans(self, config, tmp_path):
        store = CampaignStore(tmp_path / "s")
        orchestrate(config, store=store, jobs=1)
        # lose the results but keep the own-makespan cache: every reference
        # makespan of the re-run must come from the cache
        os.remove(store.results_path)
        rerun = orchestrate(config, store=store, jobs=1)
        assert rerun.stats.cache_misses == 0
        assert rerun.stats.cache_hits > 0
        assert rerun.stats.cache_hit_rate == 1.0


class TestStoreGuards:
    def test_mismatched_campaign_is_refused(self, config, platform, tmp_path):
        store = CampaignStore(tmp_path / "s")
        orchestrate(config, store=store, jobs=1)
        other = CampaignConfig(
            family="random", ptg_counts=(2,), workloads_per_point=1,
            platforms=(platform,), strategy_names=("S",), base_seed=99, max_tasks=8,
        )
        with pytest.raises(CampaignError):
            orchestrate(other, store=store, jobs=1)

    def test_populated_store_requires_resume(self, config, tmp_path):
        store = CampaignStore(tmp_path / "s")
        orchestrate(config, store=store, jobs=1)
        with pytest.raises(CampaignError):
            orchestrate(config, store=store, jobs=1, resume=False)


class TestRetryPolicy:
    def test_delay_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy()
        assert policy.delay("k", 1) == policy.delay("k", 1)
        assert policy.delay("k", 1) != policy.delay("other", 1)
        assert policy.delay("k", 1) != policy.delay("k", 2)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(attempts=8, base_delay=0.5, max_delay=8.0)
        caps = [min(8.0, 0.5 * 2 ** (attempt - 1)) for attempt in range(1, 8)]
        for attempt, cap in enumerate(caps, start=1):
            delay = policy.delay("k", attempt)
            # jitter keeps every delay within [cap/2, cap]
            assert 0.5 * cap <= delay <= cap
        assert policy.delay("k", 7) <= 8.0

    def test_invalid_policies_raise(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=0.1, base_delay=0.5)

    def test_transient_failure_heals_within_the_attempt_budget(
        self, config, serial, monkeypatch
    ):
        """Fails twice, succeeds on the third try: outcome.ok, 2 backoffs."""
        from repro.campaigns import pool

        original = pool.run_experiment
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("transient crash")
            return original(*args, **kwargs)

        monkeypatch.setattr(pool, "run_experiment", flaky)
        slept = []
        shard = make_shards(config)[0]
        outcome = execute_shard(
            shard, retry=RetryPolicy(attempts=3), sleep=slept.append
        )
        assert outcome.ok
        assert outcome.attempts == 3
        assert outcome.result == serial.experiments[0]
        assert len(slept) == 2
        assert slept[0] < slept[1]  # exponential backoff (jitter < growth)

    def test_exhausted_attempts_report_the_last_error(self, config, monkeypatch):
        from repro.campaigns import pool

        def broken(*args, **kwargs):
            raise RuntimeError("permanent crash")

        monkeypatch.setattr(pool, "run_experiment", broken)
        slept = []
        shard = make_shards(config)[0]
        outcome = execute_shard(
            shard, retry=RetryPolicy(attempts=2), sleep=slept.append
        )
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "permanent crash" in outcome.error
        assert len(slept) == 1

    def test_no_retry_by_default(self, config, monkeypatch):
        from repro.campaigns import pool

        calls = {"n": 0}

        def broken(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("crash")

        monkeypatch.setattr(pool, "run_experiment", broken)
        outcome = execute_shard(make_shards(config)[0])
        assert not outcome.ok
        assert outcome.attempts == 1
        assert calls["n"] == 1


class TestFailureHandling:
    @staticmethod
    def _flaky_config(platform):
        return CampaignConfig(
            family="random", ptg_counts=(2, 3), workloads_per_point=1,
            platforms=(platform,), strategy_names=("S",), base_seed=17, max_tasks=8,
        )

    @staticmethod
    def _break_3ptg_shards(monkeypatch):
        from repro.campaigns import pool

        original = pool.run_experiment

        def flaky(ptgs, *args, **kwargs):
            if len(ptgs) == 3:
                raise RuntimeError("boom on the 3-PTG shard")
            return original(ptgs, *args, **kwargs)

        monkeypatch.setattr(pool, "run_experiment", flaky)

    def test_failed_shard_is_quarantined_not_fatal(
        self, platform, tmp_path, monkeypatch
    ):
        """A persistently failing shard lands in quarantine; the rest complete."""
        config = self._flaky_config(platform)
        shards = make_shards(config)
        self._break_3ptg_shards(monkeypatch)
        store = CampaignStore(tmp_path / "s")
        run = orchestrate(config, store=store, jobs=1)
        assert store.completed_keys() == {shards[0].key()}
        assert run.stats.failed_shards == 1
        assert run.stats.quarantined == [shards[1].label()]
        assert len(run.result.experiments) == 1
        records = store.payloads_by_key("quarantine")
        assert set(records) == {shards[1].key()}
        payload = records[shards[1].key()]
        assert payload["label"] == shards[1].label()
        assert "boom on the 3-PTG shard" in payload["error"]
        assert payload["attempts"] == 1
        # a later resume re-runs the quarantined shard (its result key is
        # still missing) and heals the campaign
        monkeypatch.undo()
        resumed = orchestrate(config, store=store, jobs=1)
        assert resumed.stats.skipped_shards == 1
        assert resumed.stats.executed_shards == 1
        assert resumed.stats.failed_shards == 0

    def test_failures_without_store_still_raise(self, platform, monkeypatch):
        """In-memory runs have nowhere to quarantine: they abort as before."""
        config = self._flaky_config(platform)
        self._break_3ptg_shards(monkeypatch)
        with pytest.raises(CampaignError, match="1 shard"):
            orchestrate(config, store=None, jobs=1)

    def test_all_shards_failing_raises_even_with_store(
        self, platform, tmp_path, monkeypatch
    ):
        """Zero surviving shards leaves nothing to aggregate: abort."""
        config = self._flaky_config(platform)
        from repro.campaigns import pool

        def broken(ptgs, *args, **kwargs):
            raise RuntimeError("everything burns")

        monkeypatch.setattr(pool, "run_experiment", broken)
        with pytest.raises(CampaignError, match="2 shard"):
            orchestrate(config, store=CampaignStore(tmp_path / "s"), jobs=1)
