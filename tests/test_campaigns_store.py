"""Tests for campaign result persistence (JSONL store + workload archive)."""

import json

import pytest

from repro.campaigns.aggregate import summarize_store
from repro.campaigns.shards import make_shards
from repro.campaigns.store import (
    CampaignStore,
    experiment_result_from_dict,
    experiment_result_to_dict,
    strategy_outcome_from_dict,
    strategy_outcome_to_dict,
)
from repro.constraints.registry import strategy
from repro.exceptions import CampaignError, ConfigurationError
from repro.exec import EXECUTORS
from repro.experiments.runner import (
    CampaignConfig,
    CampaignResult,
    ExperimentResult,
    StrategyOutcome,
    run_experiment,
)
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform.builder import heterogeneous_platform


@pytest.fixture(scope="module")
def platform():
    return heterogeneous_platform((10, 14), (3.0, 4.0), name="store-platform")


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadSpec("random", n_ptgs=2, seed=3, max_tasks=8))


@pytest.fixture(scope="module")
def result(platform, workload):
    return run_experiment(
        workload, platform, [strategy("S"), strategy("ES")], workload_label="t"
    )


class TestRecordRoundTrip:
    def test_strategy_outcome_round_trips_exactly(self, result):
        outcome = result.outcomes["ES"]
        restored = strategy_outcome_from_dict(
            json.loads(json.dumps(strategy_outcome_to_dict(outcome)))
        )
        assert restored == outcome  # dataclass equality: every float bit-exact

    def test_experiment_result_round_trips_exactly(self, result):
        restored = experiment_result_from_dict(
            json.loads(json.dumps(experiment_result_to_dict(result)))
        )
        assert restored == result

    def test_missing_field_raises(self, result):
        payload = experiment_result_to_dict(result)
        del payload["own_makespans"]
        with pytest.raises(CampaignError):
            experiment_result_from_dict(payload)


class TestCampaignStore:
    def test_append_and_reload(self, tmp_path, result, workload):
        store = CampaignStore(tmp_path / "store")
        store.append("shard-a", result, workload=workload)
        assert "shard-a" in store
        assert len(store) == 1
        reloaded = store.results_by_key()["shard-a"]
        assert reloaded == result

    def test_workload_archive_round_trips(self, tmp_path, result, workload):
        store = CampaignStore(tmp_path / "store")
        store.append("shard-a", result, workload=workload)
        restored = store.load_workload("shard-a")
        assert [g.name for g in restored] == [g.name for g in workload]
        assert [g.n_tasks for g in restored] == [g.n_tasks for g in workload]

    def test_missing_workload_raises(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(CampaignError):
            store.load_workload("absent")

    def test_append_only_accumulates(self, tmp_path, result):
        store = CampaignStore(tmp_path / "store")
        store.append("a", result)
        store.append("b", result)
        assert store.completed_keys() == {"a", "b"}
        assert [key for key, _ in store.iter_records()] == ["a", "b"]

    def test_truncated_final_line_is_ignored(self, tmp_path, result):
        """A crash mid-write must not poison the store: the shard re-runs."""
        store = CampaignStore(tmp_path / "store")
        store.append("a", result)
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 1, "key": "b", "result"')
        assert store.completed_keys() == {"a"}

    def test_append_after_truncated_line_keeps_store_readable(self, tmp_path, result):
        """Appending over a crash artefact must not corrupt later records."""
        store = CampaignStore(tmp_path / "store")
        store.append("a", result)
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 1, "key": "b", "result"')
        store.append("b", result)
        store.append("c", result)
        assert store.completed_keys() == {"a", "b", "c"}

    def test_unsupported_format_version_raises(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with open(store.results_path, "w", encoding="utf-8") as handle:
            handle.write('{"format_version": 99, "key": "a", "result": {}}\n')
        with pytest.raises(CampaignError):
            store.completed_keys()

    def test_meta_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert store.read_meta() is None
        store.write_meta({"signature": "abc", "total_shards": 4})
        assert store.read_meta() == {"signature": "abc", "total_shards": 4}

    def test_cache_round_trip(self, tmp_path):
        from repro.campaigns.cache import OwnMakespanCache

        store = CampaignStore(tmp_path / "store")
        assert len(store.load_cache()) == 0
        store.save_cache(OwnMakespanCache({"fp:plat": 2.5}))
        assert store.load_cache().entries == {"fp:plat": 2.5}

    def test_store_keys_match_shard_keys(self, tmp_path, platform, result):
        """The store accepts the content-derived keys produced by the shards."""
        config = CampaignConfig(
            family="random", ptg_counts=(2,), workloads_per_point=1,
            platforms=(platform,), strategy_names=("S", "ES"), max_tasks=8,
        )
        shard = make_shards(config)[0]
        store = CampaignStore(tmp_path / "store")
        store.append(shard.key(), result)
        assert shard.key() in store


class TestGenericChannels:
    """Crash-recovery guarantees hold on every channel, not just results."""

    @pytest.mark.parametrize("channel", ["stream", "service", "telemetry"])
    def test_truncated_trailing_line_is_skipped(self, tmp_path, channel):
        store = CampaignStore(tmp_path / "store")
        store.append_payload(channel, "a", {"v": 1})
        with open(store.channel_path(channel), "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 2, "key": "torn"')
        assert [k for k, _ in store.iter_payloads(channel)] == ["a"]

    @pytest.mark.parametrize("channel", ["stream", "service", "telemetry"])
    def test_append_repairs_a_truncated_line(self, tmp_path, channel):
        store = CampaignStore(tmp_path / "store")
        store.append_payload(channel, "a", {"v": 1})
        with open(store.channel_path(channel), "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 2, "key": "torn"')
        store.append_payload(channel, "b", {"v": 2})
        assert [k for k, _ in store.iter_payloads(channel)] == ["a", "b"]

    def test_two_writers_interleave_without_loss(self, tmp_path):
        """Two store instances on one root append without clobbering."""
        writer_a = CampaignStore(tmp_path / "store")
        writer_b = CampaignStore(tmp_path / "store")
        for i in range(20):
            writer_a.append_payload("stream", f"a{i}", {"writer": "a", "i": i})
            writer_b.append_payload("stream", f"b{i}", {"writer": "b", "i": i})
        seen = dict(CampaignStore(tmp_path / "store").iter_payloads("stream"))
        assert len(seen) == 40
        assert seen["a7"] == {"writer": "a", "i": 7}
        assert seen["b19"] == {"writer": "b", "i": 19}

    def test_reader_sees_the_other_writers_appends(self, tmp_path):
        """A cached reader picks up lines appended by a second instance."""
        reader = CampaignStore(tmp_path / "store")
        writer = CampaignStore(tmp_path / "store")
        writer.append_payload("stream", "a", {"v": 1})
        assert [k for k, _ in reader.iter_payloads("stream")] == ["a"]
        writer.append_payload("stream", "b", {"v": 2})
        assert [k for k, _ in reader.iter_payloads("stream")] == ["a", "b"]


class TestTailCache:
    """A reread sees the channel as it is on disk now, whatever was read before."""

    def test_cache_is_invalidated_when_the_file_shrinks(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        for i in range(4):
            store.append_payload("stream", f"k{i}", {"i": i})
        assert len(list(store.iter_payloads("stream"))) == 4
        # an external truncation (e.g. manual repair) shrinks the file
        lines = store.channel_path("stream").read_text(encoding="utf-8")
        kept = "".join(lines.splitlines(keepends=True)[:2])
        store.channel_path("stream").write_text(kept, encoding="utf-8")
        assert [k for k, _ in store.iter_payloads("stream")] == ["k0", "k1"]

    def test_partial_tail_is_consumed_only_once_completed(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.append_payload("stream", "a", {"v": 1})
        path = store.channel_path("stream")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 2, "key": "b", "payload": {"v": 2}')
        assert [k for k, _ in store.iter_payloads("stream")] == ["a"]
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("}\n")  # a slow writer finishes the line
        assert [k for k, _ in store.iter_payloads("stream")] == ["a", "b"]
        assert dict(store.iter_payloads("stream"))["b"] == {"v": 2}

    def test_replaced_channel_reads_the_new_file(self, tmp_path):
        """A channel swapped for a longer file reads back as the new file."""
        store = CampaignStore(tmp_path / "store")
        for i in range(3):
            store.append_payload("stream", f"k{i}", {"i": i})
        assert [k for k, _ in store.iter_payloads("stream")] == ["k0", "k1", "k2"]
        other = CampaignStore(tmp_path / "other")
        for i in range(4):
            other.append_payload("stream", f"z{i}", {"i": i})
        other.channel_path("stream").replace(store.channel_path("stream"))
        expected = ["z0", "z1", "z2", "z3"]
        assert [k for k, _ in store.iter_payloads("stream")] == expected


def mixed_payload(i):
    """A payload with every JSON leaf type, floats nested in maps and lists."""
    return {
        "platform": f"site-{i % 3}",
        "n_ptgs": 2,
        "flags": [True, i, "tag", 0.5 * i, [1.0 / (i + 3)]],
        "comment": None,
        "own_makespans": {f"app{j}": 1.0 + i * 0.001 + j for j in range(3)},
    }


class TestLogReadBack:
    """The JSONL log alone reads back every record exactly."""

    def test_mixed_payloads_read_back_exactly(self, tmp_path):
        store = CampaignStore(tmp_path)
        payloads = {f"key{i:04d}": mixed_payload(i) for i in range(23)}
        for key, payload in payloads.items():
            store.append_payload("results", key, payload)
        reread = CampaignStore(tmp_path).payloads_by_key("results")
        assert reread == payloads
        assert list(reread) == list(payloads)

    def test_extreme_floats_read_back_bit_for_bit(self, tmp_path):
        values = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  0.1 + 0.2, -0.0, 1.0 / 3.0]
        store = CampaignStore(tmp_path)
        store.append_payload("results", "k", {"values": values})
        restored = store.payloads_by_key("results")["k"]["values"]
        assert [v.hex() for v in restored] == [v.hex() for v in values]

    def test_last_record_wins_at_the_first_position(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_payload("results", "a", {"v": 1.0})
        store.append_payload("results", "b", {"v": 2.0})
        store.append_payload("results", "a", {"v": 3.0})
        assert store.payloads_by_key("results") == {"a": {"v": 3.0}, "b": {"v": 2.0}}
        assert list(store.payloads_by_key("results")) == ["a", "b"]
        store.append_payload("results", "a", {"v": 4.0})
        assert store.payloads_by_key("results")["a"] == {"v": 4.0}

    def test_repaired_torn_line_stays_skipped(self, tmp_path):
        store = CampaignStore(tmp_path)
        for i in range(3):
            store.append_payload("results", f"k{i}", {"i": i})
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 2, "key": "torn"')
        assert store.completed_keys() == {"k0", "k1", "k2"}
        store.append_payload("results", "after", {"i": 9})  # terminates the torn line
        assert store.completed_keys() == {"k0", "k1", "k2", "after"}

    def test_channels_are_separate_logs(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_payload("results", "r", {"v": 1})
        store.append_payload("stream", "s", {"v": 2})
        assert store.payloads_by_key("results") == {"r": {"v": 1}}
        assert store.payloads_by_key("stream") == {"s": {"v": 2}}
        assert store.completed_keys() == {"r"}
        assert list(store.iter_payloads("telemetry")) == []

    def test_other_files_in_the_root_are_left_unread(self, tmp_path, result):
        """Directories an older version wrote beside the log change no read."""
        store = CampaignStore(tmp_path)
        store.append("a", result)
        store.append("b", result)
        records = store.results_by_key()
        summary = summarize_store(store)
        leftover = tmp_path / "segments-of-an-older-version" / "results"
        (leftover / "segments" / "seg-000000").mkdir(parents=True)
        (leftover / "state.json").write_text(
            '{"format_version": 99, "segments": ["seg-000000"]}', encoding="utf-8"
        )
        (leftover / "segments" / "seg-000000" / "footer.json").write_text(
            '{"keys": ["z"]}', encoding="utf-8"
        )
        fresh = CampaignStore(tmp_path)
        assert fresh.results_by_key() == records
        assert fresh.completed_keys() == {"a", "b"}
        assert summarize_store(fresh) == summary


class TestMalformedRecords:
    """A parsable line that is not a keyed record is an error naming the line."""

    @pytest.mark.parametrize("line", [
        "[2]",
        '"text"',
        "null",
        '{"format_version": 2, "payload": {}}',
        '{"format_version": 2, "key": "k"}',
    ], ids=["list", "string", "null", "no-key", "no-payload"])
    def test_malformed_line_is_a_campaign_error(self, tmp_path, line):
        store = CampaignStore(tmp_path)
        store.append_payload("results", "good", {"v": 1})
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(CampaignError, match=r"results\.jsonl:2: "):
            store.completed_keys()

    @pytest.mark.parametrize("payload", [
        [1],
        {"platform": "p", "workload": "w", "n_ptgs": 2, "own_makespans": {},
         "outcomes": [1]},
        {"platform": "p", "workload": "w", "n_ptgs": "many", "own_makespans": {},
         "outcomes": {}},
    ], ids=["list-payload", "list-outcomes", "non-integer-count"])
    def test_malformed_payload_is_a_campaign_error(self, tmp_path, payload):
        store = CampaignStore(tmp_path)
        store.append_payload("results", "k", payload)
        with pytest.raises(CampaignError, match="malformed experiment record"):
            store.results_by_key()


class TestChannelNames:
    @pytest.mark.parametrize("channel", ["", "a/b", "a\\b", "a.b"])
    def test_path_like_channel_names_are_refused(self, tmp_path, channel):
        store = CampaignStore(tmp_path)
        with pytest.raises(CampaignError, match="invalid store channel"):
            store.append_payload(channel, "k", {})
        assert list(tmp_path.iterdir()) == []


def synthetic_result(scale=1.0, n_ptgs=2, strategies=("S", "ES")):
    """A hand-made experiment result; *scale* tells two records apart."""
    outcomes = {
        name: StrategyOutcome(
            strategy=name,
            betas={"app": 0.5},
            makespans={"app": 10.0 * scale + i},
            slowdowns={"app": 1.0 + 0.1 * scale},
            unfairness=0.01 * scale + i,
            batch_makespan=100.0 * scale + i,
            mean_application_makespan=50.0 * scale + i,
        )
        for i, name in enumerate(strategies)
    }
    return ExperimentResult(
        platform="site", workload=f"w{scale}", n_ptgs=n_ptgs,
        own_makespans={"app": 10.0}, outcomes=outcomes,
    )


class TestSummarizeStore:
    def test_matches_campaign_result_bit_for_bit(self, tmp_path):
        config = CampaignConfig(ptg_counts=(2, 4), workloads_per_point=2,
                                base_seed=3, max_tasks=14)
        shards = make_shards(config)
        store = CampaignStore(tmp_path)
        experiments = []
        for outcome in EXECUTORS.create("serial").submit_shards(shards):
            store.append(outcome.key, outcome.result)
            experiments.append(outcome.result)
        reference = CampaignResult(config=config, experiments=experiments)
        summary = summarize_store(CampaignStore(tmp_path))
        assert summary["experiments"] == len(shards)
        assert summary["ptg_counts"] == reference.ptg_counts()
        # records are written with sorted keys, so the stored order is sorted
        assert summary["strategies"] == sorted(reference.strategy_names())
        assert summary["average_unfairness"] == reference.average_unfairness()
        assert summary["average_relative_makespan"] == (
            reference.average_relative_makespan()
        )
        assert summary["average_mean_application_makespan"] == (
            reference.average_mean_application_makespan()
        )
        assert summarize_store(tmp_path) == summary  # a path works too

    def test_strategies_follow_the_campaign_order(self, tmp_path):
        from repro.campaigns.orchestrator import run_campaign_parallel
        from repro.platform import grid5000

        config = CampaignConfig(
            family="random", ptg_counts=(2,), workloads_per_point=1,
            platforms=(grid5000.site("lille"),), base_seed=1, max_tasks=6,
        )
        in_memory = run_campaign_parallel(config, store=tmp_path, jobs=1)
        configured = CampaignStore(tmp_path).read_meta()["strategies"]
        assert configured[:2] == ["S", "ES"]  # not alphabetical
        assert in_memory.strategy_names() == configured
        summary = summarize_store(tmp_path)
        assert summary["strategies"] == configured
        for series in ("average_unfairness", "average_relative_makespan",
                       "average_mean_application_makespan"):
            assert list(summary[series]) == configured
            assert summary[series] == getattr(in_memory, series)()

    def test_meta_of_another_strategy_set_keeps_the_record_order(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("k", synthetic_result(strategies=("S", "ES")))
        store.write_meta({"strategies": ["ES", "S", "PS"]})
        assert summarize_store(store)["strategies"] == ["ES", "S"]
        store.write_meta({"strategies": ["S", "ES"]})
        summary = summarize_store(store)
        assert summary["strategies"] == ["S", "ES"]
        assert list(summary["average_unfairness"]) == ["S", "ES"]

    def test_duplicate_keys_keep_last_record_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        first = synthetic_result(scale=1.0)
        second = synthetic_result(scale=2.0)
        store.append("k", first)
        store.append("k", second)
        summary = summarize_store(store)
        assert summary["experiments"] == 1
        assert summary["average_unfairness"]["S"] == [second.outcomes["S"].unfairness]
        only = CampaignStore(tmp_path / "only")
        only.append("k", second)
        assert summary == summarize_store(only)

    def test_mismatched_strategy_sets_are_refused(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("a", synthetic_result(scale=1.0))
        store.append("b", synthetic_result(scale=2.0, strategies=("S", "ES", "PS")))
        with pytest.raises(ConfigurationError, match="same strategies"):
            summarize_store(store)

    def test_malformed_payload_is_refused(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append_payload("results", "k", {"no": "fields"})
        with pytest.raises(CampaignError, match="misses"):
            summarize_store(store)

    def test_document_keys(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("k", synthetic_result())
        assert sorted(summarize_store(store)) == [
            "average_mean_application_makespan",
            "average_relative_makespan",
            "average_unfairness",
            "experiments",
            "ptg_counts",
            "strategies",
        ]

    def test_empty_store_has_empty_series(self, tmp_path):
        assert summarize_store(tmp_path) == {
            "experiments": 0,
            "ptg_counts": [],
            "strategies": [],
            "average_unfairness": {},
            "average_relative_makespan": {},
            "average_mean_application_makespan": {},
        }

    def test_version_one_records_summarize_like_version_two(self, tmp_path):
        current = CampaignStore(tmp_path / "v2")
        lines = []
        for i, scale in enumerate((1.0, 2.0, 3.0)):
            payload = experiment_result_to_dict(synthetic_result(scale=scale))
            current.append_payload("results", f"k{i}", payload)
            lines.append(json.dumps(
                {"format_version": 1, "key": f"k{i}", "result": payload},
                sort_keys=True,
            ))
        old = CampaignStore(tmp_path / "v1")
        old.results_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert summarize_store(old) == summarize_store(current)

    def test_unsupported_version_is_refused(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.append("k", synthetic_result())
        with open(store.results_path, "a", encoding="utf-8") as handle:
            handle.write('{"format_version": 99, "key": "z", "payload": {}}\n')
        with pytest.raises(CampaignError, match="unsupported format version 99"):
            summarize_store(store)
