"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "repro-ptg" in capsys.readouterr().out

    def test_known_commands(self):
        parser = build_parser()
        for command in ("run", "stream", "list", "table1", "fig2", "fig3", "fig4",
                        "fig5", "schedule", "generate"):
            args = parser.parse_args([command] if command != "schedule" else ["schedule"])
            assert args.command == command
        assert parser.parse_args(["validate", "some-dir"]).command == "validate"


class TestListCommand:
    def test_lists_one_registry(self, capsys):
        assert main(["list", "allocators"]) == 0
        out = capsys.readouterr().out
        for name in ("cpa", "hcpa", "scrap", "scrap-max"):
            assert name in out

    def test_lists_every_registry_by_default(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for kind in ("allocators", "mappers", "strategies", "platforms", "families"):
            assert f"{kind}:" in out
        assert "grid5000" in out and "mixed" in out

    def test_json_format(self, capsys):
        assert main(["list", "strategies", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["strategies"]
        assert set(payload["strategies"]) == {
            "S", "ES", "PS-cp", "PS-width", "PS-work",
            "WPS-cp", "WPS-width", "WPS-work",
        }
        assert all(payload["strategies"].values())  # every entry is described

    def test_unknown_kind_is_a_parse_error(self):
        with pytest.raises(SystemExit):
            main(["list", "gadgets"])


class TestRunCommand:
    SET_ARGS = [
        "--set", "platform=lille",
        "--set", "workload.family=random",
        "--set", "workload.n_ptgs=2",
        "--set", "workload.max_tasks=8",
        "--set", "workload.seed=3",
        "--set", "strategies=S,ES",
        "--quiet", "--jobs", "1",
    ]

    def test_run_with_set_overrides_only(self, capsys):
        assert main(["run"] + self.SET_ARGS) == 0
        out = capsys.readouterr().out
        assert "random-x2-seed3 on lille" in out
        assert "scrap-max + ready-list" in out
        assert "S" in out and "ES" in out

    def test_run_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "platform": "lille",
            "workload": {"family": "random", "n_ptgs": 2, "seed": 3, "max_tasks": 8},
            "pipeline": {"allocator": "hcpa", "packing": False},
            "strategies": ["ES"],
        }))
        assert main(["run", str(spec_file), "--quiet", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "hcpa + ready-list (no packing)" in out

    def test_run_spec_list_with_override_and_json_output(self, capsys, tmp_path):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([
            {"workload": {"family": "random", "n_ptgs": 2, "seed": 3, "max_tasks": 8},
             "platform": "lille", "strategies": ["S"]},
            {"workload": {"family": "random", "n_ptgs": 2, "seed": 4, "max_tasks": 8},
             "platform": "lille", "strategies": ["S"]},
        ]))
        code = main([
            "run", str(spec_file),
            "--set", "pipeline.allocator=scrap",
            "--format", "json", "--quiet", "--jobs", "1",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert all(doc["spec"]["pipeline"]["allocator"] == "scrap" for doc in payload)
        assert all("S" in doc["outcomes"] for doc in payload)
        assert payload[0]["key"] != payload[1]["key"]

    def test_run_with_store_resumes(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["run"] + self.SET_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        code = main(["run"] + self.SET_ARGS + ["--store", store, "--resume"])
        assert code == 0

    def test_example_spec_file_runs(self, capsys):
        """The checked-in example spec (also exercised by CI) stays valid."""
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples" / "scenario_fft_sweep.json"
        assert main(["run", str(example), "--quiet", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "hcpa + ready-list" in out
        assert "scrap-max + ready-list" in out

    def test_bad_set_syntax_is_a_clean_error(self, capsys):
        assert main(["run", "--set", "pipeline.allocator"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_missing_spec_file_is_a_clean_error(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_invalid_json_is_a_clean_error(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["run", str(broken)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_registry_name_is_a_clean_error(self, capsys):
        assert main(["run", "--set", "pipeline.allocator=heft", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown allocator" in err and "scrap-max" in err

    def test_resume_requires_store(self, capsys):
        assert main(["run", "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section",
        [
            {"pipeline": {"mu": "a"}},
            {"arrivals": {"rate": "x"}},
            {"arrivals": {"trace": ["a"]}},
            {"arrivals": {"rate": float("nan")}},
            {"faults": {"duration": [1]}},
            {"faults": {"start": float("nan")}},
            {"workload": {"seed": -1}},
        ],
        ids=lambda section: json.dumps(section),
    )
    def test_malformed_numbers_are_one_line_errors(self, capsys, tmp_path, section):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(section))
        assert main(["run", str(spec), "--quiet"]) == 2
        err = capsys.readouterr().err
        (name,) = next(iter(section.values()))
        assert err.startswith(f"error: {name}") and err.count("\n") == 1


class TestTable1Command:
    def test_prints_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "grelon" in out


class TestProfileFlag:
    def test_profile_wraps_any_subcommand(self, capsys):
        assert main(["--profile", "table1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out  # the command still runs
        assert "cumulative" in captured.err  # ...under cProfile
        assert "function calls" in captured.err

    def test_profile_defaults_off(self, capsys):
        assert main(["table1"]) == 0
        assert "cumulative" not in capsys.readouterr().err


class TestGenerateCommand:
    def test_json_output(self, capsys):
        assert main(["generate", "--family", "random", "--tasks", "6", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == 1
        assert len(payload["tasks"]) >= 6

    def test_dot_output(self, capsys):
        assert main(["generate", "--family", "strassen", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_fft_points(self, capsys):
        assert main(["generate", "--family", "fft", "--points", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tasks"]) == 16  # 15 computational + synthetic exit


class TestScheduleCommand:
    def test_schedule_small_workload(self, capsys):
        code = main(
            [
                "schedule",
                "--family", "random",
                "--n-ptgs", "2",
                "--platform", "lille",
                "--strategy", "ES",
                "--seed", "3",
                "--max-tasks", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unfairness" in out
        assert "M_own" in out and "M_multi" in out

    def test_schedule_accepts_the_mixed_family(self, capsys):
        code = main(
            [
                "schedule",
                "--family", "mixed",
                "--n-ptgs", "3",
                "--platform", "lille",
                "--strategy", "ES",
                "--seed", "3",
                "--max-tasks", "8",
            ]
        )
        assert code == 0
        assert "mixed-x3-seed3" in capsys.readouterr().out


class TestFigureCommands:
    def test_fig2_reduced(self, capsys):
        code = main(
            [
                "fig2",
                "--workloads", "1",
                "--ptg-counts", "2",
                "--platforms", "lille",
                "--max-tasks", "8",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "recommended mu" in out

    def test_fig5_reduced(self, capsys):
        code = main(
            [
                "fig5",
                "--workloads", "1",
                "--ptg-counts", "2",
                "--platforms", "lille",
                "--seed", "1",
            ]
        )
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out


class TestCampaignCommand:
    CAMPAIGN_ARGS = [
        "campaign",
        "--family", "random",
        "--workloads", "1",
        "--ptg-counts", "2",
        "--platforms", "lille",
        "--max-tasks", "8",
        "--seed", "1",
        "--jobs", "1",
        "--quiet",
    ]

    def test_campaign_runs_and_reports_shards(self, capsys):
        assert main(self.CAMPAIGN_ARGS) == 0
        out = capsys.readouterr().out
        assert "shards: 1 total" in out
        assert "cache hit rate" in out

    def test_campaign_with_store_resumes(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(self.CAMPAIGN_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert main(self.CAMPAIGN_ARGS + ["--store", store, "--resume"]) == 0
        assert "1 resumed, 0 executed" in capsys.readouterr().out

    def test_fig3_accepts_parallel_flags(self, capsys, tmp_path):
        code = main(
            [
                "fig3",
                "--workloads", "1",
                "--ptg-counts", "2",
                "--platforms", "lille",
                "--max-tasks", "8",
                "--seed", "1",
                "--jobs", "1",
                "--store", str(tmp_path / "fig3-store"),
            ]
        )
        assert code == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_task_cap_below_one_is_refused_before_any_shard(self, capsys, tmp_path):
        store = tmp_path / "store"
        args = list(self.CAMPAIGN_ARGS)
        args[args.index("--max-tasks") + 1] = "0"
        assert main(args + ["--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err == "error: max_tasks must be a positive integer or null, got 0\n"
        # no shard ran: no store, so no meta.json and no quarantine record
        assert not store.exists()

    def test_store_conflict_is_a_clean_error(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(self.CAMPAIGN_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert main(self.CAMPAIGN_ARGS + ["--store", store]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--resume" in err


class TestStreamCommand:
    STREAM_ARGS = [
        "stream", "--rate", "0.05", "--arrivals", "4", "--family", "random",
        "--max-tasks", "8", "--platform", "lille", "--tenants", "2", "--quiet",
    ]

    def test_stream_prints_summary_and_windows(self, capsys):
        assert main(self.STREAM_ARGS) == 0
        out = capsys.readouterr().out
        assert "windowed metrics" in out
        assert "validator" in out and "OK" in out
        assert "stall of tenant-0" in out

    def test_stream_json_output(self, capsys):
        assert main(self.STREAM_ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        outcome = payload[0]["outcomes"]["ES"]
        assert outcome["n_arrivals"] == 4
        assert outcome["valid"] is True
        assert "schedule_rows" not in outcome  # stripped from CLI JSON

    def test_stream_store_resume_and_check(self, capsys, tmp_path):
        store = str(tmp_path / "stream-store")
        assert main(self.STREAM_ARGS + ["--store", store, "--check"]) == 0
        capsys.readouterr()
        args = self.STREAM_ARGS + ["--store", store, "--resume", "--check"]
        assert main(args) == 0
        # without --resume a populated store is a clean error
        assert main(self.STREAM_ARGS + ["--store", store]) == 2

    def test_stream_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("0.0\n30.0\n60.0\n")
        code = main(
            [
                "stream", "--process", "trace", "--trace", str(trace),
                "--family", "random", "--max-tasks", "8",
                "--platform", "lille", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "applications" in out and "3" in out

    def test_resume_requires_store(self, capsys):
        assert main(["stream", "--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_run_routes_streaming_specs(self, capsys, tmp_path):
        spec_file = tmp_path / "stream.json"
        spec_file.write_text(json.dumps({
            "platform": "lille",
            "strategies": ["ES"],
            "arrivals": {
                "process": "poisson", "rate": 0.05, "n_arrivals": 3,
                "family": "random", "max_tasks": 8,
            },
        }))
        assert main(["run", str(spec_file), "--quiet"]) == 0
        assert "windowed metrics" in capsys.readouterr().out


class TestValidateCommand:
    def test_validate_stream_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(TestStreamCommand.STREAM_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert main(["validate", store]) == 0
        out = capsys.readouterr().out
        assert "stream" in out and "OK" in out
        assert "1 OK, 0 failed" in out

    def test_validate_detects_tampered_schedule(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert main(TestStreamCommand.STREAM_ARGS + ["--store", str(store_dir)]) == 0
        capsys.readouterr()
        # corrupt the stored schedule: shift one start before its release
        from repro.campaigns.store import CampaignStore

        store = CampaignStore(store_dir)
        ((key, payload),) = store.iter_payloads("stream")
        rows = payload["outcomes"]["ES"]["schedule_rows"]
        victim = max(rows, key=lambda r: r[4])
        victim[4] = 0.0  # start
        victim[5] = 0.0  # finish
        store.append_payload("stream", key, payload)  # last record wins
        assert main(["validate", str(store_dir)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_empty_store_is_an_error(self, capsys, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["validate", str(tmp_path / "empty")]) == 2
        assert "no validatable records" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["validate"], ["metrics"], ["store", "summarize"],
    ], ids=["validate", "metrics", "store-summarize"])
    def test_missing_store_is_refused_and_not_created(self, capsys, tmp_path, command):
        missing = tmp_path / "nope"
        assert main(command + [str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()


class TestServeAndClientCommands:
    def test_parser_knows_serve_and_client(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "spec.json", "--port", "8080"])
        assert args.command == "serve" and args.port == 8080
        args = parser.parse_args(["client", "status", "--port", "8080"])
        assert args.command == "client" and args.action == "status"

    def test_serve_without_spec_or_restore_is_an_error(self, capsys):
        assert main(["serve"]) == 2
        assert "scenario spec" in capsys.readouterr().err

    def test_serve_restore_requires_store(self, capsys):
        assert main(["serve", "--restore"]) == 2
        assert "--restore requires --store" in capsys.readouterr().err

    def test_client_schedule_requires_tenant(self, capsys):
        assert main(["client", "schedule", "--port", "1"]) == 2
        assert "--tenant" in capsys.readouterr().err

    def test_client_submit_needs_a_streaming_spec(self, capsys, tmp_path):
        spec_file = tmp_path / "batch.json"
        spec_file.write_text('{"platform": "lille"}')
        assert main(["client", "submit", str(spec_file), "--port", "1"]) == 2
        assert "arrivals" in capsys.readouterr().err

    def test_client_unreachable_daemon_is_a_clean_error(self, capsys):
        # nothing listens on port 1; the client must fail with exit 2,
        # not a traceback
        assert main(["client", "status", "--port", "1"]) == 2
        assert "failed" in capsys.readouterr().err


class TestExecutorFlags:
    CAMPAIGN_ARGS = TestCampaignCommand.CAMPAIGN_ARGS

    def test_list_executors(self, capsys):
        assert main(["list", "executors"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "process-pool", "local-cluster"):
            assert name in out

    def test_campaign_accepts_an_executor(self, capsys):
        assert main(self.CAMPAIGN_ARGS + ["--executor", "serial"]) == 0
        assert "shards: 1 total" in capsys.readouterr().out

    def test_campaign_rejects_an_unknown_executor(self, capsys):
        with pytest.raises(SystemExit):
            main(self.CAMPAIGN_ARGS + ["--executor", "slurm"])

    @pytest.mark.parametrize("extra, pool_size", [([], 1), (["--jobs", "2"], 2)],
                             ids=["no-jobs", "jobs-2"])
    def test_serial_alias_runs_the_requested_pool(
        self, capsys, monkeypatch, extra, pool_size
    ):
        """``--executor serial`` is one job unless ``--jobs`` asks for more."""
        import repro.exec.procpool as procpool

        seen = []
        real = procpool.run_shards

        def recording(shards, jobs=None, **kwargs):
            seen.append(jobs)
            return real(shards, jobs=jobs, **kwargs)

        monkeypatch.setattr(procpool, "run_shards", recording)
        args = ["campaign", "--workloads", "2", "--ptg-counts", "2", "--platforms",
                "lille", "--max-tasks", "8", "--seed", "1", "--quiet"]
        assert main(args + ["--executor", "serial"] + extra) == 0
        assert "shards: 2 total" in capsys.readouterr().out
        assert seen == [pool_size]


class TestStoreCommand:
    def _populated_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            TestCampaignCommand.CAMPAIGN_ARGS + ["--store", store]
        ) == 0
        capsys.readouterr()
        return store

    def test_store_summarize(self, capsys, tmp_path):
        store = self._populated_store(tmp_path, capsys)
        assert main(["store", "summarize", store]) == 0
        out = capsys.readouterr().out
        assert "1 experiment(s)" in out
        assert "average_unfairness:" in out

    def test_store_command_on_a_missing_store_is_a_clean_error(
        self, capsys, tmp_path
    ):
        assert main(["store", "summarize", str(tmp_path / "nope")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_store_summarize_json_is_the_library_summary(self, capsys, tmp_path):
        from repro.campaigns.aggregate import summarize_store

        store = self._populated_store(tmp_path, capsys)
        assert main(["store", "summarize", store, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == summarize_store(store)

    def test_mixed_strategy_store_is_a_clean_error(self, capsys, tmp_path):
        import dataclasses

        from repro.campaigns.store import CampaignStore

        store = CampaignStore(self._populated_store(tmp_path, capsys))
        (result,) = store.results_by_key().values()
        fewer = dict(result.outcomes)
        fewer.pop("S")
        store.append("fewer", dataclasses.replace(result, outcomes=fewer))
        assert main(["store", "summarize", str(store.root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "same strategies" in err

    def test_malformed_record_is_a_clean_error(self, capsys, tmp_path):
        store = self._populated_store(tmp_path, capsys)
        with open(f"{store}/results.jsonl", "a", encoding="utf-8") as handle:
            handle.write("[2]\n")
        assert main(["store", "summarize", store]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "results.jsonl:2" in err

    @pytest.mark.parametrize("action", ["compact", "stat"])
    def test_summarize_is_the_only_action(self, capsys, tmp_path, action):
        store = self._populated_store(tmp_path, capsys)
        with pytest.raises(SystemExit) as excinfo:
            main(["store", action, store])
        assert excinfo.value.code == 2
