"""Equivalence and orchestration tests for scenario execution.

The redesign promise is that the declarative path is a *front door*,
not a fork: a default-pipeline scenario must reproduce the
pre-redesign ``experiments.runner`` path bit for bit, and spec-keyed
stores must resume exactly like campaign stores do.
"""

import pytest

from repro.campaigns.shards import ExperimentShard, make_shards_from_specs
from repro.campaigns.store import CampaignStore
from repro.constraints.registry import paper_strategies
from repro.exceptions import CampaignError, ConfigurationError
from repro.experiments.runner import run_experiment
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform import grid5000
from repro.scenarios.builder import Scenario
from repro.scenarios.run import run_scenario, run_scenarios, scenario_workload
from repro.scenarios.spec import PipelineSpec, ScenarioSpec


def tiny_spec(**pipeline_kwargs):
    return ScenarioSpec(
        platform="lille",
        workload=WorkloadSpec(family="random", n_ptgs=2, seed=5, max_tasks=8),
        pipeline=PipelineSpec(**pipeline_kwargs),
        strategies=("S", "ES"),
    )


class TestRunScenarioEquivalence:
    @pytest.fixture(scope="class")
    def default_fft_spec(self):
        """A default-pipeline scenario over all 8 strategies."""
        return ScenarioSpec(
            platform="lille",
            workload=WorkloadSpec(family="fft", n_ptgs=2, seed=2),
        )

    def test_bit_identical_to_the_runner_path_for_all_8_strategies(
        self, default_fft_spec
    ):
        scenario_result = run_scenario(default_fft_spec)

        workload_spec = WorkloadSpec(family="fft", n_ptgs=2, seed=2)
        legacy = run_experiment(
            make_workload(workload_spec),
            grid5000.lille(),
            paper_strategies("fft"),
            workload_label=workload_spec.label(),
        )

        new = scenario_result.experiment
        assert list(new.outcomes) == list(legacy.outcomes)
        assert len(new.outcomes) == 8
        assert new.own_makespans == legacy.own_makespans
        assert new.platform == legacy.platform
        assert new.workload == legacy.workload
        for name in legacy.outcomes:
            ours, theirs = new.outcomes[name], legacy.outcomes[name]
            assert ours.betas == theirs.betas
            assert ours.makespans == theirs.makespans
            assert ours.slowdowns == theirs.slowdowns
            assert ours.unfairness == theirs.unfairness
            assert ours.batch_makespan == theirs.batch_makespan
            assert ours.mean_application_makespan == theirs.mean_application_makespan

    def test_workload_generation_is_shared_with_the_harness(self, default_fft_spec):
        ptgs = scenario_workload(default_fft_spec)
        legacy = make_workload(WorkloadSpec(family="fft", n_ptgs=2, seed=2))
        assert [p.name for p in ptgs] == [p.name for p in legacy]
        assert [t.flops for p in ptgs for t in p.tasks()] == [
            t.flops for p in legacy for t in p.tasks()
        ]

    def test_pipeline_selection_changes_the_outcome(self):
        default = run_scenario(tiny_spec())
        hcpa = run_scenario(tiny_spec(allocator="hcpa"))
        unpacked = run_scenario(tiny_spec(packing=False))
        # different allocators genuinely flow through to the metrics
        assert (
            hcpa.experiment.outcomes["ES"].makespans
            != default.experiment.outcomes["ES"].makespans
            or unpacked.experiment.outcomes["ES"].makespans
            != default.experiment.outcomes["ES"].makespans
        )

    def test_platform_object_override(self, small_platform):
        spec = tiny_spec()
        result = run_scenario(spec, platform=small_platform)
        assert result.experiment.platform == small_platform.name


class TestFamilyPlugins:
    def test_registered_family_runs_end_to_end(self, small_platform):
        """The documented plugin API: register a family, select it, run it."""
        from repro.dag.generator import RandomPTGConfig, generate_random_ptg
        from repro.scenarios.registry import FAMILIES

        def tiny_family(n_ptgs=4, seed=0, max_tasks=None):
            return [
                generate_random_ptg(
                    seed + i, RandomPTGConfig(n_tasks=4), name=f"tiny{seed}-{i}"
                )
                for i in range(n_ptgs)
            ]

        FAMILIES.register("tiny", tiny_family, description="4-task test graphs")
        try:
            spec = ScenarioSpec(
                platform="lille",
                workload=WorkloadSpec(family="tiny", n_ptgs=2, seed=1),
                strategies=("ES",),
            )
            result = run_scenario(spec, platform=small_platform)
            assert result.experiment.n_ptgs == 2
            assert result.unfairness_of("ES") >= 0.0
            assert WorkloadSpec(family="tiny", n_ptgs=2).family == "tiny"
            assert len(make_workload(WorkloadSpec(family="tiny", n_ptgs=3, seed=2))) == 3
        finally:
            FAMILIES._entries.pop("tiny", None)

    def test_unregistered_family_error_names_the_registry_entries(self):
        with pytest.raises(ConfigurationError) as err:
            WorkloadSpec(family="montecarlo")
        assert "mixed" in str(err.value)


class TestShardKeys:
    def test_shard_key_equals_spec_hash(self):
        spec = tiny_spec(allocator="scrap", packing=False)
        shard = ExperimentShard.from_scenario(spec)
        assert shard.key() == spec.content_hash()

    def test_make_shards_from_specs_preserves_order(self):
        specs = Scenario.on("lille").workload(
            family="random", n_ptgs=2, seed=5, max_tasks=8
        ).sweep(allocator=["hcpa", "scrap"])
        shards = make_shards_from_specs(specs)
        assert [s.index for s in shards] == [0, 1]
        assert [s.key() for s in shards] == [s.content_hash() for s in specs]

    def test_labels_of_pipeline_only_sweeps_stay_distinct(self):
        """Shards differing only in the pipeline are distinguishable in logs."""
        specs = Scenario.on("lille").workload(
            family="random", n_ptgs=2, seed=5, max_tasks=8
        ).sweep(allocator=["hcpa", "scrap"], packing=[True, False])
        labels = [s.label() for s in make_shards_from_specs(specs)]
        assert len(set(labels)) == len(labels)
        assert any("nopack" in label for label in labels)


class TestCannedSpecLists:
    def test_campaign_config_scenario_specs_share_shard_keys(self):
        from repro.campaigns.shards import make_shards
        from repro.experiments.runner import CampaignConfig

        config = CampaignConfig(
            family="fft", ptg_counts=(2, 3), workloads_per_point=2,
            platforms=(grid5000.lille(), grid5000.nancy()),
            strategy_names=("S", "ES"), base_seed=7,
        )
        specs = config.scenario_specs()
        shards = make_shards(config)
        assert len(specs) == len(shards) == 2 * 2 * 2
        assert [s.content_hash() for s in specs] == [s.key() for s in shards]

    def test_unregistered_platform_is_an_actionable_error(self, small_platform):
        from repro.experiments.runner import CampaignConfig

        config = CampaignConfig(platforms=(small_platform,))
        with pytest.raises(ConfigurationError, match="not registered"):
            config.scenario_specs()

    def test_figure_scenarios_enumerate_the_figure_grid(self):
        from repro.experiments.figures import figure_scenarios

        specs = figure_scenarios(
            5, ptg_counts=(2,), workloads_per_point=2,
            platforms=[grid5000.lille()],
        )
        assert len(specs) == 2
        assert all(s.workload.family == "strassen" for s in specs)
        # width strategies dropped for Strassen, as in the paper's legend
        assert all(
            "width" not in n for s in specs for n in s.resolved_strategy_names()
        )

    def test_mu_sweep_scenarios_put_mu_in_the_pipeline(self):
        from repro.experiments.mu_sweep import mu_sweep_scenarios

        specs = mu_sweep_scenarios(
            characteristic="width", mu_values=(0.0, 0.5), ptg_counts=(2,),
            workloads_per_point=1, platform_names=("lille",),
        )
        assert [s.pipeline.mu for s in specs] == [0.0, 0.5]
        assert all(s.strategies == ("WPS-width",) for s in specs)
        assert len({s.content_hash() for s in specs}) == 2


class TestRunScenarios:
    def sweep_specs(self):
        return Scenario.on("lille").workload(
            family="random", n_ptgs=2, seed=5, max_tasks=8
        ).pipeline(strategy=["S", "ES"]).sweep(allocator=["hcpa", "scrap-max"])

    def test_results_in_input_order(self):
        specs = self.sweep_specs()
        results = run_scenarios(specs, jobs=1)
        assert [r.spec for r in results] == specs
        assert all(sorted(r.experiment.outcomes) == ["ES", "S"] for r in results)

    def test_matches_run_scenario(self):
        specs = self.sweep_specs()
        batch = run_scenarios(specs, jobs=1)
        solo = run_scenario(specs[0])
        assert batch[0].experiment.outcomes["ES"].makespans == \
            solo.experiment.outcomes["ES"].makespans

    def test_duplicate_specs_share_one_execution(self):
        spec = tiny_spec()
        results = run_scenarios([spec, spec], jobs=1)
        assert results[0].experiment is results[1].experiment

    def test_empty_spec_list_raises(self):
        with pytest.raises(ConfigurationError):
            run_scenarios([], jobs=1)

    def test_store_resume_skips_completed_specs(self, tmp_path):
        specs = self.sweep_specs()
        store = CampaignStore(tmp_path / "store")
        first = run_scenarios(specs, jobs=1, store=store)
        assert len(store) == 2

        messages = []
        second = run_scenarios(specs, jobs=1, store=store, progress=messages.append)
        assert any("resuming: 2/2" in m for m in messages)
        for a, b in zip(first, second):
            assert a.experiment.outcomes["ES"].makespans == \
                b.experiment.outcomes["ES"].makespans
            assert a.experiment.own_makespans == b.experiment.own_makespans

    def test_resume_extends_to_supersets_of_the_sweep(self, tmp_path):
        """A spec-keyed store resumes even when the sweep grew."""
        specs = self.sweep_specs()
        store = CampaignStore(tmp_path / "store")
        run_scenarios(specs[:1], jobs=1, store=store)

        messages = []
        results = run_scenarios(specs, jobs=1, store=store, progress=messages.append)
        assert any("resuming: 1/2" in m for m in messages)
        assert len(results) == 2
        assert len(store) == 2

    def test_populated_store_without_resume_raises(self, tmp_path):
        specs = self.sweep_specs()
        store = CampaignStore(tmp_path / "store")
        run_scenarios(specs, jobs=1, store=store)
        with pytest.raises(CampaignError, match="resume"):
            run_scenarios(specs, jobs=1, store=store, resume=False)

    def test_store_accepts_a_path_string(self, tmp_path):
        run_scenarios([tiny_spec()], jobs=1, store=str(tmp_path / "s"))
        assert (tmp_path / "s" / "results.jsonl").exists()

    def test_parallel_matches_inline(self):
        specs = self.sweep_specs()
        inline = run_scenarios(specs, jobs=1)
        parallel = run_scenarios(specs, jobs=2)
        for a, b in zip(inline, parallel):
            for name in a.experiment.outcomes:
                assert a.experiment.outcomes[name].makespans == \
                    b.experiment.outcomes[name].makespans
