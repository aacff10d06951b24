"""Tests for the experiment / campaign runner."""

import pytest

from repro.constraints.registry import strategy
from repro.exceptions import ConfigurationError
from repro.experiments.runner import (
    CampaignConfig,
    CampaignResult,
    ExperimentResult,
    StrategyOutcome,
    compute_own_makespans,
    run_campaign,
    run_experiment,
)
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform.builder import heterogeneous_platform


@pytest.fixture(scope="module")
def platform():
    return heterogeneous_platform((12, 16), (3.0, 4.0), name="exp-platform")


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadSpec("random", n_ptgs=3, seed=5, max_tasks=10))


class TestOwnMakespans:
    def test_one_value_per_application(self, platform, workload):
        own = compute_own_makespans(workload, platform)
        assert set(own) == {p.name for p in workload}
        assert all(v > 0 for v in own.values())


class TestRunExperiment:
    def test_outcomes_per_strategy(self, platform, workload):
        strategies = [strategy("S"), strategy("ES")]
        result = run_experiment(workload, platform, strategies, workload_label="t")
        assert set(result.outcomes) == {"S", "ES"}
        assert result.n_ptgs == 3
        for outcome in result.outcomes.values():
            assert set(outcome.makespans) == {p.name for p in workload}
            assert outcome.unfairness >= 0
            assert outcome.batch_makespan >= max(outcome.makespans.values()) - 1e-9

    def test_own_makespans_can_be_reused(self, platform, workload):
        own = compute_own_makespans(workload, platform)
        result = run_experiment(
            workload, platform, [strategy("ES")], own_makespans=own
        )
        assert result.own_makespans == own

    def test_batch_makespans_view(self, platform, workload):
        result = run_experiment(workload, platform, [strategy("S"), strategy("ES")])
        batch = result.batch_makespans()
        assert set(batch) == {"S", "ES"}

    def test_invalid_inputs(self, platform, workload):
        with pytest.raises(ConfigurationError):
            run_experiment([], platform, [strategy("ES")])
        with pytest.raises(ConfigurationError):
            run_experiment(workload, platform, [])


class TestCampaign:
    def test_small_campaign_aggregates(self, platform):
        config = CampaignConfig(
            family="random",
            ptg_counts=(2, 3),
            workloads_per_point=1,
            platforms=(platform,),
            strategy_names=("S", "ES"),
            base_seed=11,
            max_tasks=8,
        )
        result = run_campaign(config)
        assert isinstance(result, CampaignResult)
        assert result.ptg_counts() == [2, 3]
        assert set(result.strategy_names()) == {"S", "ES"}
        unfair = result.average_unfairness()
        relative = result.average_relative_makespan()
        for name in ("S", "ES"):
            assert len(unfair[name]) == 2
            assert len(relative[name]) == 2
            assert all(v >= 1.0 for v in relative[name])
        mean_app = result.average_mean_application_makespan()
        assert all(v > 0 for series in mean_app.values() for v in series)

    def test_progress_callback(self, platform):
        messages = []
        config = CampaignConfig(
            family="random", ptg_counts=(2,), workloads_per_point=1,
            platforms=(platform,), strategy_names=("ES",), max_tasks=8,
        )
        run_campaign(config, progress=messages.append)
        assert len(messages) == 1

    def test_strassen_config_drops_width_strategies(self):
        config = CampaignConfig(family="strassen")
        names = [s.name for s in config.resolved_strategies()]
        assert "WPS-width" not in names

    def test_default_platforms_are_grid5000(self):
        config = CampaignConfig()
        assert [p.name for p in config.resolved_platforms()] == [
            "lille", "nancy", "rennes", "sophia",
        ]

    def test_missing_count_query_raises(self, platform):
        result = CampaignResult(config=CampaignConfig())
        with pytest.raises(ConfigurationError):
            result._experiments_at(4)


def experiment_with(strategies, n_ptgs):
    """A minimal experiment result reporting *strategies* at *n_ptgs*."""
    outcomes = {
        name: StrategyOutcome(
            strategy=name, betas={}, makespans={}, slowdowns={},
            unfairness=1.0, batch_makespan=10.0, mean_application_makespan=5.0,
        )
        for name in strategies
    }
    return ExperimentResult(
        platform="p", workload="w", n_ptgs=n_ptgs, own_makespans={},
        outcomes=outcomes,
    )


class TestMismatchedStrategySets:
    """A strategy missing from some experiment is a ConfigurationError, never a KeyError."""

    @pytest.mark.parametrize("method", [
        "average_unfairness",
        "average_relative_makespan",
        "average_mean_application_makespan",
    ])
    @pytest.mark.parametrize("second_count", [2, 4], ids=["same-count", "across-counts"])
    def test_every_average_refuses_mixed_sets(self, method, second_count):
        result = CampaignResult(
            config=CampaignConfig(),
            experiments=[
                experiment_with(("S", "ES"), n_ptgs=2),
                experiment_with(("S",), n_ptgs=second_count),
            ],
        )
        with pytest.raises(ConfigurationError, match="same strategies"):
            getattr(result, method)()

    def test_reordered_sets_are_the_same_set(self):
        result = CampaignResult(
            config=CampaignConfig(),
            experiments=[
                experiment_with(("S", "ES"), n_ptgs=2),
                experiment_with(("ES", "S"), n_ptgs=2),
            ],
        )
        assert result.strategy_names() == ["S", "ES"]
        assert result.average_unfairness() == {"S": [1.0], "ES": [1.0]}
