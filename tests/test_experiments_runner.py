"""Tests for the experiment / campaign runner."""

import pytest

from repro.allocation import iterative
from repro.allocation.scrap import ScrapMaxAllocator
from repro.constraints.base import ConstraintStrategy
from repro.constraints.registry import paper_strategies, strategy
from repro.dag.graph import PTG
from repro.exceptions import AllocationError, ConfigurationError, InvalidGraphError
from repro.experiments.runner import (
    CampaignConfig,
    CampaignResult,
    ExperimentResult,
    StrategyOutcome,
    compute_own_makespans,
    run_campaign,
    run_experiment,
)
from repro.experiments.workload import APPLICATION_FAMILIES, WorkloadSpec, make_workload
from repro.metrics.fairness import slowdowns, unfairness
from repro.platform import grid5000
from repro.platform.builder import heterogeneous_platform
from repro.scenarios.run import build_pipeline, reference_allocator_for
from repro.scenarios.spec import PipelineSpec
from repro.scheduler import concurrent
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.scheduler.single import SinglePTGScheduler
from repro.simulate.executor import ScheduleExecutor


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


def assembled(ptgs, platform, strategies, make_allocator, make_mapper, label):
    """The experiment put together by hand from fresh, unshared parts.

    A fresh :class:`ConcurrentScheduler` (with its own allocator) per
    strategy and a fresh default :class:`SinglePTGScheduler` for the
    references: nothing is primed and no memo is shared.
    """
    own = compute_own_makespans(ptgs, platform, SinglePTGScheduler())
    executor = ScheduleExecutor(platform)
    result = ExperimentResult(
        platform=platform.name, workload=label, n_ptgs=len(ptgs), own_makespans=own
    )
    for strat in strategies:
        scheduler = ConcurrentScheduler(
            strategy=strat, allocator=make_allocator(), mapper=make_mapper()
        )
        planned = scheduler.schedule(ptgs, platform)
        report = executor.execute(ptgs, planned.schedule)
        multi = report.makespans()
        sd = slowdowns(own, multi)
        result.outcomes[strat.name] = StrategyOutcome(
            strategy=strat.name,
            betas=dict(planned.betas),
            makespans=multi,
            slowdowns=sd,
            unfairness=unfairness(sd),
            batch_makespan=report.global_makespan(),
            mean_application_makespan=sum(multi.values()) / len(multi),
        )
    return result


class TestPrimedExperimentGolden:
    """A primed, shared-memo experiment equals its unshared assembly, field for field."""

    @staticmethod
    def workload(family, seed=3):
        return make_workload(WorkloadSpec(family, n_ptgs=3, seed=seed, max_tasks=10))

    @pytest.mark.parametrize("site", grid5000.site_names())
    @pytest.mark.parametrize("family", APPLICATION_FAMILIES)
    def test_default_pipeline(self, family, site):
        platform = grid5000.site(site)
        ptgs = self.workload(family)
        strategies = paper_strategies(family, include_width=family != "strassen")
        expected = assembled(
            ptgs, platform, strategies, ScrapMaxAllocator,
            lambda: build_pipeline(PipelineSpec())[1], "golden",
        )
        assert run_experiment(ptgs, platform, strategies, "golden") == expected

    @pytest.mark.parametrize("name", ["hcpa", "scrap", "scrap-max"])
    def test_registry_pipelines(self, name):
        platform = grid5000.site("nancy")
        ptgs = self.workload("random", seed=8)
        strategies = paper_strategies("random")
        pipeline = PipelineSpec(allocator=name)
        allocator, mapper = build_pipeline(pipeline)
        # only SCRAP-MAX computes the references' allocation: the others
        # keep the references on their own allocator
        reference = reference_allocator_for(pipeline, allocator)
        assert (reference is allocator) == (name == "scrap-max")
        expected = assembled(
            ptgs, platform, strategies, lambda: build_pipeline(pipeline)[0],
            lambda: mapper, "golden",
        )
        actual = run_experiment(
            ptgs, platform, strategies, "golden", allocator=allocator,
            mapper=mapper, reference_allocator=reference,
        )
        assert actual == expected

    def test_guarded_allocator_keeps_the_references_apart(self):
        platform = grid5000.site("rennes")
        ptgs = self.workload("fft", seed=4)
        strategies = paper_strategies("fft")
        guarded = lambda: ScrapMaxAllocator(efficiency_threshold=0.6)  # noqa: E731
        # the guard changes the beta = 1 allocation, so a shared reference
        # would show in the own makespans
        assert compute_own_makespans(
            ptgs, platform, SinglePTGScheduler(guarded())
        ) != compute_own_makespans(ptgs, platform)
        expected = assembled(
            ptgs, platform, strategies, guarded,
            lambda: build_pipeline(PipelineSpec())[1], "golden",
        )
        actual = run_experiment(ptgs, platform, strategies, "golden", allocator=guarded())
        assert actual == expected

    def test_primed_experiment_builds_no_allocation_tables(self, monkeypatch):
        platform = grid5000.site("lille")
        ptgs = self.workload("random", seed=5)
        strategies = paper_strategies("random")
        sweeps = []
        sweep = concurrent.prepare_allocation_tables

        def counted(graphs, reference, cap):
            sweeps.append([ptg.name for ptg in graphs])
            sweep(graphs, reference, cap)

        monkeypatch.setattr(concurrent, "prepare_allocation_tables", counted)
        # fresh allocators miss: every schedule() sweeps the whole workload
        expected = assembled(
            ptgs, platform, strategies, ScrapMaxAllocator,
            lambda: build_pipeline(PipelineSpec())[1], "golden",
        )
        assert sweeps == [[ptg.name for ptg in ptgs]] * len(strategies)
        # the primed experiment answers every allocation from the memo
        sweeps.clear()
        assert run_experiment(ptgs, platform, strategies, "golden") == expected
        assert sweeps == []

    def test_evicted_primes_still_equal(self, monkeypatch):
        monkeypatch.setattr(iterative, "MEMO_CAPACITY", 4)
        platform = grid5000.site("sophia")
        ptgs = self.workload("mixed", seed=6)
        strategies = paper_strategies("mixed")
        expected = assembled(
            ptgs, platform, strategies, ScrapMaxAllocator,
            lambda: build_pipeline(PipelineSpec())[1], "golden",
        )
        assert run_experiment(ptgs, platform, strategies, "golden") == expected


class FixedBeta(ConstraintStrategy):
    """One beta for every graph, except an optional one left out."""

    name = "fixed"

    def __init__(self, beta, skip=None):
        self.beta = beta
        self.skip = skip

    def compute_betas(self, ptgs, platform):
        """*beta* for every graph but the skipped one."""
        return {p.name: self.beta for p in ptgs if p.name != self.skip}


class TestPrimingErrorContract:
    """A bad input raises the class and message it raised before priming."""

    def test_duplicate_names(self, platform, workload):
        ptgs = [workload[0], workload[1], workload[0].copy()]
        with pytest.raises(ConfigurationError) as info:
            run_experiment(ptgs, platform, [strategy("ES")])
        names = [p.name for p in ptgs]
        assert str(info.value) == f"concurrent PTGs must have unique names, got {names}"

    def test_empty_ptg(self, platform, workload):
        with pytest.raises(InvalidGraphError) as info:
            run_experiment([workload[0], PTG("hollow")], platform, [strategy("ES")])
        assert str(info.value) == "PTG 'hollow' is empty"

    def test_none_ptg(self, platform, workload):
        with pytest.raises(ConfigurationError) as info:
            run_experiment([workload[0], None], platform, [strategy("ES")])
        assert str(info.value) == "ptg must not be None"

    def test_none_ptg_with_own_makespans(self, platform, workload):
        own = {workload[0].name: 1.0}
        with pytest.raises(ConfigurationError) as info:
            run_experiment(
                [workload[0], None], platform, [strategy("ES")], own_makespans=own
            )
        assert str(info.value) == "ptg must not be None"

    def test_strategy_leaving_a_graph_out(self, platform, workload):
        left_out = workload[1].name
        with pytest.raises(ConfigurationError) as info:
            run_experiment(
                workload, platform, [strategy("S"), FixedBeta(0.5, skip=left_out)]
            )
        assert str(info.value) == (
            f"strategy 'fixed' did not assign a constraint to {[left_out]}"
        )

    @pytest.mark.parametrize("beta", [0.0, 1.5])
    def test_beta_out_of_range(self, platform, workload, beta):
        with pytest.raises(AllocationError) as info:
            run_experiment(workload, platform, [strategy("ES"), FixedBeta(beta)])
        assert str(info.value) == f"beta must be in (0, 1], got {beta}"


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

    @pytest.mark.parametrize("max_tasks", [0, -5])
    def test_task_cap_below_one_is_refused(self, max_tasks):
        with pytest.raises(ConfigurationError, match=(
            f"max_tasks must be a positive integer or null, got {max_tasks}"
        )):
            CampaignConfig(max_tasks=max_tasks)

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
