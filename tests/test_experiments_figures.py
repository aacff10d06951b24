"""Tests for the figure harnesses (Figures 2-5) at a reduced scale."""

from collections import Counter

import pytest

from repro import obs
from repro.exceptions import ConfigurationError
from repro.experiments import runner
from repro.experiments.figures import FIGURE_FAMILIES, run_figure
from repro.experiments.mu_sweep import run_mu_sweep
from repro.experiments.reporting import (
    render_campaign_summary,
    render_figure,
    render_mu_sweep,
)
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform.builder import heterogeneous_platform
from repro.scenarios.registry import STRATEGIES
from repro.scenarios.run import build_pipeline
from repro.scenarios.spec import PipelineSpec


@pytest.fixture(scope="module")
def tiny_platform():
    return heterogeneous_platform((10, 14), (3.0, 4.0), name="fig-platform")


class TestRunFigure:
    def test_unknown_figure(self):
        with pytest.raises(ConfigurationError):
            run_figure(7)

    def test_figure_families(self):
        assert FIGURE_FAMILIES == {3: "random", 4: "fft", 5: "strassen"}

    @pytest.mark.parametrize("figure", [3, 5])
    def test_reduced_figure_runs(self, figure, tiny_platform):
        result = run_figure(
            figure,
            ptg_counts=(2,),
            workloads_per_point=1,
            platforms=[tiny_platform],
            base_seed=3,
            max_tasks=8,
        )
        assert result.ptg_counts == [2]
        strategies = result.strategies()
        assert "S" in strategies and "ES" in strategies
        if figure == 5:
            assert "WPS-width" not in strategies
        for name in strategies:
            assert result.unfairness_at(name, 2) >= 0
            assert result.relative_makespan_at(name, 2) >= 1.0
        # rendering works
        text = render_figure(result)
        assert f"Figure {figure}" in text
        summary = render_campaign_summary(result.campaign)
        assert "strategy" in summary

    def test_mean_helpers(self, tiny_platform):
        result = run_figure(
            3, ptg_counts=(2,), workloads_per_point=1,
            platforms=[tiny_platform], base_seed=1, max_tasks=8,
        )
        for name in result.strategies():
            assert result.mean_unfairness(name) == pytest.approx(
                result.unfairness_at(name, 2)
            )
            assert result.mean_relative_makespan(name) >= 1.0


class TestMuSweep:
    def test_reduced_sweep(self, tiny_platform):
        result = run_mu_sweep(
            characteristic="work",
            family="random",
            mu_values=(0.0, 1.0),
            ptg_counts=(2,),
            workloads_per_point=1,
            platforms=[tiny_platform],
            base_seed=2,
            max_tasks=8,
        )
        assert result.mu_values == [0.0, 1.0]
        assert result.ptg_counts == [2]
        assert len(result.unfairness[2]) == 2
        assert len(result.average_makespan[2]) == 2
        assert 0.0 <= result.recommended_mu() <= 1.0
        text = render_mu_sweep(result)
        assert "Figure 2" in text

    def test_references_are_computed_once_per_cell(self, tiny_platform, monkeypatch):
        calls = []
        real = runner.compute_own_makespans
        monkeypatch.setattr(
            runner, "compute_own_makespans",
            lambda ptgs, platform: calls.append(platform.name) or real(ptgs, platform),
        )
        run_mu_sweep(
            mu_values=(0.0, 0.7, 1.0), ptg_counts=(2,), workloads_per_point=2,
            platforms=[tiny_platform], base_seed=4, max_tasks=8,
        )
        assert len(calls) == 2  # one per (workload, platform) cell, not per mu

    def test_shared_references_keep_the_series(self, tiny_platform):
        """Each mu's series equals per-mu experiments that recompute the references."""
        mu_values = (0.0, 0.7)
        result = run_mu_sweep(
            mu_values=mu_values, ptg_counts=(2,), workloads_per_point=2,
            platforms=[tiny_platform], base_seed=4, max_tasks=8,
        )
        workloads = [
            make_workload(WorkloadSpec("random", n_ptgs=2, seed=4 + 2000 + index,
                                       max_tasks=8))
            for index in range(2)
        ]
        for position, mu in enumerate(mu_values):
            pipeline = PipelineSpec(mu=mu)
            wps = STRATEGIES.create("WPS-work", mu=pipeline.mu, family="random")
            allocator, mapper = build_pipeline(pipeline)
            outcomes = [
                runner.run_experiment(
                    ptgs, tiny_platform, [wps], allocator=allocator, mapper=mapper,
                ).outcomes[wps.name]
                for ptgs in workloads
            ]
            assert result.unfairness[2][position] == (
                sum(o.unfairness for o in outcomes) / len(outcomes)
            )
            assert result.average_makespan[2][position] == (
                sum(o.mean_application_makespan for o in outcomes) / len(outcomes)
            )

    def test_each_graph_of_a_cell_runs_one_forked_pass(self, tiny_platform):
        mu_values = (0.0, 0.7, 1.0)
        with obs.capture() as session:
            run_mu_sweep(
                mu_values=mu_values, ptg_counts=(2,), workloads_per_point=2,
                platforms=[tiny_platform], base_seed=4, max_tasks=8,
            )
        graphs = 2 * 2  # two cells of two graphs, all differently named
        passes = Counter(
            s.labels["ptg"] for s in session.spans if s.name == "allocation.iterate"
        )
        # per graph: one pass for every mu's beta, and the reference's own
        assert len(passes) == graphs and set(passes.values()) == {2}
        counters = session.registry.counters
        assert counters["allocation.memo_hits"].value == graphs * len(mu_values)
        assert counters["allocation.calls"].value == graphs * (len(mu_values) + 1)

    def test_invalid_arguments(self, tiny_platform):
        with pytest.raises(ConfigurationError):
            run_mu_sweep(mu_values=(), platforms=[tiny_platform])
        with pytest.raises(ConfigurationError):
            run_mu_sweep(workloads_per_point=0, platforms=[tiny_platform])


class TestFigureParallelPath:
    def test_resume_without_store_is_refused(self):
        with pytest.raises(ConfigurationError, match="store"):
            run_figure(3, ptg_counts=(2,), workloads_per_point=1, resume=True)
