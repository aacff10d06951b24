"""Tests for experiment workload generation."""

import pytest

from repro.dag.strassen import STRASSEN_TASK_COUNT
from repro.exceptions import ConfigurationError
from repro.experiments.workload import (
    APPLICATION_FAMILIES,
    PAPER_PTG_COUNTS,
    PAPER_WORKLOADS_PER_POINT,
    WorkloadSpec,
    make_workload,
    paper_workload_specs,
)


class TestWorkloadSpec:
    def test_defaults(self):
        spec = WorkloadSpec()
        assert spec.family == "random"
        assert spec.n_ptgs == 4

    def test_label(self):
        assert WorkloadSpec("fft", 6, 3).label() == "fft-x6-seed3"

    def test_invalid_family(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(family="montecarlo")

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_ptgs=0)

    @pytest.mark.parametrize("max_tasks", [0, -5])
    def test_invalid_task_cap(self, max_tasks):
        with pytest.raises(ConfigurationError, match=(
            f"max_tasks must be a positive integer or null, got {max_tasks}"
        )):
            WorkloadSpec(max_tasks=max_tasks)


class TestMakeWorkload:
    @pytest.mark.parametrize("family", APPLICATION_FAMILIES)
    def test_families_produce_named_valid_graphs(self, family):
        ptgs = make_workload(WorkloadSpec(family=family, n_ptgs=3, seed=1))
        assert len(ptgs) == 3
        assert len({p.name for p in ptgs}) == 3
        for ptg in ptgs:
            ptg.validate()

    def test_deterministic_in_seed(self):
        a = make_workload(WorkloadSpec("random", 3, seed=9))
        b = make_workload(WorkloadSpec("random", 3, seed=9))
        assert [p.n_tasks for p in a] == [p.n_tasks for p in b]
        assert [t.flops for p, q in zip(a, b) for t in p.tasks()] == [
            t.flops for p, q in zip(a, b) for t in q.tasks()
        ]

    def test_different_seeds_differ(self):
        a = make_workload(WorkloadSpec("random", 3, seed=1))
        b = make_workload(WorkloadSpec("random", 3, seed=2))
        assert [t.flops for p in a for t in p.tasks()] != [
            t.flops for p in b for t in p.tasks()
        ]

    def test_max_tasks_cap(self):
        ptgs = make_workload(WorkloadSpec("random", 5, seed=0, max_tasks=10))
        assert all(len(p.real_tasks()) <= 10 for p in ptgs)

    def test_strassen_fixed_size(self):
        ptgs = make_workload(WorkloadSpec("strassen", 4, seed=0))
        assert all(p.n_tasks == STRASSEN_TASK_COUNT for p in ptgs)


class TestPaperWorkloadSpecs:
    def test_grid_size(self):
        specs = paper_workload_specs("random", ptg_counts=(2, 4), workloads_per_point=3)
        assert len(specs) == 6

    def test_paper_scale(self):
        specs = paper_workload_specs("random")
        assert len(specs) == len(PAPER_PTG_COUNTS) * PAPER_WORKLOADS_PER_POINT

    def test_unique_seeds(self):
        specs = paper_workload_specs("fft", ptg_counts=(2, 4, 6), workloads_per_point=5)
        seeds = [(s.n_ptgs, s.seed) for s in specs]
        assert len(set(seeds)) == len(seeds)

    def test_invalid_workloads_per_point(self):
        with pytest.raises(ConfigurationError):
            paper_workload_specs("random", workloads_per_point=0)
