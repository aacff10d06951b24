"""Tests for the multi-DAG aggregation baseline."""

import pytest

from repro.baselines.aggregation import AggregationScheduler, aggregate_ptgs
from repro.baselines.heft import HEFTScheduler
from repro.exceptions import MappingError
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, make_diamond_ptg


class TestAggregatePtgs:
    def test_composite_contains_all_tasks(self, random_workload):
        composite, back_map = aggregate_ptgs(random_workload)
        total = sum(p.n_tasks for p in random_workload)
        assert len(back_map) == total
        assert composite.n_tasks >= total  # plus glue entry/exit
        composite.validate()

    def test_back_map_covers_every_original_task(self, random_workload):
        _, back_map = aggregate_ptgs(random_workload)
        expected = {
            (p.name, t.task_id) for p in random_workload for t in p.tasks()
        }
        assert set(back_map.values()) == expected

    def test_single_entry_and_exit(self, random_workload):
        composite, _ = aggregate_ptgs(random_workload)
        assert len(composite.entry_tasks()) == 1
        assert len(composite.exit_tasks()) == 1

    def test_edges_preserved(self):
        a = make_diamond_ptg("a")
        b = make_chain_ptg("b", n=3)
        composite, back_map = aggregate_ptgs([a, b])
        reverse = {v: k for k, v in back_map.items()}
        for src, dst, _ in a.edges():
            assert composite.has_edge(reverse[("a", src)], reverse[("a", dst)])

    def test_duplicate_names_rejected(self):
        with pytest.raises(MappingError):
            aggregate_ptgs([make_chain_ptg("x"), make_chain_ptg("x")])

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            aggregate_ptgs([])


class TestAggregationScheduler:
    def test_schedules_every_application(self, medium_platform, random_workload):
        schedule = AggregationScheduler().schedule(random_workload, medium_platform)
        for ptg in random_workload:
            assert len(schedule.entries_of(ptg.name)) == ptg.n_tasks
        validate_schedule(schedule).raise_if_invalid()

    def test_precedences_respected_per_application(self, medium_platform, random_workload):
        schedule = AggregationScheduler().schedule(random_workload, medium_platform)
        validate_schedule(schedule, ptgs=random_workload).raise_if_invalid()

    def test_alternative_inner_scheduler(self, medium_platform, random_workload):
        schedule = AggregationScheduler(inner=HEFTScheduler()).schedule(
            random_workload, medium_platform
        )
        assert all(entry.num_processors == 1 for entry in schedule)

    def test_makespans_positive(self, medium_platform, random_workload):
        schedule = AggregationScheduler().schedule(random_workload, medium_platform)
        for name, makespan in schedule.makespans().items():
            assert makespan > 0
