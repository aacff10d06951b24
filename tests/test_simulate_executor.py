"""Tests for the schedule executor (the SimGrid-substitute measurement layer)."""

import pytest

from repro.allocation.scrap import ScrapMaxAllocator
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.exceptions import SimulationError
from repro.mapping.base import AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.simulate.executor import ScheduleExecutor

from tests.conftest import make_chain_ptg, make_diamond_ptg


def plan(ptgs, platform, beta=1.0):
    allocated = [
        AllocatedPTG(p, ScrapMaxAllocator().allocate(p, platform, beta=beta))
        for p in ptgs
    ]
    return ReadyListMapper().map(allocated, platform)


class TestExecution:
    def test_every_task_gets_a_record(self, medium_platform, random_workload):
        schedule = plan(random_workload, medium_platform, beta=1 / 3)
        report = ScheduleExecutor(medium_platform).execute(random_workload, schedule)
        assert len(report.records) == sum(p.n_tasks for p in random_workload)

    def test_precedences_respected_in_measured_times(self, medium_platform, random_workload):
        schedule = plan(random_workload, medium_platform, beta=1 / 3)
        report = ScheduleExecutor(medium_platform).execute(random_workload, schedule)
        by_key = {(r.ptg_name, r.task_id): r for r in report.records}
        for ptg in random_workload:
            for src, dst, _ in ptg.edges():
                assert by_key[(ptg.name, dst)].start >= by_key[(ptg.name, src)].finish - 1e-9

    def test_durations_match_cost_model(self, medium_platform, diamond_ptg):
        schedule = plan([diamond_ptg], medium_platform)
        report = ScheduleExecutor(medium_platform).execute([diamond_ptg], schedule)
        for record in report.records:
            entry = schedule.entry(record.ptg_name, record.task_id)
            cluster = medium_platform.cluster(record.cluster_name)
            task = diamond_ptg.task(record.task_id)
            expected = task.execution_time(entry.num_processors, cluster.speed_flops)
            assert record.duration == pytest.approx(expected)

    def test_measured_makespan_at_least_planned_span(self, medium_platform, random_workload):
        """Contention can only delay tasks with respect to the mapper's estimates."""
        schedule = plan(random_workload, medium_platform, beta=1 / 3)
        report = ScheduleExecutor(medium_platform).execute(random_workload, schedule)
        for ptg in random_workload:
            assert report.makespan(ptg.name) >= schedule.span(ptg.name) * 0.5

    def test_chain_executes_sequentially(self, medium_platform):
        ptg = make_chain_ptg(n=4)
        schedule = plan([ptg], medium_platform)
        report = ScheduleExecutor(medium_platform).execute([ptg], schedule)
        records = sorted(report.records, key=lambda r: r.task_id)
        for a, b in zip(records, records[1:]):
            assert b.start >= a.finish - 1e-9

    def test_missing_task_in_schedule_rejected(self, medium_platform, diamond_ptg):
        schedule = Schedule(medium_platform.name)
        schedule.add(
            ScheduledTask(
                ptg_name=diamond_ptg.name, task_id=0,
                cluster_name=medium_platform.cluster_names()[0],
                processors=(0,), start=0.0, finish=1.0,
            )
        )
        with pytest.raises(SimulationError):
            ScheduleExecutor(medium_platform).execute([diamond_ptg], schedule)

    def test_tied_zero_length_tasks_queue_in_topological_order(self, medium_platform):
        # two zero-length tasks of one application planned at the same
        # instant on one processor: the queue follows the topological
        # order (task 1 precedes task 0), or the successor would hold the
        # processor its predecessor needs
        ptg = PTG("ties")
        for task_id in (0, 1):
            ptg.add_task(Task(task_id, flops=0.0, alpha=0.0, data_elements=0.0))
        ptg.add_edge(1, 0, 0.0)
        cluster = medium_platform.cluster_names()[0]
        schedule = Schedule(medium_platform.name)
        for task_id in (0, 1):
            schedule.add(
                ScheduledTask(
                    ptg_name="ties", task_id=task_id, cluster_name=cluster,
                    processors=(0,), start=0.0, finish=0.0,
                )
            )
        report = ScheduleExecutor(medium_platform).execute([ptg], schedule)
        assert [record.task_id for record in report.records] == [1, 0]

    def test_empty_workload_rejected(self, medium_platform):
        with pytest.raises(SimulationError):
            ScheduleExecutor(medium_platform).execute([], Schedule("x"))

    def test_measure_makespans_wrapper(self, medium_platform, diamond_ptg):
        schedule = plan([diamond_ptg], medium_platform)
        makespans = ScheduleExecutor(medium_platform).measure_makespans([diamond_ptg], schedule)
        assert set(makespans) == {diamond_ptg.name}
        assert makespans[diamond_ptg.name] > 0

    def test_network_counters_populated(self, medium_platform, random_workload):
        schedule = plan(random_workload, medium_platform, beta=1 / 3)
        report = ScheduleExecutor(medium_platform).execute(random_workload, schedule)
        # some redistribution crosses clusters in almost any mapping of a
        # multi-application workload on a three-cluster platform
        assert report.network_flows >= 0
        assert report.network_bytes >= 0


class TestReportAggregation:
    def test_report_quantities(self, medium_platform, random_workload):
        schedule = plan(random_workload, medium_platform, beta=1 / 3)
        report = ScheduleExecutor(medium_platform).execute(random_workload, schedule)
        assert set(report.application_names()) == {p.name for p in random_workload}
        assert report.global_makespan() == pytest.approx(
            max(report.makespans().values())
        )
        assert report.busy_processor_seconds() > 0
        assert 0 < report.utilisation(medium_platform.total_processors) <= 1
        assert report.total_delay() >= 0
        table = report.to_table()
        assert "makespan" in table

    def test_unknown_application(self, medium_platform, diamond_ptg):
        schedule = plan([diamond_ptg], medium_platform)
        report = ScheduleExecutor(medium_platform).execute([diamond_ptg], schedule)
        with pytest.raises(SimulationError):
            report.records_of("nope")
