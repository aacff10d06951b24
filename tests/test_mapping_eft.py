"""Tests for the EFT placement engine and the allocation packing mechanism."""

import pytest

from repro.allocation.base import Allocation
from repro.allocation.reference import ReferenceCluster
from repro.mapping.eft import PlacementEngine
from repro.mapping.schedule import Schedule
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, make_fork_join_ptg


def allocation_for(ptg, platform, procs_per_task=1, beta=1.0):
    alloc = Allocation(ptg, ReferenceCluster.of(platform), beta=beta)
    if procs_per_task > 1:
        for task in ptg.tasks():
            alloc.set_processors(task.task_id, procs_per_task)
    return alloc


class TestBasicPlacement:
    def test_entry_task_starts_at_zero(self, small_platform, chain_ptg):
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(chain_ptg, small_platform)
        entry = engine.place("app", chain_ptg.task(0), alloc, [], schedule)
        assert entry.start == 0.0
        assert entry.finish > 0.0
        assert schedule.has_entry("app", 0)

    def test_prefers_fastest_cluster_when_idle(self, small_platform, chain_ptg):
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(chain_ptg, small_platform)
        entry = engine.place("app", chain_ptg.task(0), alloc, [], schedule)
        # the 4 GFlop/s cluster always wins for a 1-processor allocation
        fastest = max(small_platform, key=lambda c: c.speed_gflops)
        assert entry.cluster_name == fastest.name

    def test_successor_waits_for_predecessor(self, small_platform, chain_ptg):
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(chain_ptg, small_platform)
        first = engine.place("app", chain_ptg.task(0), alloc, [], schedule)
        second = engine.place(
            "app", chain_ptg.task(1), alloc,
            [(0, chain_ptg.edge_data(0, 1))], schedule,
        )
        assert second.start >= first.finish

    def test_not_before_respected(self, small_platform, chain_ptg):
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(chain_ptg, small_platform)
        entry = engine.place("app", chain_ptg.task(0), alloc, [], schedule, not_before=7.5)
        assert entry.start >= 7.5

    def test_no_processor_overlap_after_many_placements(self, small_platform, fork_join_ptg):
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(fork_join_ptg, small_platform, procs_per_task=3)
        order = fork_join_ptg.topological_order()
        for tid in order:
            preds = [
                (p, fork_join_ptg.edge_data(p, tid))
                for p in fork_join_ptg.predecessors(tid)
            ]
            engine.place(fork_join_ptg.name, fork_join_ptg.task(tid), alloc, preds, schedule)
        validate_schedule(schedule, ptgs=[fork_join_ptg]).raise_if_invalid()

    def test_reference_allocation_recorded(self, small_platform, chain_ptg):
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(chain_ptg, small_platform, procs_per_task=4)
        entry = engine.place("app", chain_ptg.task(0), alloc, [], schedule)
        assert entry.reference_processors == 4


class TestPacking:
    def make_busy_platform_schedule(self, platform, engine, schedule, ptg, alloc):
        """Fill most processors so the next task is delayed."""
        # occupy everything with the wide level of a fork-join graph
        for tid in ptg.topological_order():
            preds = [(p, ptg.edge_data(p, tid)) for p in ptg.predecessors(tid)]
            engine.place("bg", ptg.task(tid), alloc, preds, schedule)

    def test_packing_reduces_allocation_when_beneficial(self, small_platform):
        background = make_fork_join_ptg("bg", width=6, flops=60e9, alpha=0.05)
        bg_alloc = allocation_for(background, small_platform, procs_per_task=3)
        engine = PlacementEngine(small_platform, enable_packing=True)
        schedule = Schedule(small_platform.name)
        self.make_busy_platform_schedule(small_platform, engine, schedule, background, bg_alloc)

        probe = make_chain_ptg("probe", n=1, flops=10e9, alpha=0.05)
        probe_alloc = allocation_for(probe, small_platform, procs_per_task=8)
        entry = engine.place("probe", probe.task(0), probe_alloc, [], schedule)
        # either it fit at full size or the packing reduced it; in both cases
        # the schedule stays consistent
        assert 1 <= entry.num_processors <= 8
        validate_schedule(schedule).raise_if_invalid()

    def test_packing_never_hurts_finish_time(self, small_platform):
        background = make_fork_join_ptg("bg", width=6, flops=60e9, alpha=0.05)
        bg_alloc = allocation_for(background, small_platform, procs_per_task=3)

        results = {}
        for packing in (True, False):
            engine = PlacementEngine(small_platform, enable_packing=packing)
            schedule = Schedule(small_platform.name)
            self.make_busy_platform_schedule(
                small_platform, engine, schedule, background, bg_alloc
            )
            probe = make_chain_ptg("probe", n=1, flops=10e9, alpha=0.05)
            probe_alloc = allocation_for(probe, small_platform, procs_per_task=8)
            entry = engine.place("probe", probe.task(0), probe_alloc, [], schedule)
            results[packing] = entry.finish
        assert results[True] <= results[False] + 1e-9

    def test_packing_counter(self, small_platform):
        engine = PlacementEngine(small_platform, enable_packing=True)
        assert engine.packed_tasks == 0


class TestPackingDegeneratesToOneProcessor:
    def test_packing_degenerates_to_single_processor(self, small_platform):
        """A busy cluster plus a highly parallelizable probe can pack to p=1.

        One processor of the fast cluster is left idle while all the
        others are busy for a long time; the probe's requested allocation
        would wait, but on a single processor it starts immediately and
        (alpha=0) finishes no later -- the paper's packing rule therefore
        shrinks the allocation all the way down to one processor.
        """
        engine = PlacementEngine(small_platform, enable_packing=True)
        schedule = Schedule(small_platform.name)
        fast = max(small_platform, key=lambda c: c.speed_gflops)
        slow = min(small_platform, key=lambda c: c.speed_gflops)
        # occupy all but one processor of the fast cluster, and the whole
        # slow cluster even longer so it never wins the EFT comparison
        engine.timelines.timeline(fast.name).reserve(
            fast.num_processors - 1, 0.0, 1000.0
        )
        engine.timelines.timeline(slow.name).reserve(
            slow.num_processors, 0.0, 10000.0
        )

        probe = make_chain_ptg("probe", n=1, flops=4e9, alpha=0.0)
        alloc = allocation_for(probe, small_platform, procs_per_task=8)
        entry = engine.place("probe", probe.task(0), alloc, [], schedule)
        assert entry.cluster_name == fast.name
        assert entry.num_processors == 1
        assert entry.start == 0.0
        assert engine.packed_tasks == 1

    def test_negative_ready_time_rejected(self, small_platform, chain_ptg):
        from repro.exceptions import MappingError

        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        alloc = allocation_for(chain_ptg, small_platform)
        with pytest.raises(MappingError, match="ready_time must be non-negative"):
            engine.place("app", chain_ptg.task(0), alloc, [], schedule, not_before=-1.0)
