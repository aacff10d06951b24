"""Tests for the ready-list concurrent mapper (the paper's proposal)."""

import pytest

from repro.allocation.base import Allocation
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapMaxAllocator
from repro.exceptions import MappingError
from repro.mapping.base import AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.mapping.global_order import GlobalOrderMapper
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, make_fork_join_ptg


def allocate(ptg, platform, beta=1.0):
    return AllocatedPTG(ptg, ScrapMaxAllocator().allocate(ptg, platform, beta=beta))


class TestSingleApplication:
    def test_all_tasks_placed(self, small_platform, small_random_ptg):
        schedule = ReadyListMapper().map([allocate(small_random_ptg, small_platform)], small_platform)
        assert len(schedule) == small_random_ptg.n_tasks

    def test_schedule_is_consistent(self, small_platform, small_random_ptg):
        schedule = ReadyListMapper().map([allocate(small_random_ptg, small_platform)], small_platform)
        validate_schedule(schedule, ptgs=[small_random_ptg]).raise_if_invalid()

    def test_chain_executes_sequentially(self, small_platform):
        ptg = make_chain_ptg(n=4)
        schedule = ReadyListMapper().map([allocate(ptg, small_platform)], small_platform)
        entries = schedule.entries_of("chain")
        for a, b in zip(entries, entries[1:]):
            assert b.start >= a.finish - 1e-9

    def test_fork_join_exploits_parallelism(self, small_platform):
        ptg = make_fork_join_ptg(width=5, flops=8e9)
        schedule = ReadyListMapper().map(
            [allocate(ptg, small_platform, beta=1.0)], small_platform
        )
        branches = [schedule.entry("forkjoin", i) for i in range(1, 6)]
        # at least two branches overlap in time
        overlaps = 0
        for i, a in enumerate(branches):
            for b in branches[i + 1:]:
                if a.start < b.finish and b.start < a.finish:
                    overlaps += 1
        assert overlaps > 0


class TestConcurrentApplications:
    def test_all_applications_fully_mapped(self, medium_platform, random_workload):
        allocated = [allocate(p, medium_platform, beta=1 / 3) for p in random_workload]
        schedule = ReadyListMapper().map(allocated, medium_platform)
        for ptg in random_workload:
            assert len(schedule.entries_of(ptg.name)) == ptg.n_tasks
        validate_schedule(schedule, ptgs=random_workload).raise_if_invalid()

    def test_small_application_not_postponed(self, medium_platform):
        """The Figure 1 scenario: the small PTG starts before the big one ends."""
        big = make_chain_ptg("big", n=6, flops=200e9)
        small = make_chain_ptg("small", n=2, flops=5e9)
        allocated = [
            allocate(big, medium_platform, beta=0.5),
            allocate(small, medium_platform, beta=0.5),
        ]
        schedule = ReadyListMapper().map(allocated, medium_platform)
        assert schedule.makespan("small") < schedule.makespan("big")
        small_start = min(e.start for e in schedule.entries_of("small"))
        assert small_start < schedule.entry("big", 1).finish

    def test_ready_list_fairer_to_small_app_than_global_order(self, medium_platform):
        """Compared to a global ordering, the small application finishes no later."""
        big = make_chain_ptg("big", n=6, flops=200e9)
        small = make_chain_ptg("small", n=2, flops=5e9)

        def build(mapper):
            allocated = [
                allocate(big, medium_platform, beta=0.5),
                allocate(small, medium_platform, beta=0.5),
            ]
            return mapper.map(allocated, medium_platform)

        ready = build(ReadyListMapper())
        global_order = build(GlobalOrderMapper())
        assert ready.makespan("small") <= global_order.makespan("small") + 1e-9

    def test_duplicate_names_rejected(self, medium_platform):
        a = make_chain_ptg("same", n=2)
        b = make_chain_ptg("same", n=3)
        with pytest.raises(MappingError):
            ReadyListMapper().map(
                [allocate(a, medium_platform), allocate(b, medium_platform)],
                medium_platform,
            )

    def test_empty_input_rejected(self, medium_platform):
        with pytest.raises(MappingError):
            ReadyListMapper().map([], medium_platform)

    def test_mismatched_allocation_rejected(self, medium_platform):
        a = make_chain_ptg("a", n=2)
        b = make_chain_ptg("b", n=2)
        alloc_b = ScrapMaxAllocator().allocate(b, medium_platform)
        with pytest.raises(MappingError):
            AllocatedPTG(a, alloc_b)

    def test_packing_can_be_disabled(self, medium_platform, random_workload):
        allocated = [allocate(p, medium_platform, beta=0.5) for p in random_workload]
        schedule = ReadyListMapper(enable_packing=False).map(allocated, medium_platform)
        validate_schedule(schedule).raise_if_invalid()
