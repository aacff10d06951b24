"""Tests for the global-ordering baseline mapper."""

import pytest

from repro.allocation.scrap import ScrapMaxAllocator
from repro.exceptions import MappingError
from repro.mapping.base import AllocatedPTG
from repro.mapping.global_order import GlobalOrderMapper
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, make_fork_join_ptg


def allocate(ptg, platform, beta=1.0):
    return AllocatedPTG(ptg, ScrapMaxAllocator().allocate(ptg, platform, beta=beta))


class TestGlobalOrderMapper:
    def test_single_application(self, small_platform, small_random_ptg):
        schedule = GlobalOrderMapper().map(
            [allocate(small_random_ptg, small_platform)], small_platform
        )
        assert len(schedule) == small_random_ptg.n_tasks
        validate_schedule(schedule, ptgs=[small_random_ptg]).raise_if_invalid()

    def test_concurrent_applications_consistent(self, medium_platform, random_workload):
        allocated = [allocate(p, medium_platform, beta=1 / 3) for p in random_workload]
        schedule = GlobalOrderMapper().map(allocated, medium_platform)
        validate_schedule(schedule, ptgs=random_workload).raise_if_invalid()
        for ptg in random_workload:
            assert len(schedule.entries_of(ptg.name)) == ptg.n_tasks

    def test_big_application_prioritised(self, medium_platform):
        """Global ordering lets the large application's tasks go first."""
        big = make_chain_ptg("big", n=6, flops=200e9)
        small = make_chain_ptg("small", n=2, flops=5e9)
        allocated = [
            allocate(big, medium_platform, beta=0.5),
            allocate(small, medium_platform, beta=0.5),
        ]
        schedule = GlobalOrderMapper().map(allocated, medium_platform)
        # bottom level of the big application's entry dominates, so it is
        # considered for mapping before the small application's entry
        assert schedule.entry("big", 0).start <= schedule.entry("small", 0).start + 1e-9

    def test_empty_input_rejected(self, medium_platform):
        with pytest.raises(MappingError):
            GlobalOrderMapper().map([], medium_platform)

    def test_identical_results_are_deterministic(self, medium_platform, random_workload):
        allocated = [allocate(p, medium_platform, beta=0.5) for p in random_workload]
        s1 = GlobalOrderMapper().map(allocated, medium_platform)
        s2 = GlobalOrderMapper().map(allocated, medium_platform)
        for entry in s1:
            other = s2.entry(entry.ptg_name, entry.task_id)
            assert other.start == entry.start
            assert other.cluster_name == entry.cluster_name
