"""Tests for the HEFT baseline scheduler."""

import pytest

from repro.baselines.heft import HEFTScheduler
from repro.exceptions import MappingError
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, make_fork_join_ptg


class TestHEFT:
    def test_every_task_on_one_processor(self, medium_platform, small_random_ptg):
        schedule = HEFTScheduler().schedule(small_random_ptg, medium_platform)
        assert len(schedule) == small_random_ptg.n_tasks
        assert all(entry.num_processors == 1 for entry in schedule)

    def test_schedule_consistency(self, medium_platform, small_random_ptg):
        schedule = HEFTScheduler().schedule(small_random_ptg, medium_platform)
        validate_schedule(schedule, ptgs=[small_random_ptg]).raise_if_invalid()

    def test_upward_ranks_decrease_along_paths(self, medium_platform, chain_ptg):
        ranks = HEFTScheduler().upward_ranks(chain_ptg, medium_platform)
        assert ranks[0] > ranks[1] > ranks[2] > ranks[3]

    def test_fork_join_uses_several_processors(self, medium_platform):
        ptg = make_fork_join_ptg(width=6, flops=40e9)
        schedule = HEFTScheduler().schedule(ptg, medium_platform)
        used = {(e.cluster_name, e.processors[0]) for e in schedule}
        assert len(used) > 1

    def test_multiple_applications(self, medium_platform, random_workload):
        schedule = HEFTScheduler().schedule(random_workload, medium_platform)
        validate_schedule(schedule).raise_if_invalid()
        for ptg in random_workload:
            assert len(schedule.entries_of(ptg.name)) == ptg.n_tasks

    def test_empty_input_rejected(self, medium_platform):
        with pytest.raises(MappingError):
            HEFTScheduler().schedule([], medium_platform)

    def test_single_cluster_platform(self, single_cluster, chain_ptg):
        schedule = HEFTScheduler().schedule(chain_ptg, single_cluster)
        validate_schedule(schedule, ptgs=[chain_ptg]).raise_if_invalid()

    def test_ignores_data_parallelism(self, medium_platform):
        """HEFT cannot beat the sequential critical path of a chain."""
        ptg = make_chain_ptg(n=3, flops=50e9, alpha=0.0)
        schedule = HEFTScheduler().schedule(ptg, medium_platform)
        fastest_speed = max(c.speed_flops for c in medium_platform)
        sequential_cp = sum(t.flops for t in ptg.tasks()) / fastest_speed
        assert schedule.makespan(ptg.name) >= sequential_cp - 1e-9
