"""Tests for the M-HEFT baseline scheduler."""

import pytest

from repro.baselines.heft import HEFTScheduler
from repro.baselines.mheft import MHEFTScheduler, _candidate_processor_counts
from repro.exceptions import MappingError
from repro.platform.cluster import Cluster
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg


class TestCandidateCounts:
    def test_powers_of_two_plus_full_cluster(self):
        counts = _candidate_processor_counts(Cluster("c", 12, 1.0))
        assert counts == [1, 2, 4, 8, 12]

    def test_exact_power_of_two_cluster(self):
        counts = _candidate_processor_counts(Cluster("c", 8, 1.0))
        assert counts == [1, 2, 4, 8]

    def test_cap(self):
        counts = _candidate_processor_counts(Cluster("c", 32, 1.0), cap=5)
        assert counts == [1, 2, 4, 5]


class TestMHEFT:
    def test_schedule_consistency(self, medium_platform, small_random_ptg):
        schedule = MHEFTScheduler().schedule(small_random_ptg, medium_platform)
        assert len(schedule) == small_random_ptg.n_tasks
        validate_schedule(schedule, ptgs=[small_random_ptg]).raise_if_invalid()

    def test_exploits_data_parallelism_on_chains(self, medium_platform):
        """Unlike HEFT, M-HEFT shortens a chain by allocating several processors."""
        ptg = make_chain_ptg(n=3, flops=100e9, alpha=0.05)
        heft = HEFTScheduler().schedule(ptg, medium_platform)
        mheft = MHEFTScheduler().schedule(ptg.copy(), medium_platform)
        assert mheft.makespan(ptg.name) < heft.makespan(ptg.name)

    def test_some_tasks_get_multiple_processors(self, medium_platform):
        ptg = make_chain_ptg(n=3, flops=100e9, alpha=0.05)
        schedule = MHEFTScheduler().schedule(ptg, medium_platform)
        assert any(entry.num_processors > 1 for entry in schedule)

    def test_processor_cap_respected(self, medium_platform):
        ptg = make_chain_ptg(n=3, flops=100e9, alpha=0.05)
        schedule = MHEFTScheduler(max_task_processors=2).schedule(ptg, medium_platform)
        assert all(entry.num_processors <= 2 for entry in schedule)

    def test_invalid_cap(self):
        with pytest.raises(MappingError):
            MHEFTScheduler(max_task_processors=0)

    def test_multiple_applications(self, medium_platform, random_workload):
        schedule = MHEFTScheduler().schedule(random_workload, medium_platform)
        validate_schedule(schedule, ptgs=random_workload).raise_if_invalid()

    def test_empty_input_rejected(self, medium_platform):
        with pytest.raises(MappingError):
            MHEFTScheduler().schedule([], medium_platform)
