"""Tests for the single-application scheduler (M_own computation)."""

import pytest

from repro.allocation.hcpa import HCPAAllocator
from repro.exceptions import ConfigurationError
from repro.mapping.global_order import GlobalOrderMapper
from repro.scheduler.single import SinglePTGScheduler
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg


class TestSinglePTGScheduler:
    def test_schedules_all_tasks(self, small_platform, small_random_ptg):
        result = SinglePTGScheduler().schedule(small_random_ptg, small_platform)
        assert len(result.schedule) == small_random_ptg.n_tasks
        assert result.makespan > 0

    def test_schedule_is_valid(self, small_platform, small_random_ptg):
        result = SinglePTGScheduler().schedule(small_random_ptg, small_platform)
        validate_schedule(result.schedule, ptgs=[small_random_ptg]).raise_if_invalid()

    def test_makespan_convenience(self, small_platform, chain_ptg):
        scheduler = SinglePTGScheduler()
        assert scheduler.makespan(chain_ptg, small_platform) == pytest.approx(
            scheduler.schedule(chain_ptg, small_platform).makespan
        )

    def test_chain_makespan_close_to_critical_path(self, small_platform):
        ptg = make_chain_ptg(n=3, flops=8e9, alpha=0.0)
        result = SinglePTGScheduler().schedule(ptg, small_platform)
        # a chain with zero alpha can use many processors per task; the
        # makespan cannot beat the best possible critical path
        fastest = max(c.speed_flops * c.num_processors for c in small_platform)
        lower_bound = sum(t.flops for t in ptg.tasks()) / fastest
        assert result.makespan >= lower_bound

    def test_custom_components(self, small_platform, chain_ptg):
        scheduler = SinglePTGScheduler(
            allocator=HCPAAllocator(), mapper=GlobalOrderMapper(), beta=0.5
        )
        result = scheduler.schedule(chain_ptg, small_platform)
        assert result.allocation.beta == 0.5

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            SinglePTGScheduler(beta=0.0)

    def test_none_ptg_rejected(self, small_platform):
        with pytest.raises(ConfigurationError):
            SinglePTGScheduler().schedule(None, small_platform)

    def test_larger_platform_not_slower(self, chain_ptg, small_platform, medium_platform):
        small = SinglePTGScheduler().makespan(chain_ptg, small_platform)
        medium = SinglePTGScheduler().makespan(chain_ptg, medium_platform)
        # the medium platform has faster clusters; the dedicated makespan
        # should not be worse
        assert medium <= small * 1.5
