"""Tests for the concurrent multi-application scheduler."""

import pytest

from repro.constraints.registry import STRATEGY_NAMES, strategy
from repro.constraints.strategies import EqualShareStrategy, SelfishStrategy
from repro.exceptions import ConfigurationError
from repro.mapping.global_order import GlobalOrderMapper
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg


class TestConcurrentScheduler:
    def test_default_components(self, medium_platform, random_workload):
        result = ConcurrentScheduler().schedule(random_workload, medium_platform)
        assert result.strategy_name == "ES"
        assert set(result.betas) == {p.name for p in random_workload}
        assert len(result.schedule) == sum(p.n_tasks for p in random_workload)

    def test_schedule_consistency(self, medium_platform, random_workload):
        result = ConcurrentScheduler(SelfishStrategy()).schedule(
            random_workload, medium_platform
        )
        validate_schedule(result.schedule, ptgs=random_workload).raise_if_invalid()

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_strategy_produces_complete_schedule(
        self, name, medium_platform, random_workload
    ):
        result = ConcurrentScheduler(strategy(name)).schedule(
            random_workload, medium_platform
        )
        for ptg in random_workload:
            assert result.makespan(ptg.name) > 0

    def test_betas_recorded_per_application(self, medium_platform, random_workload):
        result = ConcurrentScheduler(EqualShareStrategy()).schedule(
            random_workload, medium_platform
        )
        for ptg in random_workload:
            assert result.beta(ptg.name) == pytest.approx(1 / len(random_workload))
        assert result.allocations[random_workload[0].name].beta == pytest.approx(1 / 3)

    def test_makespans_and_global_makespan(self, medium_platform, random_workload):
        result = ConcurrentScheduler().schedule(random_workload, medium_platform)
        assert result.global_makespan == pytest.approx(max(result.makespans.values()))

    def test_unknown_application_queries(self, medium_platform, random_workload):
        result = ConcurrentScheduler().schedule(random_workload, medium_platform)
        with pytest.raises(Exception):
            result.makespan("unknown")
        with pytest.raises(Exception):
            result.beta("unknown")

    def test_empty_workload_rejected(self, medium_platform):
        with pytest.raises(ConfigurationError):
            ConcurrentScheduler().schedule([], medium_platform)

    def test_none_graph_rejected(self, medium_platform, random_workload):
        with pytest.raises(ConfigurationError, match="^ptg must not be None$"):
            ConcurrentScheduler().schedule(
                [random_workload[0], None], medium_platform
            )

    def test_duplicate_names_rejected(self, medium_platform):
        ptgs = [make_chain_ptg("same"), make_chain_ptg("same")]
        with pytest.raises(ConfigurationError):
            ConcurrentScheduler().schedule(ptgs, medium_platform)

    def test_custom_mapper(self, medium_platform, random_workload):
        result = ConcurrentScheduler(mapper=GlobalOrderMapper()).schedule(
            random_workload, medium_platform
        )
        validate_schedule(result.schedule).raise_if_invalid()

    def test_single_application_equivalent_to_selfish(self, medium_platform, chain_ptg):
        es = ConcurrentScheduler(EqualShareStrategy()).schedule([chain_ptg], medium_platform)
        s = ConcurrentScheduler(SelfishStrategy()).schedule([chain_ptg], medium_platform)
        # with one application every strategy assigns beta = 1
        assert es.beta(chain_ptg.name) == s.beta(chain_ptg.name) == 1.0
        assert es.makespan(chain_ptg.name) == pytest.approx(s.makespan(chain_ptg.name))
