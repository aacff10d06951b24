"""Tests for the online (staggered submission) scheduler extension."""

import pytest

from repro.constraints.strategies import EqualShareStrategy, SelfishStrategy
from repro.exceptions import ConfigurationError
from repro.scheduler.online import Arrival, OnlineConcurrentScheduler
from repro.simulate.executor import ScheduleExecutor
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, make_fork_join_ptg


class TestArrival:
    def test_negative_time_rejected(self, chain_ptg):
        with pytest.raises(ConfigurationError):
            Arrival(chain_ptg, time=-1.0)

    def test_default_time_zero(self, chain_ptg):
        assert Arrival(chain_ptg).time == 0.0


class TestOnlineScheduler:
    def test_single_application_gets_full_platform(self, medium_platform, chain_ptg):
        scheduler = OnlineConcurrentScheduler(EqualShareStrategy())
        result = scheduler.schedule([Arrival(chain_ptg, 0.0)], medium_platform)
        assert result.betas[chain_ptg.name] == pytest.approx(1.0)
        assert result.active_at_admission[chain_ptg.name] == []

    def test_no_task_starts_before_submission(self, medium_platform):
        first = make_chain_ptg("first", n=3, flops=50e9)
        second = make_chain_ptg("second", n=3, flops=50e9)
        scheduler = OnlineConcurrentScheduler(EqualShareStrategy())
        result = scheduler.schedule(
            [Arrival(first, 0.0), Arrival(second, 30.0)], medium_platform
        )
        for entry in result.schedule.entries_of("second"):
            assert entry.start >= 30.0 - 1e-9

    def test_constraint_recomputed_on_arrival(self, medium_platform):
        """A second application arriving while the first still runs gets half
        of the platform; one arriving after the first completed gets all of it."""
        long_app = make_chain_ptg("long", n=6, flops=400e9)
        overlap = make_chain_ptg("overlap", n=2, flops=10e9)
        late = make_chain_ptg("late", n=2, flops=10e9)
        scheduler = OnlineConcurrentScheduler(EqualShareStrategy())
        first = scheduler.schedule([Arrival(long_app, 0.0)], medium_platform)
        long_completion = first.completion_time("long")

        result = scheduler.schedule(
            [
                Arrival(long_app, 0.0),
                Arrival(overlap, long_completion * 0.25),
                Arrival(late, long_completion * 4.0),
            ],
            medium_platform,
        )
        assert result.betas["long"] == pytest.approx(1.0)
        assert result.betas["overlap"] == pytest.approx(0.5)
        assert result.betas["late"] == pytest.approx(1.0)
        assert result.active_at_admission["overlap"] == ["long"]
        assert result.active_at_admission["late"] == []

    def test_existing_reservations_untouched(self, medium_platform):
        """Admitting a later application never changes the earlier schedule."""
        first = make_fork_join_ptg("first", width=4, flops=60e9)
        second = make_fork_join_ptg("second", width=4, flops=60e9)
        scheduler = OnlineConcurrentScheduler(SelfishStrategy())
        alone = scheduler.schedule([Arrival(first, 0.0)], medium_platform)
        both = scheduler.schedule(
            [Arrival(first, 0.0), Arrival(second, 5.0)], medium_platform
        )
        for entry in alone.schedule.entries_of("first"):
            other = both.schedule.entry("first", entry.task_id)
            assert other.start == pytest.approx(entry.start)
            assert other.cluster_name == entry.cluster_name
            assert other.processors == entry.processors

    def test_schedule_is_consistent_and_simulatable(self, medium_platform, random_workload):
        arrivals = [Arrival(p, 10.0 * i) for i, p in enumerate(random_workload)]
        scheduler = OnlineConcurrentScheduler(EqualShareStrategy())
        result = scheduler.schedule(arrivals, medium_platform)
        validate_schedule(result.schedule, ptgs=random_workload).raise_if_invalid()
        # makespans are measured from each application's own submission
        for arrival in arrivals:
            assert result.makespan(arrival.ptg.name) == pytest.approx(
                result.completion_time(arrival.ptg.name) - arrival.time
            )
            assert result.makespan(arrival.ptg.name) > 0
        assert set(result.makespans()) == {p.name for p in random_workload}

    def test_duplicate_names_rejected(self, medium_platform):
        a = make_chain_ptg("same")
        b = make_chain_ptg("same")
        with pytest.raises(ConfigurationError):
            OnlineConcurrentScheduler().schedule(
                [Arrival(a, 0.0), Arrival(b, 1.0)], medium_platform
            )

    def test_empty_arrivals_rejected(self, medium_platform):
        with pytest.raises(ConfigurationError):
            OnlineConcurrentScheduler().schedule([], medium_platform)

    def test_arrivals_processed_in_time_order(self, medium_platform):
        early = make_chain_ptg("early", n=2, flops=20e9)
        later = make_chain_ptg("later", n=2, flops=20e9)
        scheduler = OnlineConcurrentScheduler(EqualShareStrategy())
        # pass them out of order on purpose
        result = scheduler.schedule(
            [Arrival(later, 50.0), Arrival(early, 0.0)], medium_platform
        )
        assert result.application_names == ["early", "later"]
