"""Tests of the incremental streaming session and its result object."""

import pytest

from repro.constraints.strategies import EqualShareStrategy, SelfishStrategy
from repro.exceptions import ConfigurationError
from repro.streaming.engine import Arrival, StreamResult, StreamSession

from tests.conftest import make_chain_ptg


class TestAdmission:
    def test_completion_returned_and_tracked(self, medium_platform):
        session = StreamSession(medium_platform, EqualShareStrategy())
        done = session.admit(Arrival(make_chain_ptg("one", n=3, flops=40e9), 0.0))
        assert done > 0
        assert session.admitted == 1
        assert session.active_applications == ["one"]

    def test_arrivals_cannot_travel_back_in_time(self, medium_platform):
        session = StreamSession(medium_platform)
        session.admit(Arrival(make_chain_ptg("late", n=2), 100.0))
        with pytest.raises(ConfigurationError):
            session.admit(Arrival(make_chain_ptg("early", n=2), 50.0))

    @pytest.mark.parametrize(
        "at", [float("nan"), float("inf"), float("-inf"), -1.0], ids=str
    )
    def test_submission_time_must_be_finite_and_non_negative(self, at):
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            Arrival(make_chain_ptg("bad", n=2), at)

    def test_duplicate_names_rejected_across_batches(self, medium_platform):
        session = StreamSession(medium_platform)
        session.feed([Arrival(make_chain_ptg("same", n=2), 0.0)])
        with pytest.raises(ConfigurationError):
            session.feed([Arrival(make_chain_ptg("same", n=2), 10.0)])

    def test_feed_sorts_within_batch(self, medium_platform):
        session = StreamSession(medium_platform)
        session.feed(
            [
                Arrival(make_chain_ptg("b", n=2), 50.0),
                Arrival(make_chain_ptg("a", n=2), 0.0),
            ]
        )
        assert session.result().application_names == ["a", "b"]

    def test_empty_result_rejected(self, medium_platform):
        with pytest.raises(ConfigurationError):
            StreamSession(medium_platform).result()

    def test_completed_applications_leave_the_active_set(self, medium_platform):
        session = StreamSession(medium_platform, EqualShareStrategy())
        done = session.admit(Arrival(make_chain_ptg("first", n=2, flops=10e9), 0.0))
        session.admit(Arrival(make_chain_ptg("second", n=2, flops=10e9), done * 2))
        result = session.result()
        assert result.active_at_admission["second"] == []
        assert result.betas["second"] == pytest.approx(1.0)


class TestStreamResult:
    def _result(self, medium_platform):
        session = StreamSession(medium_platform, SelfishStrategy())
        session.feed(
            [
                Arrival(make_chain_ptg("a", n=3, flops=30e9), 0.0, tenant="t0"),
                Arrival(make_chain_ptg("b", n=3, flops=30e9), 40.0, tenant="t1"),
            ]
        )
        return session.result()

    def test_o1_accessors_match_schedule_scans(self, medium_platform):
        result = self._result(medium_platform)
        assert isinstance(result, StreamResult)
        for name in result.completion_times:
            assert result.completion_time(name) == result.schedule.makespan(name)
        assert result.horizon() == result.schedule.global_makespan()

    def test_waiting_times_measured_from_submission(self, medium_platform):
        result = self._result(medium_platform)
        for name, wait in result.waiting_times().items():
            assert wait >= 0
            assert result.first_starts[name] == pytest.approx(
                result.arrival_times[name] + wait
            )

    def test_tenants_recorded(self, medium_platform):
        result = self._result(medium_platform)
        assert result.tenants == {"a": "t0", "b": "t1"}

    def test_unknown_application_raises(self, medium_platform):
        with pytest.raises(ConfigurationError):
            self._result(medium_platform).completion_time("nope")

    def test_event_timeline_is_ordered_and_complete(self, medium_platform):
        result = self._result(medium_platform)
        events = result.events()
        assert len(events) == 4  # two arrivals + two completions
        assert [e.time for e in events] == sorted(e.time for e in events)
        kinds = {(e.kind, e.name) for e in events}
        assert ("arrival", "a") in kinds and ("completion", "b") in kinds


class TestIncrementalContinuation:
    def test_snapshot_then_continue(self, medium_platform):
        """A session keeps scheduling after a result snapshot was taken."""
        session = StreamSession(medium_platform)
        session.feed([Arrival(make_chain_ptg("a", n=2, flops=20e9), 0.0)])
        first = session.result()
        assert first.application_names == ["a"]
        session.feed([Arrival(make_chain_ptg("b", n=2, flops=20e9), 10.0)])
        second = session.result()
        assert second.application_names == ["a", "b"]
        # the earlier application's placement is untouched
        assert second.completion_times["a"] == first.completion_times["a"]
