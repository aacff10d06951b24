"""Tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.simulate.engine import SimulationEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(2.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(3.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_run_in_schedule_order(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(1.0, lambda: log.append(2))
        engine.run()
        assert log == [1, 2]

    def test_schedule_after(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_after(0.5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.5]

    def test_arguments_passed(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(1.0, seen.append, "x")
        engine.run()
        assert seen == ["x"]

    def test_past_event_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        log = []
        handle = engine.schedule(1.0, lambda: log.append("no"))
        engine.schedule(2.0, lambda: log.append("yes"))
        handle.cancel()
        engine.run()
        assert log == ["yes"]

    def test_peek_skips_cancelled(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        handle.cancel()
        assert engine.peek_time() == 2.0

    def test_peek_empty(self):
        assert SimulationEngine().peek_time() is None


class TestReservedSequence:
    def test_ties_run_in_scheduling_order(self):
        # an event pushed later with a number reserved earlier runs where
        # it would have run had it been scheduled at reservation time
        engine = SimulationEngine()
        log = []
        reserved = engine.reserve_sequence()
        engine.schedule(1.0, log.append, "b")
        engine.schedule(1.0, log.append, "c")
        engine.schedule_reserved(1.0, reserved, log.append, "a")
        engine.schedule(1.0, log.append, "d")
        engine.run()
        assert log == ["a", "b", "c", "d"]

    def test_rearmed_copy_runs_exactly_once(self):
        # a wake-up cancelled and re-armed at the same (time, number) is
        # revived in place: one heap entry, one execution
        engine = SimulationEngine()
        log = []
        wake = engine.schedule_reserved(
            2.0, engine.reserve_sequence(), log.append, "wake"
        )
        engine.schedule(1.0, wake.cancel)
        engine.schedule(1.5, lambda: setattr(wake, "cancelled", False))
        engine.schedule(2.0, log.append, "after")
        engine.run()
        assert log == ["wake", "after"]
        assert engine.processed_events == 4

    def test_reserved_event_in_the_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_reserved(1.0, engine.reserve_sequence(), lambda: None)


class TestRunControl:
    def test_run_until(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(1.0, lambda: log.append(1))
        engine.schedule(10.0, lambda: log.append(10))
        engine.run(until=5.0)
        assert log == [1]
        assert engine.now == 5.0

    def test_run_until_keeps_the_next_event(self):
        engine = SimulationEngine()
        log = []
        engine.schedule(10.0, log.append, 10)
        engine.schedule(10.0, log.append, 11)
        engine.run(until=5.0)
        assert log == [] and engine.now == 5.0
        engine.run()
        assert log == [10, 11] and engine.now == 10.0

    def test_step_returns_false_when_empty(self):
        assert SimulationEngine().step() is False

    def test_event_count(self):
        engine = SimulationEngine()
        for t in range(5):
            engine.schedule(float(t), lambda: None)
        engine.run()
        assert engine.processed_events == 5

    def test_livelock_guard(self):
        engine = SimulationEngine()

        def reschedule():
            engine.schedule_after(0.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=1000)
