"""Tests for the Schedule / ScheduledTask data structures."""

import pytest

from repro.exceptions import MappingError
from repro.mapping.schedule import Schedule, ScheduledTask
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg


def entry(ptg="app", task=0, cluster="c0", procs=(0,), start=0.0, finish=1.0):
    return ScheduledTask(
        ptg_name=ptg, task_id=task, cluster_name=cluster, processors=tuple(procs),
        start=start, finish=finish,
    )


class TestScheduledTask:
    def test_properties(self):
        e = entry(procs=(0, 1, 2), start=1.0, finish=3.5)
        assert e.num_processors == 3
        assert e.duration == pytest.approx(2.5)

    def test_invalid_window(self):
        with pytest.raises(MappingError):
            entry(start=2.0, finish=1.0)
        with pytest.raises(MappingError):
            entry(start=-1.0, finish=1.0)

    def test_empty_processors(self):
        with pytest.raises(MappingError):
            entry(procs=())

    def test_duplicate_processors(self):
        with pytest.raises(MappingError):
            entry(procs=(1, 1))


class TestSchedule:
    def test_add_and_lookup(self):
        s = Schedule("p")
        s.add(entry(task=0))
        s.add(entry(task=1, start=1.0, finish=2.0))
        assert len(s) == 2
        assert s.has_entry("app", 0)
        assert s.entry("app", 1).finish == 2.0

    def test_duplicate_rejected(self):
        s = Schedule("p")
        s.add(entry())
        with pytest.raises(MappingError):
            s.add(entry())

    def test_missing_lookup(self):
        s = Schedule("p")
        with pytest.raises(MappingError):
            s.entry("app", 0)
        with pytest.raises(MappingError):
            s.entries_of("app")

    def test_makespan_counts_from_submission(self):
        s = Schedule("p")
        s.add(entry(task=0, start=5.0, finish=9.0))
        assert s.makespan("app") == 9.0
        assert s.span("app") == pytest.approx(4.0)

    def test_global_makespan(self):
        s = Schedule("p")
        s.add(entry(ptg="a", task=0, finish=4.0))
        s.add(entry(ptg="b", task=0, finish=7.0))
        assert s.global_makespan() == 7.0
        assert s.makespans() == {"a": 4.0, "b": 7.0}
        assert Schedule("empty").global_makespan() == 0.0

    def test_entries_on_cluster_and_work(self):
        s = Schedule("p")
        s.add(entry(task=0, cluster="c0", procs=(0, 1), start=0.0, finish=2.0))
        s.add(entry(task=1, cluster="c1", procs=(0,), start=0.0, finish=1.0))
        assert len(s.entries_on("c0")) == 1
        assert s.work_on("c0") == pytest.approx(4.0)
        assert s.work_on("c1") == pytest.approx(1.0)

    def test_application_names_in_insertion_order(self):
        s = Schedule("p")
        s.add(entry(ptg="b", task=0))
        s.add(entry(ptg="a", task=0))
        assert s.application_names() == ["b", "a"]


class TestValidation:
    """The schedule invariants, checked by :func:`repro.validate.validate_schedule`."""

    def test_overlap_detected(self):
        s = Schedule("p")
        s.add(entry(task=0, procs=(0,), start=0.0, finish=2.0))
        s.add(entry(task=1, procs=(0,), start=1.0, finish=3.0))
        report = validate_schedule(s)
        assert [v.kind for v in report.violations] == ["overlap"]
        with pytest.raises(MappingError):
            report.raise_if_invalid()

    def test_back_to_back_allowed(self):
        s = Schedule("p")
        s.add(entry(task=0, procs=(0,), start=0.0, finish=2.0))
        s.add(entry(task=1, procs=(0,), start=2.0, finish=3.0))
        validate_schedule(s).raise_if_invalid()

    def test_different_processors_allowed(self):
        s = Schedule("p")
        s.add(entry(task=0, procs=(0,), start=0.0, finish=2.0))
        s.add(entry(task=1, procs=(1,), start=0.0, finish=2.0))
        validate_schedule(s).raise_if_invalid()

    def test_precedence_violation_detected(self):
        ptg = make_chain_ptg("app", n=2)
        s = Schedule("p")
        s.add(entry(task=0, start=0.0, finish=2.0))
        s.add(entry(task=1, start=1.0, finish=3.0, procs=(1,)))
        report = validate_schedule(s, ptgs=[ptg])
        assert [v.kind for v in report.violations] == ["precedence"]
        with pytest.raises(MappingError):
            report.raise_if_invalid()

    def test_precedence_ok(self):
        ptg = make_chain_ptg("app", n=2)
        s = Schedule("p")
        s.add(entry(task=0, start=0.0, finish=2.0))
        s.add(entry(task=1, start=2.0, finish=3.0, procs=(1,)))
        validate_schedule(s, ptgs=[ptg]).raise_if_invalid()
