"""Tests for the Schedule / ScheduledTask data structures."""

import pickle
import tracemalloc

import pytest

from repro.allocation.base import Allocation
from repro.allocation.reference import ReferenceCluster
from repro.exceptions import MappingError
from repro.mapping.eft import PlacementEngine
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


class TestScheduledTaskContract:
    """What callers see of an entry: four checks, value semantics, size."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(start=-1.0, finish=1.0), "invalid time window [-1.0, 1.0] for task 0 of 'app'"),
            (dict(start=2.0, finish=1.0), "invalid time window [2.0, 1.0] for task 0 of 'app'"),
            (dict(procs=()), "task 0 of 'app' mapped on zero processors"),
            (dict(procs=(1, 1)), "task 0 of 'app' mapped twice on a processor"),
        ],
    )
    def test_each_check_keeps_its_message(self, fields, message):
        with pytest.raises(MappingError) as error:
            entry(**fields)
        assert str(error.value) == message

    def test_every_way_of_building_one_checks(self):
        good = entry(procs=(0, 1), start=1.0, finish=2.0)
        with pytest.raises(MappingError, match="invalid time window"):
            good._replace(start=3.0)
        with pytest.raises(MappingError, match="zero processors"):
            ScheduledTask._make(("app", 0, "c0", (), 0.0, 1.0, 1))
        assert pickle.loads(pickle.dumps(good)) == good
        assert type(pickle.loads(pickle.dumps(good))) is ScheduledTask

    def test_immutable(self):
        e = entry()
        with pytest.raises(AttributeError):
            e.start = 5.0

    def test_engine_entry_equals_hashes_and_prints_like_the_constructor(
        self, small_platform
    ):
        ptg = make_chain_ptg("app", n=3)
        allocation = Allocation(ptg, ReferenceCluster.of(small_platform), beta=1.0)
        allocation.set_processors(1, 2)
        engine = PlacementEngine(small_platform)
        schedule = Schedule(small_platform.name)
        for tid in ptg.topological_order():
            predecessors = [(p, ptg.edge_data(p, tid)) for p in ptg.predecessors(tid)]
            placed = engine.place("app", ptg.task(tid), allocation, predecessors, schedule)
            built = ScheduledTask(
                ptg_name=placed.ptg_name,
                task_id=placed.task_id,
                cluster_name=placed.cluster_name,
                processors=placed.processors,
                start=placed.start,
                finish=placed.finish,
                reference_processors=placed.reference_processors,
            )
            assert placed == built and hash(placed) == hash(built)
            assert repr(placed) == repr(built)
            assert placed.reference_processors == allocation.processors(tid)
        assert schedule.entry("app", 1).reference_processors == 2

    def test_repr_and_hash_are_those_of_the_frozen_record(self):
        e = entry(procs=(2, 0), start=0.5, finish=1.5)
        assert repr(e) == (
            "ScheduledTask(ptg_name='app', task_id=0, cluster_name='c0', "
            "processors=(2, 0), start=0.5, finish=1.5, reference_processors=1)"
        )
        assert hash(e) == hash(("app", 0, "c0", (2, 0), 0.5, 1.5, 1))
        assert e != entry(procs=(2, 0), start=0.5, finish=2.0)

    def test_entries_take_no_more_memory_than_the_frozen_dataclass(self):
        # 10,000 entries with shared field values, so only the entries
        # themselves are counted; the frozen dataclass they replaced took
        # 136 bytes each (CPython 3.11), these take 104 (3.9 to 3.12)
        procs = (0, 1, 2)
        ids = list(range(10_000))
        entries = [None] * len(ids)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in ids:
                entries[i] = ScheduledTask("app", i, "c0", procs, 0.5, 1.5, 2)
            per_entry = (tracemalloc.get_traced_memory()[0] - before) / len(ids)
        finally:
            tracemalloc.stop()
        assert per_entry <= 136


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
