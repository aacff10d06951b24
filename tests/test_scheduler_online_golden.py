"""Golden test: the event-driven online scheduler is bit-identical.

The ``repro.streaming`` rework of the online path (incremental
completion bookkeeping, chunked feeding) is a pure performance
refactor: for every strategy, allocator and packing mode it must emit
exactly the same schedule, betas, active sets and completion times as
the pre-refactor :class:`~tests.oracles.scheduler.ReferenceOnlineScheduler`
on a fixed arrival list -- the mirror of ``test_mapping_golden.py`` for
the online layer.

Every comparison is **exact** (``==`` on floats, no tolerance).
"""

import numpy as np
import pytest

from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator
from repro.constraints.registry import paper_strategies
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform import grid5000
from repro.scheduler.online import Arrival, OnlineConcurrentScheduler
from repro.streaming.engine import StreamSession
from repro.streaming.spec import ArrivalSpec, generate_arrivals

from tests.oracles.scheduler import ReferenceOnlineScheduler


def assert_identical_results(fast, ref):
    """Schedules, betas, active sets and makespans must match bit-for-bit."""
    assert fast.betas == ref.betas
    assert fast.active_at_admission == ref.active_at_admission
    assert fast.strategy_name == ref.strategy_name
    assert [a.ptg.name for a in fast.arrivals] == [a.ptg.name for a in ref.arrivals]
    assert len(fast.schedule) == len(ref.schedule)
    for entry in fast.schedule:
        other = ref.schedule.entry(entry.ptg_name, entry.task_id)
        assert entry.cluster_name == other.cluster_name, (entry, other)
        assert entry.processors == other.processors, (entry, other)
        assert entry.start == other.start, (entry, other)
        assert entry.finish == other.finish, (entry, other)
        assert entry.reference_processors == other.reference_processors
    # the O(1) accessors agree with the reference's full re-scans
    assert fast.makespans() == ref.makespans()
    for name in ref.betas:
        assert fast.completion_time(name) == ref.completion_time(name)


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadSpec(family="random", n_ptgs=6, seed=13, max_tasks=20))


@pytest.fixture(scope="module")
def arrivals(workload):
    # staggered submissions including simultaneous ones (ties sort by name)
    times = [0.0, 0.0, 150.0, 400.0, 400.0, 900.0]
    return [Arrival(ptg, t) for ptg, t in zip(workload, times)]


class TestGoldenOnlineStrategies:
    @pytest.mark.parametrize("strategy", paper_strategies(), ids=lambda s: s.name)
    def test_online_bit_identical(self, arrivals, strategy):
        platform = grid5000.site("lille")
        fast = OnlineConcurrentScheduler(strategy).schedule(arrivals, platform)
        ref = ReferenceOnlineScheduler(strategy).schedule(arrivals, platform)
        assert_identical_results(fast, ref)


class TestGoldenOnlinePipelines:
    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    @pytest.mark.parametrize(
        "allocator", [ScrapMaxAllocator, ScrapAllocator],
        ids=["scrap-max", "scrap"],
    )
    def test_pipeline_bit_identical(self, arrivals, allocator, packing):
        platform = grid5000.site("nancy")
        fast = OnlineConcurrentScheduler(
            allocator=allocator(), enable_packing=packing
        ).schedule(arrivals, platform)
        ref = ReferenceOnlineScheduler(
            allocator=allocator(), enable_packing=packing
        ).schedule(arrivals, platform)
        assert_identical_results(fast, ref)


class TestGoldenStreams:
    def test_poisson_stream_bit_identical(self):
        """A generated arrival stream schedules identically on both paths."""
        platform = grid5000.composed()
        spec = ArrivalSpec(
            process="poisson", rate=0.05, n_arrivals=20, seed=7,
            family="random", max_tasks=10,
        )
        stream = generate_arrivals(spec)
        fast = OnlineConcurrentScheduler().schedule(stream, platform)
        ref = ReferenceOnlineScheduler().schedule(stream, platform)
        assert_identical_results(fast, ref)

    def test_chunked_feeding_matches_batch_replay(self):
        """Feeding the stream in chunks equals replaying it in one batch."""
        platform = grid5000.site("sophia")
        spec = ArrivalSpec(
            process="mmpp", rate=0.05, n_arrivals=15, seed=4,
            family="random", max_tasks=10, burst=6.0,
        )
        stream = generate_arrivals(spec)
        session = StreamSession(platform)
        for start in range(0, len(stream), 4):
            session.feed(stream[start:start + 4])
        fast = session.result()
        ref = ReferenceOnlineScheduler().schedule(stream, platform)
        assert_identical_results(fast, ref)
