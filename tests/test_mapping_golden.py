"""Golden-schedule test: the optimized placement core is bit-identical.

The fast mapping core (incrementally sorted timelines, batched EFT
candidate evaluation, memoized communication estimates, heap-based ready
queue) is a pure performance refactor: for every pipeline that touches it
-- the eight constraint strategies, both mappers, packing on and off, the
online scheduler and the HEFT / M-HEFT / aggregation baselines -- it must
emit exactly the same :class:`~repro.mapping.schedule.Schedule` as the
pre-refactor code frozen in :mod:`tests.oracles.mapping`.

Every comparison below is **exact** (``==`` on floats, no tolerance): the
optimized arithmetic reproduces the scalar IEEE-754 operation order, so
any drift is a regression.
"""

import pytest

from repro.baselines.aggregation import AggregationScheduler
from repro.baselines.heft import HEFTScheduler
from repro.baselines.mheft import MHEFTScheduler
from repro.constraints.registry import paper_strategies
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.mapping.base import AllocatedPTG
from repro.mapping.global_order import GlobalOrderMapper
from repro.mapping.ready_list import ReadyListMapper
from repro.allocation.scrap import ScrapMaxAllocator
from repro.platform import grid5000
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.scheduler.online import Arrival, OnlineConcurrentScheduler

from tests.oracles.mapping import ReferenceReadyListMapper, reference_implementation


def assert_identical_schedules(fast, reference):
    """Every placement field must match bit-for-bit."""
    assert len(fast) == len(reference)
    for entry in fast:
        ref = reference.entry(entry.ptg_name, entry.task_id)
        assert entry.cluster_name == ref.cluster_name, (entry, ref)
        assert entry.processors == ref.processors, (entry, ref)
        assert entry.start == ref.start, (entry, ref)
        assert entry.finish == ref.finish, (entry, ref)
        assert entry.reference_processors == ref.reference_processors, (entry, ref)


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadSpec(family="random", n_ptgs=4, seed=7, max_tasks=20))


@pytest.fixture(scope="module", params=["lille", "nancy"])
def platform(request):
    return grid5000.site(request.param)


def allocate(ptgs, platform, beta=1.0):
    allocator = ScrapMaxAllocator()
    return [
        AllocatedPTG(ptg, allocator.allocate(ptg, platform, beta=beta)) for ptg in ptgs
    ]


class TestGoldenStrategies:
    @pytest.mark.parametrize(
        "strategy", paper_strategies(), ids=lambda s: s.name
    )
    def test_concurrent_pipeline_bit_identical(self, workload, platform, strategy):
        fast = ConcurrentScheduler(strategy=strategy).schedule(workload, platform)
        with reference_implementation():
            ref = ConcurrentScheduler(strategy=strategy).schedule(workload, platform)
        assert_identical_schedules(fast.schedule, ref.schedule)
        assert fast.betas == ref.betas


class TestGoldenMappers:
    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    def test_ready_list_bit_identical(self, workload, platform, packing):
        allocated = allocate(workload, platform)
        fast = ReadyListMapper(enable_packing=packing).map(allocated, platform)
        with reference_implementation():
            ref = ReferenceReadyListMapper(enable_packing=packing).map(
                allocated, platform
            )
        assert_identical_schedules(fast, ref)

    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    def test_global_order_bit_identical(self, workload, platform, packing):
        allocated = allocate(workload, platform)
        fast = GlobalOrderMapper(enable_packing=packing).map(allocated, platform)
        with reference_implementation():
            ref = GlobalOrderMapper(enable_packing=packing).map(allocated, platform)
        assert_identical_schedules(fast, ref)


class TestGoldenBaselines:
    def test_heft_bit_identical(self, workload, platform):
        fast = HEFTScheduler().schedule(workload, platform)
        with reference_implementation():
            ref = HEFTScheduler().schedule(workload, platform)
        assert_identical_schedules(fast, ref)

    def test_mheft_bit_identical(self, workload, platform):
        fast = MHEFTScheduler().schedule(workload, platform)
        with reference_implementation():
            ref = MHEFTScheduler().schedule(workload, platform)
        assert_identical_schedules(fast, ref)

    def test_aggregation_bit_identical(self, workload, platform):
        fast = AggregationScheduler().schedule(workload, platform)
        with reference_implementation():
            ref = AggregationScheduler().schedule(workload, platform)
        assert_identical_schedules(fast, ref)


class TestGoldenOnline:
    def test_online_bit_identical(self, workload, platform):
        arrivals = [
            Arrival(ptg, time=200.0 * i) for i, ptg in enumerate(workload)
        ]
        fast = OnlineConcurrentScheduler().schedule(arrivals, platform)
        with reference_implementation():
            ref = OnlineConcurrentScheduler().schedule(arrivals, platform)
        assert_identical_schedules(fast.schedule, ref.schedule)
        assert fast.betas == ref.betas
        assert fast.active_at_admission == ref.active_at_admission


class TestGoldenFamilies:
    """Cover the structured application families on top of random DAGs."""

    @pytest.mark.parametrize("family", ["fft", "strassen"])
    def test_family_bit_identical(self, platform, family):
        ptgs = make_workload(WorkloadSpec(family=family, n_ptgs=2, seed=3))
        strategy = paper_strategies()[0]
        fast = ConcurrentScheduler(strategy=strategy).schedule(ptgs, platform)
        with reference_implementation():
            ref = ConcurrentScheduler(strategy=strategy).schedule(ptgs, platform)
        assert_identical_schedules(fast.schedule, ref.schedule)
