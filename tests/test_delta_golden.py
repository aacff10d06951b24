"""Golden tests for the sub-millisecond admission path.

Three optimizations ride the admission hot path, each pinned
bit-identical to the oracles frozen in ``tests/oracles/``:

* **delta-EFT** placement (:class:`repro.mapping.eft.PlacementEngine`,
  used by both mappers and the streaming session): cached per-cluster
  free-time frontiers with dominance cutoffs must pick the exact
  placements the oracle's full declaration-order scan picks;
* the **fused allocation loop** (:mod:`repro.allocation.fastloop`,
  behind every CPA-family allocator): incremental bottom levels and
  freeze-skip must produce the same allocations and iteration
  diagnostics as the oracle's per-iteration recomputation;
* the **batched multi-PTG kernels** (``compile_arrays_batch``,
  ``prepare_allocation_tables``, run by ``StreamSession.feed`` on a
  batch of several arrivals): stacked-arena compilation must hand every
  consumer the same arrays and tables as the per-graph construction;
* the **allocation memo** of the allocator classes: a renamed copy of
  a graph, and a stream of recurring jobs admitted one by one or fed at
  once, hit it and still equal the oracles.

Every comparison is **exact** (``==`` on floats, no tolerance), the same
discipline as ``test_mapping_golden.py`` / ``test_allocation_golden.py``.
The suite also pins the transactional-admission contract (a failed
admission leaves the session bit-identical to one that never saw the
arrival), the prebuilt-table cleanup of a failed batch, and the
accessor error contract (``ConfigurationError``, never a raw
``KeyError`` / ``StopIteration``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.iterative import AreaConstraint, LevelConstraint, NoConstraint
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator
from repro.allocation.state import (
    AllocationState,
    discard_allocation_tables,
    prepare_allocation_tables,
)
from repro.allocation.reference import ReferenceCluster
from repro.constraints.registry import paper_strategies
from repro.constraints.strategies import EqualShareStrategy
from repro.dag.arrays import compile_arrays, compile_arrays_batch
from repro.dag.graph import PTG
from repro.exceptions import AllocationError, ConfigurationError, MappingError
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.mapping.base import AllocatedPTG
from repro.mapping.global_order import GlobalOrderMapper
from repro.mapping.ready_list import ReadyListMapper
from repro.platform import grid5000
from repro.platform.builder import heterogeneous_platform, single_cluster_platform
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.streaming.engine import Arrival, OnlineScheduleResult, StreamSession
from repro.streaming.spec import ArrivalSpec, generate_arrivals
from repro.validate import validate_schedule

from tests.conftest import make_chain_ptg, memo_hits
from tests.oracles.allocation import ReferenceScrapMaxAllocator, run_reference_allocation
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


def assert_identical_stream_results(fast, ref):
    """Schedules and every tracked per-application quantity must match."""
    assert fast.betas == ref.betas
    assert fast.active_at_admission == ref.active_at_admission
    assert fast.completion_times == ref.completion_times
    assert fast.first_starts == ref.first_starts
    assert fast.arrival_times == ref.arrival_times
    assert_identical_schedules(fast.schedule, ref.schedule)


def admit_one_by_one(session, stream):
    """Admit *stream* with one ``admit`` call per arrival (no batch compile)."""
    for arrival in sorted(stream, key=lambda a: (a.time, a.ptg.name)):
        session.admit(arrival)
    return session.result()


def production_result(platform, stream, strategy=None, **kwargs):
    """*stream* fed in one batch through a production session."""
    session = StreamSession(platform, strategy, **kwargs)
    session.feed(stream)
    return session.result()


def oracle_result(platform, stream, strategy=None, **kwargs):
    """*stream* admitted one by one through a session on every oracle."""
    with reference_implementation():
        session = StreamSession(
            platform, strategy, allocator=ReferenceScrapMaxAllocator(), **kwargs
        )
        return admit_one_by_one(session, stream)


@pytest.fixture(scope="module")
def stream():
    spec = ArrivalSpec(
        process="poisson", rate=0.05, n_arrivals=12, seed=11,
        family="random", max_tasks=12,
    )
    return generate_arrivals(spec)


@pytest.fixture(scope="module")
def workload():
    return make_workload(WorkloadSpec(family="random", n_ptgs=4, seed=9, max_tasks=18))


class TestDeltaEFTGolden:
    """Delta-EFT admissions equal the oracle's full per-cluster scan."""

    @pytest.mark.parametrize("strategy", paper_strategies(), ids=lambda s: s.name)
    def test_stream_bit_identical_per_strategy(self, stream, strategy):
        platform = grid5000.composed()
        assert_identical_stream_results(
            production_result(platform, stream, strategy),
            oracle_result(platform, stream, strategy),
        )

    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    @pytest.mark.parametrize(
        "mapper_cls,oracle_cls",
        [
            (ReadyListMapper, ReferenceReadyListMapper),
            # under reference_implementation() the global-order mapper
            # places with the oracle engine
            (GlobalOrderMapper, GlobalOrderMapper),
        ],
        ids=["ready-list", "global-order"],
    )
    def test_mappers_bit_identical(self, workload, mapper_cls, oracle_cls, packing):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        allocated = [
            AllocatedPTG(ptg, allocator.allocate(ptg, platform)) for ptg in workload
        ]
        fast = mapper_cls(enable_packing=packing).map(allocated, platform)
        with reference_implementation():
            ref = oracle_cls(enable_packing=packing).map(allocated, platform)
        assert_identical_schedules(fast, ref)

    @pytest.mark.parametrize("packing", [True, False], ids=["packing", "no-packing"])
    def test_stream_packing_modes_bit_identical(self, stream, packing):
        platform = grid5000.site("sophia")
        assert_identical_stream_results(
            production_result(platform, stream, enable_packing=packing),
            oracle_result(platform, stream, enable_packing=packing),
        )


class TestFastLoopGolden:
    """Every CPA-family allocator equals the oracle's per-iteration loop.

    A renamed copy of each graph then hits the allocator's memo and must
    equal the oracle as well.
    """

    ALLOCATORS = [
        (CPAAllocator, {"efficiency_threshold": 0.3},
         lambda beta, power: NoConstraint(),
         single_cluster_platform(num_processors=24, speed_gflops=3.0)),
        (HCPAAllocator, {}, lambda beta, power: NoConstraint(),
         grid5000.site("lille")),
        (ScrapAllocator, {}, AreaConstraint, grid5000.site("nancy")),
        (ScrapMaxAllocator, {}, LevelConstraint, grid5000.site("nancy")),
    ]

    @pytest.mark.parametrize(
        "allocator_cls,kwargs,constraint,platform", ALLOCATORS,
        ids=["cpa", "hcpa", "scrap", "scrap-max"],
    )
    @pytest.mark.parametrize("beta", [0.25, 0.6, 1.0])
    def test_allocations_and_stats_bit_identical(
        self, workload, allocator_cls, kwargs, constraint, platform, beta
    ):
        reference = ReferenceCluster.of(platform)
        for ptg in workload:
            allocator = allocator_cls(**kwargs)
            ref, ref_stats = run_reference_allocation(
                ptg, platform, reference, beta,
                constraint(beta, platform.total_power_gflops), **kwargs
            )
            # a renamed copy is an allocation memo hit, equally exact
            copy = ptg.copy(name=f"{ptg.name}-again")
            for graph in (ptg, copy):
                with obs.capture() as session:
                    fast = allocator.allocate(graph, platform, beta=beta)
                assert fast.as_dict() == ref.as_dict()
                assert allocator.last_stats == ref_stats
                assert fast.ptg is graph
                assert memo_hits(session) == (graph is copy)

    def test_freeze_heavy_case_bit_identical(self):
        """A tiny beta forces many per-level freezes (the freeze-skip path)."""
        platform = grid5000.site("lille")
        reference = ReferenceCluster.of(platform)
        ptg = make_workload(
            WorkloadSpec(family="random", n_ptgs=1, seed=3, max_tasks=25)
        )[0]
        allocator = ScrapMaxAllocator()
        fast = allocator.allocate(ptg, platform, beta=0.1)
        ref, ref_stats = run_reference_allocation(
            ptg, platform, reference, 0.1,
            LevelConstraint(0.1, platform.total_power_gflops),
        )
        assert fast.as_dict() == ref.as_dict()
        assert allocator.last_stats == ref_stats
        assert ref_stats.frozen_tasks > 0  # the case exercises freezes


class TestRecurringStreamGolden:
    """Recurring jobs hit the allocation memo and stay oracle-exact."""

    @pytest.fixture(scope="class")
    def recurring(self):
        # renamed copies of three templates in bursts of three: under ES
        # each burst meets betas 1, 1/2 and 1/3 again, so (graph, beta)
        # pairs repeat from the second burst on
        templates = make_workload(
            WorkloadSpec(family="random", n_ptgs=3, seed=17, max_tasks=12)
        )
        return [
            Arrival(
                templates[i % 3].copy(name=f"job-{i:02d}"),
                1000.0 * (i // 3) + 0.5 * (i % 3),
            )
            for i in range(12)
        ]

    @pytest.mark.parametrize("entry_point", ["admit", "feed"])
    def test_recurring_stream_bit_identical(self, recurring, entry_point):
        platform = grid5000.composed()
        strategy = EqualShareStrategy()
        session = StreamSession(platform, strategy)
        with obs.capture() as capture:
            if entry_point == "admit":
                result = admit_one_by_one(session, recurring)
            else:
                session.feed(recurring)
                result = session.result()
        assert_identical_stream_results(
            result, oracle_result(platform, recurring, strategy)
        )
        assert len(set(result.betas.values())) == 3
        assert memo_hits(capture) == 9  # only the first burst runs the loop


def uncompiled(ptg, name):
    """A renamed graph with its own, empty cache.

    ``ptg.copy()`` would share *ptg*'s compilation, so the batched paths
    below would find everything compiled and silently skip their work.
    """
    return PTG(name, tasks=ptg.tasks(), edges=ptg.edges())


class TestBatchedKernels:
    """Stacked-arena compilation equals the per-graph construction."""

    def test_compile_arrays_batch_matches_single(self, workload):
        singles = [compile_arrays(ptg) for ptg in workload]
        fresh = [uncompiled(ptg, f"{ptg.name}-copy") for ptg in workload]
        batched = compile_arrays_batch(fresh)
        for single, batch in zip(singles, batched):
            for name in (
                "task_ids", "flops", "alpha", "synthetic", "topo", "levels",
                "level_members", "level_offsets", "pred_ptr", "pred_idx",
                "succ_ptr", "succ_idx", "entries", "exits",
            ):
                assert np.array_equal(getattr(single, name), getattr(batch, name))
            assert single.index_of == batch.index_of

    def test_batch_compilation_seeds_the_graph_cache(self, workload):
        fresh = [uncompiled(ptg, f"{ptg.name}-cache") for ptg in workload]
        batched = compile_arrays_batch(fresh)
        for ptg, arrays in zip(fresh, batched):
            assert ptg.arrays() is arrays

    def test_prepared_tables_bit_identical(self, workload):
        platform = grid5000.site("nancy")
        reference = ReferenceCluster.of(platform)
        cap = reference.max_allocation(platform)
        plain = [AllocationState(ptg, reference, cap) for ptg in workload]
        fresh = [uncompiled(ptg, f"{ptg.name}-tables") for ptg in workload]
        prepare_allocation_tables(fresh, reference, cap)
        for single, ptg in zip(plain, fresh):
            prepared = AllocationState(ptg, reference, cap)
            assert np.array_equal(single.durations_table, prepared.durations_table)
            assert np.array_equal(single.areas_table, prepared.areas_table)
            assert np.array_equal(single.gain_table, prepared.gain_table)
            discard_allocation_tables(ptg)

    def test_discard_drops_the_cached_tables(self):
        platform = grid5000.site("lille")
        reference = ReferenceCluster.of(platform)
        cap = reference.max_allocation(platform)
        ptg = make_chain_ptg("tables", n=4)
        prepare_allocation_tables([ptg], reference, cap)
        assert "alloc_tables" in ptg._cache
        discard_allocation_tables(ptg)
        assert "alloc_tables" not in ptg._cache
        discard_allocation_tables(ptg)  # idempotent

    def test_batched_feed_bit_identical(self, stream):
        platform = grid5000.composed()
        assert_identical_stream_results(
            production_result(platform, stream),
            admit_one_by_one(StreamSession(platform), stream),
        )

    @pytest.mark.parametrize("entry_point", ["feed", "schedule"])
    def test_failed_batch_drops_every_prebuilt_table(self, workload, entry_point):
        """A raising allocator leaves no graph of the batch holding tables."""
        platform = grid5000.site("nancy")
        fresh = [uncompiled(ptg, f"{ptg.name}-failed") for ptg in workload]
        allocator = ExplodingAllocator(fresh[0].name)
        with pytest.raises(AllocationError):
            if entry_point == "feed":
                StreamSession(platform, allocator=allocator).feed(
                    [Arrival(ptg, 10.0 * i) for i, ptg in enumerate(fresh)]
                )
            else:
                ConcurrentScheduler(allocator=allocator).schedule(fresh, platform)
        assert [ptg.name for ptg in fresh if "alloc_tables" in ptg._cache] == []


class ExplodingAllocator(ScrapMaxAllocator):
    """Allocator that raises for one specific application name."""

    def __init__(self, poison: str) -> None:
        super().__init__()
        self.poison = poison

    def allocate(self, ptg, platform, beta=1.0):
        if ptg.name == self.poison:
            raise AllocationError(f"poisoned application {ptg.name!r}")
        return super().allocate(ptg, platform, beta=beta)


class TestTransactionalAdmit:
    """A failed admission leaves the session bit-identical to a clean one."""

    def _assert_sessions_identical(self, session, control):
        assert session.admitted == control.admitted
        assert session.active_applications == control.active_applications
        assert session.completions == control.completions
        assert session.last_admission == control.last_admission
        assert len(session.schedule) == len(control.schedule)
        assert session.engine.packed_tasks == control.engine.packed_tasks
        for cluster in session.platform.cluster_names():
            ours = session.engine.timelines.timeline(cluster)
            theirs = control.engine.timelines.timeline(cluster)
            assert np.array_equal(ours.free_times(), theirs.free_times())

    def test_failed_allocation_rolls_back_everything(self, medium_platform):
        prefix = [
            Arrival(make_chain_ptg("a", n=3, flops=20e9), 0.0),
            Arrival(make_chain_ptg("b", n=3, flops=20e9), 5.0),
        ]
        session = StreamSession(medium_platform, allocator=ExplodingAllocator("boom"))
        control = StreamSession(medium_platform, allocator=ExplodingAllocator("boom"))
        session.feed(prefix)
        control.feed(prefix)
        with pytest.raises(AllocationError):
            session.admit(Arrival(make_chain_ptg("boom", n=2), 10.0))
        self._assert_sessions_identical(session, control)
        # both sessions keep admitting identically after the failure
        tail = Arrival(make_chain_ptg("c", n=3, flops=20e9), 20.0)
        session.admit(tail)
        control.admit(tail)
        assert_identical_stream_results(session.result(), control.result())

    def test_failed_mapping_rolls_back_reservations(self, medium_platform):
        prefix = [Arrival(make_chain_ptg("a", n=4, flops=20e9), 0.0)]
        session = StreamSession(medium_platform)
        control = StreamSession(medium_platform)
        session.feed(prefix)
        control.feed(prefix)

        # fail after two tasks of the newcomer were already reserved
        original_place = session.engine.place
        calls = {"n": 0}

        def exploding_place(**kwargs):
            if calls["n"] >= 2:
                raise MappingError("injected placement failure")
            calls["n"] += 1
            return original_place(**kwargs)

        session.engine.place = exploding_place
        with pytest.raises(MappingError):
            session.admit(Arrival(make_chain_ptg("partial", n=5, flops=20e9), 1.0))
        session.engine.place = original_place

        self._assert_sessions_identical(session, control)
        tail = Arrival(make_chain_ptg("after", n=3, flops=20e9), 2.0)
        session.admit(tail)
        control.admit(tail)
        assert_identical_stream_results(session.result(), control.result())

    def test_failed_admission_does_not_commit_retirements(self, medium_platform):
        session = StreamSession(medium_platform, allocator=ExplodingAllocator("boom"))
        done = session.admit(Arrival(make_chain_ptg("early", n=2, flops=10e9), 0.0))
        # the poisoned arrival lands after "early" completed: the staged
        # retirement must be discarded together with the failed admission
        with pytest.raises(AllocationError):
            session.admit(Arrival(make_chain_ptg("boom", n=2), done + 1.0))
        assert session.active_applications == ["early"]
        assert session.admitted == 1


class TestErrorContracts:
    """Public result accessors raise ConfigurationError, never raw lookups."""

    def _stream_result(self, medium_platform):
        session = StreamSession(medium_platform)
        session.feed([Arrival(make_chain_ptg("only", n=2, flops=10e9), 0.0)])
        return session.result()

    def _base_result(self, medium_platform):
        streamed = self._stream_result(medium_platform)
        return OnlineScheduleResult(
            platform=streamed.platform,
            arrivals=streamed.arrivals,
            betas=streamed.betas,
            active_at_admission=streamed.active_at_admission,
            allocations=streamed.allocations,
            schedule=streamed.schedule,
            strategy_name=streamed.strategy_name,
        )

    @pytest.mark.parametrize(
        "accessor", ["completion_time", "makespan", "waiting_time"]
    )
    def test_stream_result_accessors(self, medium_platform, accessor):
        result = self._stream_result(medium_platform)
        with pytest.raises(ConfigurationError, match="ghost"):
            getattr(result, accessor)("ghost")

    @pytest.mark.parametrize("accessor", ["completion_time", "makespan"])
    def test_online_result_accessors(self, medium_platform, accessor):
        result = self._base_result(medium_platform)
        with pytest.raises(ConfigurationError, match="ghost"):
            getattr(result, accessor)("ghost")

    def test_known_names_still_resolve(self, medium_platform):
        streamed = self._stream_result(medium_platform)
        base = self._base_result(medium_platform)
        assert streamed.completion_time("only") == base.completion_time("only")
        assert streamed.makespan("only") == base.makespan("only")
        assert streamed.waiting_time("only") >= 0.0


class TestDeltaEFTProperties:
    """Random online streams: delta admissions stay exact and valid."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_arrivals=st.integers(min_value=1, max_value=6),
        rate=st.floats(min_value=0.005, max_value=0.5),
        process=st.sampled_from(["poisson", "mmpp"]),
    )
    def test_delta_streams_bit_identical_and_validator_clean(
        self, seed, n_arrivals, rate, process
    ):
        platform = heterogeneous_platform((6, 10), (2.0, 4.0), name="delta-prop")
        spec = ArrivalSpec(
            process=process, rate=rate, n_arrivals=n_arrivals, seed=seed,
            family="random", max_tasks=8,
        )
        stream = generate_arrivals(spec)
        fast_result = production_result(platform, stream)
        assert_identical_stream_results(fast_result, oracle_result(platform, stream))
        report = validate_schedule(
            fast_result.schedule, [a.ptg for a in stream], platform
        )
        assert report.ok, [str(v) for v in report.violations]
