"""Tests for the cluster processor timelines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MappingError
from repro.mapping.timeline import ClusterTimeline, PlatformTimeline
from repro.platform.cluster import Cluster

from tests.oracles.mapping import ReferenceClusterTimeline


@pytest.fixture
def timeline():
    return ClusterTimeline(Cluster("c", 4, 2.0))


class TestClusterTimeline:
    def test_initially_all_free(self, timeline):
        assert timeline.earliest_start(4, 0.0) == 0.0
        assert list(timeline.free_times()) == [0.0] * 4

    def test_reserve_advances_free_times(self, timeline):
        procs, start, finish = timeline.reserve(2, 0.0, 5.0)
        assert start == 0.0 and finish == 5.0
        assert sorted(procs) == [0, 1]
        assert timeline.earliest_start(4, 0.0) == 5.0  # needs all four
        assert timeline.earliest_start(2, 0.0) == 0.0  # two still free

    def test_ready_time_respected(self, timeline):
        _, start, _ = timeline.reserve(1, 3.0, 1.0)
        assert start == 3.0

    def test_earliest_start_kth_smallest(self, timeline):
        timeline.reserve(1, 0.0, 10.0)
        timeline.reserve(1, 0.0, 2.0)
        # free times are now [10, 2, 0, 0]
        assert timeline.earliest_start(2, 0.0) == 0.0
        assert timeline.earliest_start(3, 0.0) == 2.0
        assert timeline.earliest_start(4, 0.0) == 10.0

    def test_selects_earliest_free_processors(self, timeline):
        timeline.reserve(2, 0.0, 8.0)      # procs 0,1 busy until 8
        procs, start, finish = timeline.reserve(2, 0.0, 1.0)
        assert sorted(procs) == [2, 3]
        assert start == 0.0

    def test_too_many_processors(self, timeline):
        with pytest.raises(MappingError):
            timeline.earliest_start(5, 0.0)
        with pytest.raises(MappingError):
            timeline.reserve(0, 0.0, 1.0)

    def test_negative_arguments(self, timeline):
        with pytest.raises(MappingError):
            timeline.earliest_start(1, -1.0)
        with pytest.raises(MappingError):
            timeline.reserve(1, 0.0, -2.0)

    def test_utilisation(self, timeline):
        timeline.reserve(2, 0.0, 5.0)
        assert timeline.utilisation(10.0) == pytest.approx(2 * 5.0 / (10.0 * 4))
        assert timeline.utilisation(0.0) == 0.0


class TestEarliestStartKth:
    def test_kth_smallest_semantics(self):
        t = ClusterTimeline(Cluster("c", 3, 1.0))
        t.reserve(1, 0.0, 4.0)
        t.reserve(1, 0.0, 2.0)
        # free times now [4, 2, 0]
        assert t.earliest_start(1, 0.0) == 0.0
        assert t.earliest_start(2, 0.0) == 2.0
        assert t.earliest_start(3, 0.0) == 4.0


class TestPlatformTimeline:
    def test_one_timeline_per_cluster(self, small_platform):
        pt = PlatformTimeline(small_platform)
        assert len(pt.timelines()) == len(small_platform)
        for cluster in small_platform:
            assert pt.timeline(cluster.name).num_processors == cluster.num_processors

    def test_unknown_cluster(self, small_platform):
        pt = PlatformTimeline(small_platform)
        with pytest.raises(MappingError):
            pt.timeline("nope")


class TestTimelineEdgeCases:
    """Boundary behaviour of the incremental sorted-free-time timeline."""

    def test_reserve_exactly_num_processors(self, timeline):
        procs, start, finish = timeline.reserve(4, 0.0, 3.0)
        assert sorted(procs) == [0, 1, 2, 3]
        assert (start, finish) == (0.0, 3.0)
        # the whole cluster frees up at once
        assert timeline.earliest_start(1, 0.0) == 3.0
        assert timeline.earliest_start(4, 0.0) == 3.0
        # a second full-cluster reservation queues behind the first
        procs, start, finish = timeline.reserve(4, 0.0, 2.0)
        assert sorted(procs) == [0, 1, 2, 3]
        assert (start, finish) == (3.0, 5.0)

    def test_repeated_full_cluster_reservations(self, timeline):
        for round_ in range(5):
            _, start, finish = timeline.reserve(4, 0.0, 1.0)
            assert start == float(round_)
            assert finish == float(round_ + 1)

    def test_sorted_view_matches_free_times(self, timeline):
        # kth_free_list() is the sorted mirror the EFT engine reads: it is
        # spliced on reserve, rebuilt after block and rollback, and must
        # equal the sorted per-processor free times after each of them
        def sorted_free():
            return sorted(timeline.free_times().tolist())

        timeline.kth_free_list()  # materialised: reserve splices it
        timeline.reserve(2, 0.0, 7.0)
        timeline.reserve(1, 1.0, 2.5)
        timeline.reserve(3, 0.0, 4.0)
        assert timeline.kth_free_list() == sorted_free()
        timeline.block([0, 3], 12.0)
        assert timeline.kth_free_list() == sorted_free()
        before = list(timeline.kth_free_list())
        timeline.begin_transaction()
        timeline.reserve(2, 0.0, 1.5)
        assert timeline.kth_free_list() == sorted_free()
        timeline.rollback_transaction()
        assert timeline.kth_free_list() == sorted_free() == before

    def test_earliest_start_error_paths(self, timeline):
        with pytest.raises(MappingError, match="cannot reserve 0 processors"):
            timeline.earliest_start(0, 0.0)
        with pytest.raises(MappingError, match="cannot reserve 5 processors"):
            timeline.earliest_start(5, 0.0)
        with pytest.raises(MappingError, match="ready_time must be non-negative"):
            timeline.earliest_start(1, -0.5)

    def test_select_processors_error_paths(self, timeline):
        with pytest.raises(MappingError, match="cannot reserve 0 processors"):
            timeline.select_processors(0)
        with pytest.raises(MappingError, match="cannot reserve 5 processors"):
            timeline.select_processors(5)

    def test_select_processors_tie_break_by_index(self, timeline):
        # processors 1 and 3 free at 2.0, processors 0 and 2 free at 5.0
        timeline.block([0, 2], 5.0)
        timeline.block([1, 3], 2.0)
        assert list(timeline.free_times()) == [5.0, 2.0, 5.0, 2.0]
        assert timeline.select_processors(1) == [1]
        assert timeline.select_processors(2) == [1, 3]
        assert timeline.select_processors(3) == [1, 3, 0]
        assert timeline.select_processors(4) == [1, 3, 0, 2]

    def test_reserve_merges_with_processors_free_at_its_finish(self):
        fast = ClusterTimeline(Cluster("c", 6, 2.0))
        slow = ReferenceClusterTimeline(Cluster("c", 6, 2.0))
        steps = [
            (1, 0.0, 5.0),  # p0 free at 5
            (1, 0.0, 2.0),  # p1 free at 2
            (1, 0.0, 5.0),  # p2 free at 5
            (1, 0.0, 9.0),  # p3 free at 9, above the finish to come
            (2, 3.0, 2.0),  # p4 and p5 start at 3 and join p0, p2 at 5
            (3, 0.0, 0.0),  # p1, p0, p2: zero-length, finish 5 again
        ]
        for procs, ready, duration in steps:
            assert fast.reserve(procs, ready, duration) == slow.reserve(
                procs, ready, duration
            )
            assert np.array_equal(fast.free_times(), slow.free_times())
            assert fast.select_processors(6) == slow.select_processors(6)
            assert fast.kth_free_list() == sorted(slow.free_times().tolist())
        assert fast.select_processors(6) == [0, 1, 2, 4, 5, 3]

    def test_matches_reference_timeline_on_random_traffic(self):
        # reserves interleaved with begin / commit / rollback; every other
        # reservation lands on a coarse grid so free times tie and the
        # processor index decides the selection
        rng = np.random.default_rng(11)
        fast = ClusterTimeline(Cluster("c", 16, 2.0))
        slow = ReferenceClusterTimeline(Cluster("c", 16, 2.0))
        in_transaction = False
        rollbacks = 0
        for step in range(600):
            action = int(rng.integers(0, 8))
            if action == 0 and not in_transaction:
                fast.begin_transaction()
                slow.begin_transaction()
                in_transaction = True
            elif action == 1 and in_transaction:
                if rng.integers(0, 2):
                    fast.rollback_transaction()
                    slow.rollback_transaction()
                    rollbacks += 1
                else:
                    fast.commit_transaction()
                    slow.commit_transaction()
                in_transaction = False
            else:
                procs = int(rng.integers(1, 17))
                if step % 2:
                    ready = float(rng.integers(0, 50))
                    duration = float(rng.integers(0, 8)) / 2
                else:
                    ready = float(rng.uniform(0.0, 50.0))
                    duration = float(rng.uniform(0.0, 10.0))
                assert fast.earliest_start(procs, ready) == slow.earliest_start(
                    procs, ready
                )
                assert fast.select_processors(procs) == slow.select_processors(procs)
                assert fast.reserve(procs, ready, duration) == slow.reserve(
                    procs, ready, duration
                )
            assert np.array_equal(fast.free_times(), slow.free_times())
            assert fast.kth_free_list() == sorted(slow.free_times().tolist())
        assert rollbacks > 5


def oracle_block(timeline, processors, until):
    """:meth:`ClusterTimeline.block` on the oracle's per-processor array.

    The oracle predates blocking; this is its one-line definition, with
    the oracle's lazy transaction snapshot.
    """
    if timeline._txn_active and timeline._txn_saved is None:
        timeline._txn_saved = timeline._free_at.copy()
    for index in processors:
        timeline._free_at[index] = max(timeline._free_at[index], until)


@st.composite
def timeline_programs(draw):
    """A cluster size and a sequence of timeline steps.

    Times and durations come mostly from a coarse grid, so finishes land
    on existing free times and the processor index decides ties; full
    cluster reservations are drawn as often as any other size.
    """
    size = draw(st.integers(min_value=1, max_value=9))
    times = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 40.0))
    durations = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
    counts = st.one_of(st.just(size), st.integers(1, size))
    reserve = st.tuples(st.just("reserve"), counts, times, durations)
    block = st.tuples(
        st.just("block"), st.lists(st.integers(0, size - 1), max_size=size), times
    )
    transaction = st.tuples(st.sampled_from(["begin", "commit", "rollback"]))
    steps = st.lists(st.one_of(reserve, reserve, block, transaction), max_size=30)
    return size, draw(steps)


@settings(max_examples=150, deadline=None)
@given(program=timeline_programs())
def test_matches_the_oracle_on_random_programs(program):
    """Every step leaves the two-list frontier equal to the oracle's state."""
    size, steps = program
    fast = ClusterTimeline(Cluster("c", size, 2.0))
    slow = ReferenceClusterTimeline(Cluster("c", size, 2.0))
    in_transaction = False
    for step in steps:
        kind = step[0]
        if kind == "reserve":
            _, processors, ready, duration = step
            assert fast.reserve(processors, ready, duration) == slow.reserve(
                processors, ready, duration
            )
        elif kind == "block":
            _, processors, until = step
            fast.block(processors, until)
            oracle_block(slow, processors, until)
        elif kind == "begin" and not in_transaction:
            fast.begin_transaction()
            slow.begin_transaction()
            in_transaction = True
        elif kind == "commit" and in_transaction:
            fast.commit_transaction()
            slow.commit_transaction()
            in_transaction = False
        elif kind == "rollback" and in_transaction:
            fast.rollback_transaction()
            slow.rollback_transaction()
            in_transaction = False
        assert np.array_equal(fast.free_times(), slow.free_times())
        assert fast.kth_free_list() == sorted(slow.free_times().tolist())
        for count in range(1, size + 1):
            assert fast.select_processors(count) == slow.select_processors(count)
