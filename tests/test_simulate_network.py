"""Tests for the fluid fair-sharing network model."""

import random

import pytest

from repro.exceptions import SimulationError
from repro.platform import grid5000
from repro.simulate.engine import SimulationEngine
from repro.simulate.network import FairShareNetwork

from tests.oracles.simulate import (
    ReferenceFairShareNetwork,
    ReferenceSimulationEngine,
)


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def network(small_platform, engine):
    return FairShareNetwork(small_platform, engine)


class TestBasicTransfers:
    def test_intra_cluster_completes_immediately(self, small_platform, engine, network):
        done = []
        name = small_platform.cluster_names()[0]
        network.start_transfer(1e9, name, name, lambda: done.append(engine.now))
        engine.run()
        assert done == [0.0]

    def test_zero_bytes_completes_after_latency(self, small_platform, engine, network):
        done = []
        a, b = small_platform.cluster_names()
        network.start_transfer(0.0, a, b, lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1
        assert done[0] <= small_platform.topology.path_latency(a, b) + 1e-9

    def test_single_flow_duration(self, small_platform, engine, network):
        done = []
        a, b = small_platform.cluster_names()
        data = 1e9
        network.start_transfer(data, a, b, lambda: done.append(engine.now))
        engine.run()
        bandwidth = small_platform.topology.route_bandwidth(
            a, b,
            small_platform.cluster(a).num_processors,
            small_platform.cluster(b).num_processors,
        )
        expected = small_platform.topology.path_latency(a, b) + data / bandwidth
        assert done[0] == pytest.approx(expected, rel=1e-3)

    def test_counters(self, small_platform, engine, network):
        a, b = small_platform.cluster_names()
        network.start_transfer(5e8, a, b, lambda: None)
        engine.run()
        assert network.completed_flows == 1
        assert network.total_bytes_transferred == pytest.approx(5e8)
        assert network.active_flows == 0

    def test_invalid_arguments(self, small_platform, engine, network):
        a, b = small_platform.cluster_names()
        with pytest.raises(SimulationError):
            network.start_transfer(-1.0, a, b, lambda: None)
        with pytest.raises(SimulationError):
            network.start_transfer(1.0, a, "nope", lambda: None)


class TestContention:
    def test_two_flows_share_bandwidth(self, small_platform, engine, network):
        """Two simultaneous flows on the same route take about twice as long."""
        a, b = small_platform.cluster_names()
        data = 2e9
        finishes = []
        network.start_transfer(data, a, b, lambda: finishes.append(engine.now))
        network.start_transfer(data, a, b, lambda: finishes.append(engine.now))
        engine.run()
        bandwidth = small_platform.topology.route_bandwidth(
            a, b,
            small_platform.cluster(a).num_processors,
            small_platform.cluster(b).num_processors,
        )
        single_duration = data / bandwidth
        assert len(finishes) == 2
        assert max(finishes) == pytest.approx(2 * single_duration, rel=0.05)

    def test_flow_speeds_up_after_competitor_finishes(self, small_platform, engine, network):
        """A long flow sharing with a short one finishes earlier than 2x alone."""
        a, b = small_platform.cluster_names()
        bandwidth = small_platform.topology.route_bandwidth(
            a, b,
            small_platform.cluster(a).num_processors,
            small_platform.cluster(b).num_processors,
        )
        finishes = {}
        network.start_transfer(4e9, a, b, lambda: finishes.__setitem__("long", engine.now))
        network.start_transfer(1e9, a, b, lambda: finishes.__setitem__("short", engine.now))
        engine.run()
        alone = 4e9 / bandwidth
        assert finishes["short"] < finishes["long"]
        # the long flow is only delayed by the time it shared with the short one
        assert finishes["long"] < 2 * alone
        assert finishes["long"] > alone

    def test_opposite_direction_flows_share_the_switch(self, small_platform, engine, network):
        a, b = small_platform.cluster_names()
        finishes = []
        network.start_transfer(2e9, a, b, lambda: finishes.append(engine.now))
        network.start_transfer(2e9, b, a, lambda: finishes.append(engine.now))
        engine.run()
        assert len(finishes) == 2

    def test_reverse_flows_on_split_switch_platform(self, split_switch_platform, engine):
        network = FairShareNetwork(split_switch_platform, engine)
        a, b = split_switch_platform.cluster_names()
        done = []
        network.start_transfer(1e9, a, b, lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1

    def test_flow_rate_query(self, small_platform, engine, network):
        a, b = small_platform.cluster_names()
        flow_id = network.start_transfer(1e9, a, b, lambda: None)
        # the fluid part only starts after the latency event
        engine.step()
        assert network.flow_rate(flow_id) > 0
        engine.run()
        with pytest.raises(SimulationError):
            network.flow_rate(flow_id)


def _completions(network_cls, engine_cls, platform, transfers, start=0.0):
    """Completion instants of ``(at, bytes, src, dst)`` transfers, in order."""
    engine = engine_cls()
    network = network_cls(platform, engine)
    done = []
    for index, (at, data, src, dst) in enumerate(transfers):
        engine.schedule(
            start + at,
            network.start_transfer,
            data,
            src,
            dst,
            lambda index=index: done.append((index, engine.now)),
        )
    engine.run()
    return done, network


class TestWakeUp:
    def test_rearmed_wake_up_completes_each_flow_once(self):
        # a long flow inside Lille is overtaken by short flows inside
        # Nancy (no shared resource): the wake-up moves to each short
        # flow and back to the long one's unchanged (time, number)
        platform = grid5000.composed()
        transfers = [(0.0, 8e10, "chuque", "chti")]
        transfers += [(0.5 * i, 1e8, "grillon", "grelon") for i in range(1, 8)]
        done, network = _completions(
            FairShareNetwork, SimulationEngine, platform, transfers
        )
        reference, _ = _completions(
            ReferenceFairShareNetwork, ReferenceSimulationEngine, platform, transfers
        )
        assert sorted(index for index, _ in done) == list(range(len(transfers)))
        assert done == reference
        assert done[-1][0] == 0  # the long flow finishes last
        assert network.active_flows == 0
        assert network.completed_flows == len(transfers)

    def test_first_wake_up_of_a_flow_keeps_its_place_among_ties(self):
        # the long flow's number is taken when it begins at 0.1 s, while the
        # short flow's completion is the earliest; its wake-up is pushed only
        # when the short flow completes.  An event scheduled in between,
        # for the exact instant the long flow completes, still runs after
        # the completion, as it did with one event per flow.
        platform = grid5000.composed()

        def run(network_cls, engine_cls, marker_at=None):
            engine = engine_cls()
            network = network_cls(platform, engine)
            log = []
            network.start_transfer(
                1e10, "grillon", "grelon", lambda: log.append(("short", engine.now))
            )
            engine.schedule(
                0.1, network.start_transfer, 8e10, "chuque", "chti",
                lambda: log.append(("long", engine.now)),
            )
            if marker_at is not None:
                engine.schedule(0.5, lambda: engine.schedule(
                    marker_at, lambda: log.append(("marker", engine.now))
                ))
            engine.run()
            return log

        log = run(FairShareNetwork, SimulationEngine)
        assert [name for name, _ in log] == ["short", "long"]
        assert log[0][1] > 0.5  # the short flow outlives the marker's scheduling
        log = run(FairShareNetwork, SimulationEngine, marker_at=log[1][1])
        assert [name for name, _ in log] == ["short", "long", "marker"]
        assert log == run(ReferenceFairShareNetwork, ReferenceSimulationEngine, log[1][1])

    def test_random_traffic_matches_the_oracle(self):
        # flows between random cluster pairs of the composed platform:
        # some share a resource, some do not, rates change and stay
        rng = random.Random(3)
        platform = grid5000.composed()
        names = platform.cluster_names()
        transfers = [
            (rng.uniform(0.0, 30.0), 10 ** rng.uniform(7, 10), *rng.sample(names, 2))
            for _ in range(80)
        ]
        for start in (0.0, 1e6):
            done, _ = _completions(
                FairShareNetwork, SimulationEngine, platform, transfers, start
            )
            reference, _ = _completions(
                ReferenceFairShareNetwork, ReferenceSimulationEngine, platform,
                transfers, start,
            )
            assert len(done) == len(transfers)
            assert done == reference


class TestLargeInstants:
    """At large instants a completion can fire with bytes left over."""

    def test_flow_with_rounding_residue_completes(self):
        # time rounding at t = 1e9 s leaves more than one byte when the
        # completion fires; the flow must still complete
        done, network = _completions(
            FairShareNetwork,
            SimulationEngine,
            grid5000.nancy(),
            [(0.0, 76_096_483_528.81265, "grillon", "grelon")],
            start=1e9,
        )
        assert len(done) == 1
        assert network.active_flows == 0
        assert network.completed_flows == 1

    def test_residue_that_advances_the_clock_is_rearmed(self):
        # a completion event that fires with bytes left, and whose new
        # eta advances the clock, re-arms the flow; the residue is
        # injected because natural rounding residues stay below one tick
        def run(network_cls, engine_cls):
            engine = engine_cls()
            network = network_cls(grid5000.nancy(), engine)
            done = []
            flow_id = network.start_transfer(
                1e9, "grillon", "grelon", lambda: done.append(engine.now)
            )
            engine.step()  # the latency event: the flow begins
            network._flows[flow_id].remaining_bytes += 5e8
            engine.run()
            return done, network

        done, network = run(FairShareNetwork, SimulationEngine)
        reference, _ = run(ReferenceFairShareNetwork, ReferenceSimulationEngine)
        assert len(done) == 1
        assert done == reference
        assert network.active_flows == 0

    @pytest.mark.parametrize("start", [1e7, 1e8, 1e9])
    def test_random_volumes_complete(self, start):
        rng = random.Random(5)
        for _ in range(40):
            data = 10 ** rng.uniform(6, 12)
            done, network = _completions(
                FairShareNetwork,
                SimulationEngine,
                grid5000.nancy(),
                [(0.0, data, "grillon", "grelon")],
                start=start,
            )
            assert len(done) == 1, data
            assert network.active_flows == 0
