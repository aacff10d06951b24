"""Telemetry on vs off: schedules and stats must stay bit-identical.

Telemetry is strictly observational: this module runs the same pipeline
with telemetry disabled and enabled and asserts the produced schedules,
experiment outcomes, streaming outcomes and allocation
:class:`~repro.allocation.iterative.IterationStats` match exactly --
not approximately.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    ConcurrentScheduler,
    RandomPTGConfig,
    Scenario,
    ScrapMaxAllocator,
    TelemetrySpec,
    generate_random_ptg,
    grid5000,
    obs,
    run_scenario,
    strategy,
)
from repro.streaming.run import run_stream_scenario
from repro.streaming.spec import ArrivalSpec
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(autouse=True)
def telemetry_is_off_before_and_after():
    assert not obs.enabled()
    yield
    assert not obs.enabled()


def make_ptgs(n=3, seed=11):
    rng = np.random.default_rng(seed)
    return [
        generate_random_ptg(rng, RandomPTGConfig(n_tasks=15), name=f"app-{i}")
        for i in range(n)
    ]


def schedule_rows(schedule):
    """Exact row form of a schedule for bit-identical comparison."""
    return [
        (e.ptg_name, e.task_id, e.cluster_name, e.processors, e.start, e.finish)
        for e in schedule
    ]


def test_scheduler_output_is_bit_identical_with_telemetry_on():
    platform = grid5000.rennes()
    scheduler = ConcurrentScheduler(strategy("ES"))

    baseline = scheduler.schedule(make_ptgs(), platform)
    with obs.capture() as session:
        traced = scheduler.schedule(make_ptgs(), platform)

    assert traced.betas == baseline.betas
    assert schedule_rows(traced.schedule) == schedule_rows(baseline.schedule)
    assert traced.makespans == baseline.makespans
    # and the capture actually observed the run
    assert any(s.name == "scheduler.allocate" for s in session.spans)
    # the second schedule repeats the same three (graph, beta) pairs: all
    # three are memo hits, counted as calls, and no loop span opens
    counters = session.registry.counters
    assert counters["allocation.calls"].value == 3
    assert counters["allocation.memo_hits"].value == 3
    assert counters["allocation.iterations_saved"].value > 0
    assert "allocation.iterations" not in counters
    assert not any(s.name == "allocation.iterate" for s in session.spans)


def test_allocation_stats_are_bit_identical_with_telemetry_on():
    platform = grid5000.rennes()
    ptg = make_ptgs(n=1)[0]

    baseline_allocator = ScrapMaxAllocator()
    baseline_allocation = baseline_allocator.allocate(ptg, platform, beta=0.5)
    baseline_stats = baseline_allocator.last_stats
    # a fresh allocator runs the loop under capture; its second call is
    # a memo hit, which must report the same stats
    allocator = ScrapMaxAllocator()
    with obs.capture() as session:
        for _ in range(2):
            traced_allocation = allocator.allocate(ptg, platform, beta=0.5)
            traced_stats = allocator.last_stats
            assert dataclasses.asdict(traced_stats) == dataclasses.asdict(baseline_stats)
            assert traced_allocation.as_dict() == baseline_allocation.as_dict()

    counters = session.registry.counters
    assert counters["allocation.memo_hits"].value == 1
    assert counters["allocation.iterations"].value == baseline_stats.iterations
    assert counters["allocation.iterations_saved"].value == baseline_stats.iterations


def test_a_primed_experiment_runs_one_pass_per_graph():
    from repro.experiments.runner import run_experiment

    platform = grid5000.rennes()
    strategies = [strategy(name) for name in ("S", "ES", "WPS-work")]
    baseline = run_experiment(make_ptgs(), platform, strategies)
    with obs.capture() as session:
        traced = run_experiment(make_ptgs(), platform, strategies)
    assert traced == baseline

    counters = {name: c.value for name, c in session.registry.counters.items()}
    # every allocate call -- 3 references and 3 strategies x 3 graphs --
    # is answered by the memo the passes filled
    assert counters["allocation.calls"] == 12
    assert counters["allocation.memo_hits"] == 12
    passes = [s.labels for s in session.spans if s.name == "allocation.iterate"]
    assert [labels["ptg"] for labels in passes] == ["app-0", "app-1", "app-2"]
    # S shares beta = 1 with the reference: three betas per graph, parted twice
    assert [(labels["betas"], labels["forks"]) for labels in passes] == [("3", "2")] * 3
    # the iterations the passes ran, each shared one counted once, against
    # the iterations the twelve answers' own runs take
    assert counters["allocation.iterations"] == 1281
    assert sum(int(labels["iterations"]) for labels in passes) == 1281
    # the critical-path walks those iterations made: the loop reuses the
    # path after a freeze and while the last walk's lead proves it
    assert counters["allocation.walks"] == 562
    assert [labels["walks"] for labels in passes] == ["366", "72", "124"]
    assert counters["allocation.iterations_saved"] == 2875


def test_scenario_results_are_bit_identical_with_telemetry_on():
    spec = (
        Scenario.on("rennes")
        .workload(family="fft", n_ptgs=2, seed=3)
        .pipeline(strategy=["ES", "S"])
        .build()
    )
    baseline = run_scenario(spec)
    with obs.capture():
        traced = run_scenario(spec)

    for name, outcome in baseline.experiment.outcomes.items():
        other = traced.experiment.outcomes[name]
        assert other.betas == outcome.betas
        assert other.makespans == outcome.makespans
        assert other.slowdowns == outcome.slowdowns
        assert other.unfairness == outcome.unfairness
        assert other.batch_makespan == outcome.batch_makespan


def test_stream_outcomes_are_bit_identical_with_telemetry_on():
    arrivals = ArrivalSpec(
        process="poisson", rate=0.2, n_arrivals=6, seed=5,
        family="random", max_tasks=10,
    )
    spec = ScenarioSpec(platform="rennes", strategies=["ES"], arrivals=arrivals)
    baseline = run_stream_scenario(spec)
    with obs.capture():
        traced = run_stream_scenario(spec)

    assert baseline.telemetry is None and traced.telemetry is None
    assert traced.outcomes.keys() == baseline.outcomes.keys()
    for name, outcome in baseline.outcomes.items():
        assert traced.outcomes[name].to_dict() == outcome.to_dict()


def test_spec_telemetry_session_is_scoped_to_the_run():
    spec = (
        Scenario.on("rennes")
        .workload(family="fft", n_ptgs=2, seed=3)
        .pipeline(strategy=["ES"])
        .build()
    )
    traced_spec = dataclasses.replace(spec, telemetry=TelemetrySpec())
    result = run_scenario(traced_spec)
    assert not obs.enabled()
    assert result.telemetry is not None
    assert result.telemetry["metrics"]["counters"]["allocation.calls"] > 0
    # the plain spec captures nothing and its hash is untouched
    assert run_scenario(spec).telemetry is None
    assert spec.content_hash() != traced_spec.content_hash()


def test_telemetry_key_extends_hash_only_when_set():
    from repro.scenarios.spec import PipelineSpec, scenario_hash_payload

    pipeline = PipelineSpec()
    base = scenario_hash_payload(
        family="fft", n_ptgs=2, seed=3, max_tasks=None,
        platform_fp="fp", strategy_names=("ES",), pipeline=pipeline,
    )
    assert "telemetry" not in base
    extended = scenario_hash_payload(
        family="fft", n_ptgs=2, seed=3, max_tasks=None,
        platform_fp="fp", strategy_names=("ES",), pipeline=pipeline,
        telemetry=TelemetrySpec(),
    )
    assert "telemetry" in extended
    plain = dict(extended)
    del plain["telemetry"]
    assert plain == base


def test_telemetry_spec_round_trips_and_rejects_all_off():
    from repro.exceptions import ConfigurationError

    spec = TelemetrySpec(spans=True, metrics=False, profile=True)
    assert TelemetrySpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ConfigurationError):
        TelemetrySpec(spans=False, metrics=False, profile=False)
    # the {"telemetry": true} JSON shorthand maps to the default spec
    scenario = ScenarioSpec.from_dict({"telemetry": True})
    assert scenario.telemetry == TelemetrySpec()
    assert ScenarioSpec.from_dict(scenario.to_dict()) == scenario
