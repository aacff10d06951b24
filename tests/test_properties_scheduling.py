"""Property-based tests on the scheduling invariants.

For arbitrary workloads and constraints the pipeline must always produce
(1) complete schedules, (2) no processor oversubscription, (3) respected
precedence constraints, and (4) SCRAP-MAX allocations that never exceed
the per-level power budget (when the one-processor-per-task baseline
fits).

The validator layer broadens this: random PTGs x all eight constraint
strategies x both mappers x packing on/off must always produce schedules
the :mod:`repro.validate` invariant checker accepts, and so must random
online arrival streams.  Cases that once shrank to failures are checked
in as regression fixtures (``tests/fixtures/property_regressions.json``)
and replayed both as plain parametrized tests and as hypothesis
``@example`` seeds.

CI runs this module under a derandomized profile
(``HYPOTHESIS_PROFILE=ci`` plus ``--hypothesis-seed=0``, see
``tests/conftest.py``), so the examples drawn are stable across runs.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.allocation.scrap import ScrapMaxAllocator
from repro.constraints.registry import STRATEGY_NAMES
from repro.constraints.strategies import (
    EqualShareStrategy,
    WeightedProportionalShareStrategy,
)
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.mapping.base import AllocatedPTG
from repro.mapping.ready_list import ReadyListMapper
from repro.platform.builder import heterogeneous_platform
from repro.scenarios.registry import MAPPERS, STRATEGIES
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.scheduler.online import OnlineConcurrentScheduler
from repro.simulate.executor import ScheduleExecutor
from repro.streaming.spec import ArrivalSpec, generate_arrivals
from repro.validate import validate_result, validate_schedule

PLATFORM = heterogeneous_platform((6, 10), (2.0, 4.0), name="prop-platform")

REGRESSION_FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "property_regressions.json").read_text()
)


def build_workload(seed, n_apps, n_tasks):
    return [
        generate_random_ptg(
            seed + i, RandomPTGConfig(n_tasks=n_tasks), name=f"prop-{seed}-{i}"
        )
        for i in range(n_apps)
    ]


def run_pipeline_case(seed, n_apps, n_tasks, strategy, mapper, packing):
    """Schedule one drawn case and return (workload, result)."""
    workload = build_workload(seed, n_apps, n_tasks)
    scheduler = ConcurrentScheduler(
        STRATEGIES.create(strategy),
        mapper=MAPPERS.create(mapper, enable_packing=packing),
    )
    return workload, scheduler.schedule(workload, PLATFORM)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_apps=st.integers(min_value=1, max_value=4),
    n_tasks=st.integers(min_value=2, max_value=12),
    beta=st.floats(min_value=0.1, max_value=1.0),
)
def test_scrap_max_allocation_invariants(seed, n_apps, n_tasks, beta):
    workload = build_workload(seed, n_apps, n_tasks)
    allocator = ScrapMaxAllocator()
    limit = beta * PLATFORM.total_power_gflops + 1e-9
    for ptg in workload:
        allocation = allocator.allocate(ptg, PLATFORM, beta=beta)
        cap = allocation.reference.max_allocation(PLATFORM)
        for task in ptg.tasks():
            procs = allocation.processors(task.task_id)
            assert 1 <= procs <= cap
            if task.is_synthetic:
                assert procs == 1
        initial_fits = all(
            len(tids) * allocation.reference.speed_gflops <= limit
            for tids in ptg.tasks_by_level().values()
        )
        if initial_fits:
            assert all(power <= limit for power in allocation.level_powers().values())


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_apps=st.integers(min_value=1, max_value=3),
    n_tasks=st.integers(min_value=2, max_value=10),
    mu=st.floats(min_value=0.0, max_value=1.0),
)
def test_concurrent_schedule_invariants(seed, n_apps, n_tasks, mu):
    workload = build_workload(seed, n_apps, n_tasks)
    scheduler = ConcurrentScheduler(WeightedProportionalShareStrategy("work", mu=mu))
    result = scheduler.schedule(workload, PLATFORM)
    # betas are valid fractions
    assert all(0 < b <= 1 for b in result.betas.values())
    # every task of every application is placed exactly once
    assert len(result.schedule) == sum(p.n_tasks for p in workload)
    # no processor oversubscription and no precedence violation
    validate_schedule(result.schedule, ptgs=workload).raise_if_invalid()
    # per-application makespans are positive and bounded by the batch makespan
    for name, makespan in result.makespans.items():
        assert 0 < makespan <= result.global_makespan + 1e-9


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_apps=st.integers(min_value=1, max_value=3),
    n_tasks=st.integers(min_value=2, max_value=8),
)
def test_simulated_execution_invariants(seed, n_apps, n_tasks):
    workload = build_workload(seed, n_apps, n_tasks)
    scheduler = ConcurrentScheduler(EqualShareStrategy())
    planned = scheduler.schedule(workload, PLATFORM)
    report = ScheduleExecutor(PLATFORM).execute(workload, planned.schedule)
    records = {(r.ptg_name, r.task_id): r for r in report.records}
    # every task executed exactly once
    assert len(records) == sum(p.n_tasks for p in workload)
    for ptg in workload:
        for src, dst, _ in ptg.edges():
            # measured precedences hold
            assert records[(ptg.name, dst)].start >= records[(ptg.name, src)].finish - 1e-9
    # the simulation never finishes a task before the mapper thought possible
    for key, record in records.items():
        assert record.finish >= record.planned_start - 1e-9
    # measured makespans are positive
    assert all(v > 0 for v in report.makespans().values())


@settings(max_examples=24, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_apps=st.integers(min_value=1, max_value=3),
    n_tasks=st.integers(min_value=2, max_value=12),
    strategy=st.sampled_from(STRATEGY_NAMES),
    mapper=st.sampled_from(["ready-list", "global-order"]),
    packing=st.booleans(),
)
@example(seed=0, n_apps=1, n_tasks=2, strategy="S", mapper="ready-list", packing=True)
@example(
    seed=1187, n_apps=3, n_tasks=9, strategy="PS-width", mapper="ready-list",
    packing=False,
)
@example(
    seed=4242, n_apps=2, n_tasks=12, strategy="WPS-cp", mapper="global-order",
    packing=True,
)
def test_every_pipeline_is_validator_clean(
    seed, n_apps, n_tasks, strategy, mapper, packing
):
    """Any strategy x mapper x packing combination satisfies every invariant."""
    workload, result = run_pipeline_case(
        seed, n_apps, n_tasks, strategy, mapper, packing
    )
    report = validate_schedule(result.schedule, workload, PLATFORM)
    assert report.ok, [str(v) for v in report.violations]


@pytest.mark.parametrize(
    "case",
    REGRESSION_FIXTURES,
    ids=lambda c: f"{c['strategy']}-{c['mapper']}-seed{c['seed']}"
                  f"{'' if c['packing'] else '-nopack'}",
)
def test_regression_fixtures_are_validator_clean(case):
    """Replay of the checked-in shrunk cases, independent of hypothesis."""
    workload, result = run_pipeline_case(
        case["seed"], case["n_apps"], case["n_tasks"],
        case["strategy"], case["mapper"], case["packing"],
    )
    report = validate_schedule(result.schedule, workload, PLATFORM)
    assert report.ok, [str(v) for v in report.violations]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_arrivals=st.integers(min_value=1, max_value=6),
    rate=st.floats(min_value=0.005, max_value=0.5),
    process=st.sampled_from(["poisson", "mmpp"]),
)
@example(seed=0, n_arrivals=1, rate=0.005, process="poisson")
def test_online_streams_are_validator_clean(seed, n_arrivals, rate, process):
    """Random arrival streams keep every invariant, release times included."""
    spec = ArrivalSpec(
        process=process, rate=rate, n_arrivals=n_arrivals, seed=seed,
        family="random", max_tasks=8,
    )
    arrivals = generate_arrivals(spec)
    result = OnlineConcurrentScheduler().schedule(arrivals, PLATFORM)
    report = validate_result(result)
    assert report.ok, [str(v) for v in report.violations]
    assert "release" in report.checks


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_tasks=st.integers(min_value=2, max_value=10),
)
def test_ready_list_mapping_is_deterministic(seed, n_tasks):
    ptg = generate_random_ptg(seed, RandomPTGConfig(n_tasks=n_tasks), name="det")
    allocation = ScrapMaxAllocator().allocate(ptg, PLATFORM, beta=0.5)
    mapper = ReadyListMapper()
    s1 = mapper.map([AllocatedPTG(ptg, allocation)], PLATFORM)
    s2 = mapper.map([AllocatedPTG(ptg, allocation)], PLATFORM)
    for entry in s1:
        other = s2.entry(entry.ptg_name, entry.task_id)
        assert other.start == entry.start
        assert other.finish == entry.finish
        assert other.cluster_name == entry.cluster_name
        assert other.processors == entry.processors
