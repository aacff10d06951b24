"""Golden test of the schedule replay against its frozen oracle.

The production replay (:mod:`repro.simulate`) keeps one wake-up event
for the earliest flow completion, per-resource flow counts, a route
cache per network and per-task processor counters in the executor.  It
must report exactly what the straightforward formulation in
:mod:`tests.oracles.simulate` reports: the same records in the same
order with every float equal under ``==``, the same failures in the
same order and the same network counters.

The inputs cover every caller of the executor: the batch schedules of
all eight strategies on the four sites for the three application
families, the single-PTG own-makespan schedules, streaming schedules
with releases, and every fault plan with and without degradation, each
replayed on the contention-aware and on the contention-free network.
"""

from dataclasses import fields

import pytest

from repro.constraints.registry import paper_strategies
from repro.constraints.strategies import EqualShareStrategy
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.faults.timeline import (
    correlated_cluster_plan,
    rolling_plan,
    single_node_plan,
)
from repro.platform import grid5000
from repro.scheduler.concurrent import ConcurrentScheduler
from repro.scheduler.online import OnlineConcurrentScheduler
from repro.scheduler.single import SinglePTGScheduler
from repro.simulate.executor import ScheduleExecutor
from repro.simulate.network import EstimatorNetwork, FairShareNetwork
from repro.simulate.report import FailureRecord, TaskRecord
from repro.streaming.spec import ArrivalSpec, generate_arrivals
from repro.utils.rng import ensure_rng

from tests.oracles.simulate import (
    ReferenceFairShareNetwork,
    ReferenceScheduleExecutor,
)

# (production network, oracle network): contention-aware, contention-free
NETWORKS = [
    (FairShareNetwork, ReferenceFairShareNetwork),
    (EstimatorNetwork, EstimatorNetwork),
]

# one PTG count per (site, family); together they span 2..10
BATCH_CASES = [
    ("lille", "random", 2),
    ("lille", "fft", 6),
    ("lille", "strassen", 10),
    ("nancy", "random", 10),
    ("nancy", "fft", 3),
    ("nancy", "strassen", 5),
    ("rennes", "random", 4),
    ("rennes", "fft", 8),
    ("rennes", "strassen", 2),
    ("sophia", "random", 7),
    ("sophia", "fft", 9),
    ("sophia", "strassen", 4),
]

FAULT_PLANS = [single_node_plan, rolling_plan, correlated_cluster_plan]


def assert_identical_reports(fast, reference):
    """Records, failures and network counters equal, floats under ``==``."""
    assert fast.platform_name == reference.platform_name
    assert len(fast.records) == len(reference.records)
    for ours, theirs in zip(fast.records, reference.records):
        for f in fields(TaskRecord):
            assert getattr(ours, f.name) == getattr(theirs, f.name), (ours, theirs)
    assert len(fast.failures) == len(reference.failures)
    for ours, theirs in zip(fast.failures, reference.failures):
        for f in fields(FailureRecord):
            assert getattr(ours, f.name) == getattr(theirs, f.name), (ours, theirs)
    assert fast.network_bytes == reference.network_bytes
    assert fast.network_flows == reference.network_flows


def replay_both(platform, ptgs, schedule, **kwargs):
    """Replay *schedule* on both paths, once per network; the reports."""
    reports = []
    for ours, theirs in NETWORKS:
        fast = ScheduleExecutor(platform, network_factory=ours).execute(
            ptgs, schedule, **kwargs
        )
        reference = ReferenceScheduleExecutor(
            platform, network_factory=theirs
        ).execute(ptgs, schedule, **kwargs)
        assert_identical_reports(fast, reference)
        reports.append(fast)
    return reports


def platform_of(name):
    """The composed multi-site platform or one site."""
    return grid5000.composed() if name == "grid5000" else grid5000.site(name)


def stream(platform, seed, n_arrivals=8):
    """An online schedule of Poisson arrivals and its release map."""
    spec = ArrivalSpec(
        process="poisson", rate=0.02, n_arrivals=n_arrivals, seed=seed,
        family="random", max_tasks=12,
    )
    arrivals = generate_arrivals(spec)
    result = OnlineConcurrentScheduler(EqualShareStrategy()).schedule(
        arrivals, platform
    )
    releases = {a.ptg.name: a.time for a in arrivals}
    return [a.ptg for a in arrivals], result.schedule, releases


@pytest.mark.parametrize("site,family,n_ptgs", BATCH_CASES)
def test_batch_schedules_of_every_strategy(site, family, n_ptgs):
    platform = grid5000.site(site)
    ptgs = make_workload(
        WorkloadSpec(family=family, n_ptgs=n_ptgs, seed=n_ptgs, max_tasks=20)
    )
    for strategy in paper_strategies(family):
        planned = ConcurrentScheduler(strategy).schedule(ptgs, platform)
        replay_both(platform, ptgs, planned.schedule)


@pytest.mark.parametrize("site", grid5000.site_names())
def test_own_makespan_schedules(site):
    platform = grid5000.site(site)
    ptgs = make_workload(
        WorkloadSpec(family="random", n_ptgs=3, seed=21, max_tasks=20)
    )
    ptgs += make_workload(WorkloadSpec(family="fft", n_ptgs=1, seed=22))
    for ptg in ptgs:
        planned = SinglePTGScheduler().schedule(ptg, platform)
        replay_both(platform, [ptg], planned.schedule)


@pytest.mark.parametrize("platform_name", ["grid5000", "rennes"])
def test_streaming_schedules_with_releases(platform_name):
    platform = platform_of(platform_name)
    ptgs, schedule, releases = stream(platform, seed=3)
    replay_both(platform, ptgs, schedule, releases=releases)


@pytest.mark.parametrize("platform_name", ["grid5000", "lille"])
def test_every_fault_plan(platform_name):
    platform = platform_of(platform_name)
    ptgs, schedule, releases = stream(platform, seed=5, n_arrivals=10)
    reasons = set()
    for seed, plan in enumerate(FAULT_PLANS):
        for degradation in ({}, {"bandwidth": 2.0, "slowdown": 1.5}):
            timeline = plan(
                platform, ensure_rng(seed), count=3, start=20.0, gap=90.0,
                nodes=4, **degradation,
            )
            for report in replay_both(
                platform, ptgs, schedule, releases=releases, faults=timeline
            ):
                reasons.update(f.reason for f in report.failures)
    # the plans exercise every failure path of the perturbed replay
    assert reasons == {"killed", "unavailable", "blocked"}
