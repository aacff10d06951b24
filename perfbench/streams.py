"""``stream-recurring``: one caller admitting recurring jobs.

The stream runs on the composed 11-cluster Grid'5000 platform with the
equal-share (ES) constraint strategy, SCRAP-MAX allocation and ready-list
mapping with packing -- the :class:`~repro.streaming.engine.StreamSession`
defaults.  The caller sends the next arrival as soon as the previous call
returned (a closed loop with one client), one ``StreamSession.admit``
call per arrival, the daemon's call pattern, which bypasses the batched
compile.

The arrivals are renamed copies of a catalog of :data:`TEMPLATES`
``mixed``-family templates (random / FFT / Strassen, see
:func:`recurring_templates`), each equally often, at
:data:`RECURRING_RATE` arrivals per simulated second.  Copies repeat
(graph, beta) pairs.  The catalog is fixed (:data:`CATALOG_SEED`); the
seed draws the arrival times and the order the jobs recur in, because a
catalog drawn per seed moved throughput by about 15 % and the mean
makespan by about 30 % from one seed to the next.

An operation's latency is one ``admit`` call, timed by a closure
shadowing the session's ``admit``.

The :data:`SETUP_PROBES` cold starts of ``setup_s`` run between the
admissions, evenly spaced, off the clock: the timed work is spread over
the whole run.  The host's speed drifts over tens of
seconds, so spread out it samples more of that drift than one block
would, and runs of the same work agree more closely.  The calls the
program sees are unchanged.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from perfbench import common, tracing

#: Template pool size and arrival rate (per simulated second).
TEMPLATES = 16
RECURRING_RATE = 0.1
#: Seed of the recurring-job catalog.  The catalog is the same in every
#: run; ``--seed`` draws the arrival times and the order the jobs recur in.
CATALOG_SEED = 0
#: Arrivals per requested second (2-vCPU host).
ARRIVALS_PER_SECOND = 130
#: Cold set-ups per run, spread over the admissions; ``setup_s`` is their
#: median.
SETUP_PROBES = 6


@dataclass
class Ready:
    """Everything the timed phase needs, built during set-up."""

    platform: object
    arrivals: list
    session: object


def stream_length(seconds: int) -> int:
    """Number of arrivals of one run (fixed by the duration)."""
    return ARRIVALS_PER_SECOND * seconds


def build_arrivals(seed: int, seconds: int) -> list:
    """The arrival stream of one run; the same seed gives the same graphs."""
    from repro.streaming import Arrival, PoissonProcess
    from repro.utils.rng import ensure_rng

    n = stream_length(seconds)
    templates = recurring_templates(ensure_rng(CATALOG_SEED))
    rng = ensure_rng(seed)
    times = PoissonProcess(rate=RECURRING_RATE).times(n, rng)
    # every template recurs equally often, in a seeded order
    picks = rng.permutation(np.arange(n) % TEMPLATES)
    return [
        Arrival(templates[pick].copy(name=f"recurring{seed}-{index}"), float(at))
        for index, (pick, at) in enumerate(zip(picks, times))
    ]


def recurring_templates(rng) -> list:
    """The recurring-job catalog: ``mixed``-family templates, every size present.

    Template ``i`` takes the shape ``MIXED_CYCLE[i % 3]`` like a mixed
    workload, but its size cycles through the paper's sets instead of
    being drawn, so the catalog holds every random / FFT size rather than
    whatever sizes 16 draws happen to give; *rng* draws the shapes and
    costs.
    """
    from repro.dag.fft import PAPER_FFT_SIZES, generate_fft_ptg
    from repro.dag.generator import (
        PAPER_DENSITIES,
        PAPER_JUMPS,
        PAPER_REGULARITIES,
        PAPER_TASK_COUNTS,
        PAPER_WIDTHS,
        RandomPTGConfig,
        generate_random_ptg,
    )
    from repro.dag.strassen import generate_strassen_ptg
    from repro.experiments.workload import MIXED_CYCLE

    templates = []
    for index in range(TEMPLATES):
        family, rank = MIXED_CYCLE[index % 3], index // 3
        name = f"template-{index}"
        if family == "random":
            config = RandomPTGConfig(
                n_tasks=PAPER_TASK_COUNTS[rank % len(PAPER_TASK_COUNTS)],
                width=float(rng.choice(PAPER_WIDTHS)),
                regularity=float(rng.choice(PAPER_REGULARITIES)),
                density=float(rng.choice(PAPER_DENSITIES)),
                jump=int(rng.choice(PAPER_JUMPS)),
            )
            templates.append(generate_random_ptg(rng, config, name=name))
        elif family == "fft":
            size = PAPER_FFT_SIZES[rank % len(PAPER_FFT_SIZES)]
            templates.append(generate_fft_ptg(size, rng=rng, name=name))
        else:
            templates.append(generate_strassen_ptg(rng=rng, name=name))
    return templates


def new_session(platform, recorder: Optional[tracing.Recorder] = None):
    """A session with the paper's pipeline (traced when *recorder* is given)."""
    from repro.constraints.strategies import EqualShareStrategy
    from repro.streaming import StreamSession

    build = StreamSession if recorder is None else tracing.traced_session_factory(
        StreamSession, recorder
    )
    return build(platform, strategy=EqualShareStrategy())


def setup(workload: str, seed: int, seconds: int) -> Ready:
    """Cold set-up: imports, platform, the stream's PTG objects, the session."""
    from repro.platform import grid5000

    platform = grid5000.composed()
    arrivals = build_arrivals(seed, seconds)
    return Ready(platform, arrivals, new_session(platform))


def time_admits(session, latencies: list, recorder=None) -> None:
    """Shadow ``session.admit`` with a closure appending each call's seconds.

    With a *recorder* each call is also an operation span.
    """
    admit = session.admit
    perf_counter = time.perf_counter

    def timed(arrival):
        span = recorder.operation(len(latencies)) if recorder is not None else None
        tic = perf_counter()
        try:
            return admit(arrival)
        finally:
            latencies.append(perf_counter() - tic)
            if span is not None:
                recorder.close(span)

    session.admit = timed


def drive(session, arrivals: list, recorder=None, probe=None):
    """The timed phase: ``(per-admit latencies, timed seconds, failed arrivals,
    set-up samples)``.

    One ``admit`` per arrival, in :data:`SETUP_PROBES` equal parts.  With a
    *probe*, one cold set-up runs before each part, off the clock.
    """
    from repro.exceptions import ReproError

    latencies: List[float] = []
    setups: List[float] = []
    time_admits(session, latencies, recorder)
    every = -(-len(arrivals) // SETUP_PROBES)
    failed = 0
    timed = 0.0
    perf_counter = time.perf_counter
    for begin in range(0, len(arrivals), every):
        if probe is not None:
            setups.append(probe())
        gc.collect()
        start = perf_counter()
        for arrival in arrivals[begin : begin + every]:
            try:
                session.admit(arrival)
            except ReproError:
                failed += 1
        timed += perf_counter() - start
    return latencies, timed, failed, setups


def check(outcome: common.Outcome, session, arrivals: list, failed: int, recorder=None):
    """Output checks; returns the session's result."""
    from repro.streaming.run import schedule_to_rows
    from repro.validate import validate_result

    outcome.attempted += len(arrivals)
    outcome.failed += failed
    result = session.result()
    admitted = [arrival.ptg.name for arrival in result.arrivals]
    outcome.check(
        sorted(admitted) == sorted(a.ptg.name for a in arrivals),
        f"{len(admitted)} of {len(arrivals)} arrivals admitted",
    )
    outcome.check(
        sorted(result.completion_times) == sorted(admitted),
        "completion times do not cover the admitted applications once each",
    )
    validate = validate_result
    if recorder is not None:
        validate = recorder.wrap("validate", validate_result)
    report = validate(result)
    broken = {violation.ptg_name for violation in report.violations}
    outcome.failed += len(broken)
    outcome.check(report.ok, f"schedule validation: {report.summary()}")
    schedule_digest = common.digest(
        [sorted(schedule_to_rows(result.schedule)), sorted(result.completion_times.items())]
    )
    previous = outcome.notes.setdefault("digest", schedule_digest)
    outcome.check(previous == schedule_digest, "the traced pass produced another schedule")
    return result


def run(workload: str, seed: int, seconds: int, trace: bool) -> common.Outcome:
    """One benchmark run of the stream."""
    outcome = common.Outcome()
    ready = setup(workload, seed, seconds)
    probe = None if trace else functools.partial(common.probe_cold_start, workload, seed, seconds)
    latencies, wall, failed, setups = drive(ready.session, ready.arrivals, probe=probe)
    peak_rss = common.rss_mb()
    admissions = len(ready.arrivals)
    result = check(outcome, ready.session, ready.arrivals, failed)
    active = [len(apps) + 1 for apps in result.active_at_admission.values()]
    outcome.notes["operations"] = f"{admissions} admissions"
    outcome.notes["mean active applications"] = round(statistics.mean(active), 3)
    throughput = admissions / wall
    if not trace:
        makespans = result.makespans()
        outcome.metrics.update(common.latency_metrics(latencies))
        outcome.metrics["throughput_per_s"] = throughput
        outcome.metrics["app_makespan_s"] = statistics.mean(makespans.values())
        outcome.metrics["peak_rss_mb"] = peak_rss
        outcome.metrics["setup_s"] = statistics.median(setups)
        outcome.notes["setup samples (s)"] = [round(s, 4) for s in setups]
        return outcome

    # traced pass: fresh graph objects, so nothing compiled above is reused
    platform = ready.platform
    del ready, result
    recorder = tracing.Recorder()
    arrivals = build_arrivals(seed, seconds)
    session = new_session(platform, recorder)
    _, traced_wall, traced_failed, _ = drive(session, arrivals, recorder)
    check(outcome, session, arrivals, traced_failed, recorder)
    metrics = tracing.layer_metrics(recorder.summary(), len(arrivals))
    metrics["bench.trace_overhead"] = (len(arrivals) / traced_wall) / throughput
    outcome.metrics.update(tracing.with_absent_layers(metrics))
    recorder.dump(common.WORK / f"spans-{workload}.jsonl")
    return outcome
