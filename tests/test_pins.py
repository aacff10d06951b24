"""Literal pins of store keys and repaired schedules.

The other suites compare the code with itself (two runs of one tree,
or the production path with a frozen oracle).  These tests hold the
values themselves: the content hash of every example scenario, the
shard keys of a small campaign, and a digest of the repaired schedules
and fault metrics of a grid of faulty streams.  A refactor of the
workload spec or of the repair's placement loop that moves any of them
changes a store key or a repaired schedule and fails here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

from repro.campaigns.shards import make_shards
from repro.experiments.runner import CampaignConfig
from repro.faults.repair import repair_schedule
from repro.faults.spec import FaultSpec, compile_timeline
from repro.scenarios.spec import ScenarioSpec, load_specs
from repro.streaming.run import run_stream_scenario, schedule_to_rows
from repro.validate import validate_schedule

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

EXAMPLE_HASHES = {
    "scenario_faulty_stream.json": [
        "7adee470cceef05a9fbae26cb2e280f8a971a27c7800c4311d1c42a2cff0f2bf",
    ],
    "scenario_fft_sweep.json": [
        "dfde156606a3cf8ece341f0fd2ca832ec7c32969ffbc1a75685b6df0ba1f30f7",
        "cc274e2e4ed81cc0526d7d2f7977aff938a437841acbcd373e21a6bc42bd1adf",
    ],
    "scenario_stream_poisson.json": [
        "2fa68ea111b3ac65d871393a7be5c20110966ff01aae92742750f6ee8559c59e",
    ],
    "scenario_stream_traced.json": [
        "177692162aaf0050a8b0081633017b6e842332b080a0f71a7adc9ba3cb332fac",
    ],
}

#: SHA-256 of the newline-joined shard keys of :data:`CAMPAIGN`.
CAMPAIGN_KEYS_DIGEST = "63076cdfd5a5a22bcf10d7e153460cea8e412994c0fe8dc5ad58dc2f7daedecd"

CAMPAIGN = CampaignConfig(
    family="random", ptg_counts=(2, 4), workloads_per_point=2, max_tasks=10, base_seed=7
)

#: SHA-256 over the repaired schedules and per-event repair metrics of
#: the :func:`_faulty_streams` grid.
REPAIR_DIGEST = "f90f7cb80231268095cbe890c595a3e9f06836f1135fcfb5829d2c6d9a751c33"


def test_example_specs_keep_their_content_hashes():
    hashes = {
        path.name: [
            spec.content_hash()
            for spec in load_specs(json.loads(path.read_text(encoding="utf-8")))
        ]
        for path in sorted(EXAMPLES.glob("scenario_*.json"))
    }
    assert hashes == EXAMPLE_HASHES


def test_campaign_shards_keep_their_keys():
    keys = [shard.key() for shard in make_shards(CAMPAIGN)]
    assert len(keys) == 16
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == CAMPAIGN_KEYS_DIGEST
    assert [spec.content_hash() for spec in CAMPAIGN.scenario_specs()] == keys


def _faulty_streams():
    """Three fault plans x three (family, site) pairs x two seeds.

    The windows open 6 s apart and stay down 100 s, so the seed-2
    streams are repaired two or three times: later events kill entries
    an earlier repair kept running.
    """
    for plan in ("single-node", "rolling", "correlated-cluster"):
        for family, site in (("random", "lille"), ("mixed", "rennes"), ("random", "grid5000")):
            for seed in (1, 2):
                spec = ScenarioSpec.from_dict({
                    "platform": site,
                    "strategies": ["ES", "PS-work"],
                    "arrivals": {
                        "rate": 0.05, "n_arrivals": 8, "seed": seed,
                        "family": family, "max_tasks": 20, "tenants": 2,
                    },
                })
                faults = FaultSpec(
                    plan=plan, seed=seed, count=3, start=15.0, duration=100.0,
                    gap=6.0, nodes=16,
                )
                yield [plan, family, site, seed], spec, faults


def test_repaired_streams_keep_their_digest():
    """Repaired schedules and per-event metrics, not their float sums.

    ``work_lost`` and ``work_reexecuted`` are built-in ``sum`` calls,
    which are compensated from Python 3.12 on, so the per-task values
    they add up are pinned instead: the digest reads the same with the
    built-in ``sum`` replaced by a compensated (Neumaier) sum.
    """
    digest = hashlib.sha256()
    events_per_repair = []
    for label, spec, faults in _faulty_streams():
        scenario = run_stream_scenario(spec, validate=False)
        for name, result in sorted(scenario.results.items()):
            ptgs = [arrival.ptg for arrival in result.arrivals]
            timeline = compile_timeline(faults, result.platform)
            repair = repair_schedule(
                ptgs, result.schedule, result.platform, timeline,
                releases=result.arrival_times,
            )
            validate_schedule(
                repair.schedule, ptgs=ptgs, platform=result.platform,
                releases=result.arrival_times, faults=timeline,
            ).raise_if_invalid()
            events = [
                [event.time, event.replanned, event.recovery_latency,
                 [list(astuple(killed)) for killed in event.killed]]
                for event in repair.events
            ]
            events_per_repair.append(len(events))
            digest.update(json.dumps([
                label, name, schedule_to_rows(repair.schedule), events,
                repair.baseline_makespan, repair.repaired_makespan,
            ]).encode())
    assert max(events_per_repair) == 3  # the grid reaches a third repair
    assert digest.hexdigest() == REPAIR_DIGEST
