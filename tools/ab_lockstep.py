#!/usr/bin/env python3
"""Lock-step A/B timing of two checkouts of this repository.

    python3 tools/ab_lockstep.py PARENT_DIR CHANGE_DIR --workload stream-recurring --seed 5

Separate benchmark runs of two trees on a shared host disagree by far more
than a placement optimisation moves: the host's speed drifts over tens of
seconds, and on a shared 2-vCPU x86-64 host ten separate-run pairs of one
change read anywhere from 0.85x to 1.70x.  This driver takes the drift out
of the comparison.
It starts one child process per checkout; each child imports that
checkout's own ``src/`` and its own ``perfbench/`` input builders
(read-only) and builds the workload's inputs.  The driver then tells the
two children, in alternating order, to run the next block of operations,
so both sides sample the same few seconds of host speed block after
block.  Only one child runs at a time.

Workloads (the inputs are those of the ``perfbench/run.py`` workload of
the same name, for ``--seconds`` seconds):

* ``stream-recurring`` -- admissions of the recurring stream into one
  session, 100 per block;
* ``service-http`` -- the daemon's submissions admitted in process, one
  session per tenant built from the benchmark's scenario file as the
  daemon builds it (no HTTP, no queue), 100 per block;
* ``campaign-fig3`` -- the shards of the run's first Figure 3 campaign,
  executed inline, one shard per block.

It prints each side's throughput and p50 latency, the median and
quartiles of the per-block speed-ups (the parent's block seconds over the
change's), the throughput and p50 ratios, and whether the two sides'
output digests are equal.  The stream and service digests are the ones
``perfbench/run.py`` prints for the same seed and seconds, computed by
the benchmark's own checks; the campaign digest covers the shards'
results.  Run the same tree on both sides (an A/A run) to see the
driver's own noise on the host.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List

WORKLOADS = ("stream-recurring", "service-http", "campaign-fig3")
#: Admissions per block of the stream and service workloads.
BLOCK = 100


# ---------------------------------------------------------------------- #
# child side: runs inside one checkout
# ---------------------------------------------------------------------- #
class StreamBlocks:
    """Admissions of the recurring stream, one session."""

    block = BLOCK

    def __init__(self, seed: int, seconds: int) -> None:
        from perfbench import streams

        ready = streams.setup("stream-recurring", seed, seconds)
        self.session = ready.session
        self.items = ready.arrivals

    def run(self, arrival) -> None:
        self.session.admit(arrival)

    def digest(self) -> str:
        from perfbench import common, streams

        outcome = common.Outcome()
        streams.check(outcome, self.session, self.items, 0)
        return outcome.notes["digest"]


class ServiceBlocks:
    """The daemon's submissions, admitted into one session per tenant."""

    block = BLOCK

    def __init__(self, seed: int, seconds: int) -> None:
        from perfbench import service
        from repro.scenarios.spec import ScenarioSpec
        from repro.service.app import ServiceApp

        self.items = service.build_arrivals(seed, seconds)
        with tempfile.TemporaryDirectory() as workdir:
            path = service.write_spec(Path(workdir), queue_depth=len(self.items))
            document = json.loads(path.read_text(encoding="utf-8"))
        self.app = ServiceApp(ScenarioSpec.from_dict(document))

    def run(self, arrival) -> None:
        self.app.tenant(arrival.tenant).session.admit(arrival)

    def digest(self) -> str:
        from perfbench import common, service
        from repro.service.app import Request

        # the benchmark's clients, reading every tenant's GET /schedule in
        # process instead of over HTTP
        clients = service.make_clients(self.items)

        async def read_schedules() -> None:
            for client in clients:
                for tenant in client.tenants:
                    query = {"tenant": tenant}
                    response = await self.app.handle(Request("GET", "/schedule", query))
                    data = json.dumps(response.body).encode("utf-8")
                    client.reads.append((tenant, response.status, data, 0.0))
            await self.app.stop()

        asyncio.run(read_schedules())
        outcome = common.Outcome()
        service.check(outcome, self.items, clients)
        return outcome.notes["digest"]


class CampaignBlocks:
    """The shards of the first Figure 3 campaign, executed inline."""

    block = 1

    def __init__(self, seed: int, seconds: int) -> None:
        from perfbench import campaign

        ready = campaign.setup("campaign-fig3", seed, seconds, campaigns=1)
        self.items = ready.shards[0]
        self.results: List[dict] = []

    def run(self, shard) -> None:
        from repro.campaigns.pool import execute_shard
        from repro.campaigns.store import experiment_result_to_dict

        outcome = execute_shard(shard, return_workload=False)
        if not outcome.ok:
            raise RuntimeError(f"shard {outcome.label} failed:\n{outcome.error}")
        self.results.append(experiment_result_to_dict(outcome.result))

    def digest(self) -> str:
        from perfbench import common

        return common.digest(self.results)


def child(root: Path, workload: str, seed: int, seconds: int) -> None:
    """Serve ``block`` / ``digest`` commands on stdin, one JSON line each.

    Replies go to the original standard output; anything the checkout's
    code prints goes to standard error instead.
    """
    channel, sys.stdout = sys.stdout, sys.stderr
    sys.path[:0] = [str(root / "src"), str(root)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"imported {repro.__file__}, not the checkout {root}")
    builders = {
        "stream-recurring": StreamBlocks,
        "service-http": ServiceBlocks,
        "campaign-fig3": CampaignBlocks,
    }
    blocks = builders[workload](seed, seconds)
    block, items = blocks.block, blocks.items
    channel.write(json.dumps({"operations": len(items), "block": block}) + "\n")
    channel.flush()
    perf_counter = time.perf_counter
    position = 0
    for command in sys.stdin:
        command = command.strip()
        if command == "block":
            seconds_of = []
            for item in items[position : position + block]:
                tic = perf_counter()
                blocks.run(item)
                seconds_of.append(perf_counter() - tic)
            position += block
            reply = {"seconds": seconds_of}
        elif command == "digest":
            reply = {"digest": blocks.digest()}
        else:
            reply = {"error": f"unknown command {command!r}"}
        channel.write(json.dumps(reply) + "\n")
        channel.flush()


# ---------------------------------------------------------------------- #
# driver side
# ---------------------------------------------------------------------- #
class Side:
    """One child process and the per-operation seconds it reported."""

    def __init__(self, label: str, root: Path, args: argparse.Namespace) -> None:
        self.label = label
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child", str(root),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ]
        self.proc = subprocess.Popen(
            command, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        hello = self.ask(None)
        self.operations, self.block = hello["operations"], hello["block"]
        self.seconds: List[float] = []
        self.blocks: List[float] = []

    def ask(self, command):
        if command is not None:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the {self.label} child exited (code {self.proc.wait()})")
        return json.loads(line)

    def run_block(self) -> None:
        seconds = self.ask("block")["seconds"]
        self.seconds.extend(seconds)
        self.blocks.append(sum(seconds))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quartiles(values: List[float]):
    """``(q1, median, q3)``; the median three times for one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="checkout of the change")
    parser.add_argument("--workload", choices=WORKLOADS, default="stream-recurring")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument(
        "--seconds", type=int, default=20,
        help="the perfbench run length whose inputs are replayed (default 20)",
    )
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child, args.workload, args.seed, args.seconds)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE checkouts are required")

    parent = Side("parent", args.parent, args)
    try:
        change = Side("change", args.change, args)
        try:
            if parent.operations != change.operations:
                raise SystemExit(
                    f"the two sides built {parent.operations} and "
                    f"{change.operations} operations"
                )
            n_blocks = -(-parent.operations // parent.block)
            for index in range(n_blocks):
                order = (parent, change) if index % 2 == 0 else (change, parent)
                for side in order:
                    side.run_block()
            digests = [side.ask("digest")["digest"] for side in (parent, change)]
        finally:
            change.close()
    finally:
        parent.close()

    speedups = [p / c for p, c in zip(parent.blocks, change.blocks)]
    low, mid, high = quartiles(speedups)
    p50 = {side.label: statistics.median(side.seconds) * 1000.0 for side in (parent, change)}
    rate = {side.label: len(side.seconds) / sum(side.seconds) for side in (parent, change)}
    print(
        f"{args.workload} seed {args.seed}: {n_blocks} blocks of {parent.block} "
        f"operation(s), parent first in even blocks"
    )
    for side in (parent, change):
        print(
            f"  {side.label:6}  throughput {rate[side.label]:9.2f}/s  "
            f"p50 {p50[side.label]:8.3f} ms"
        )
    print(f"per-block speed-up (parent s / change s): {mid:.3f} [{low:.3f}, {high:.3f}]")
    print(f"throughput ratio (change / parent): {rate['change'] / rate['parent']:.3f}")
    print(f"p50 ratio (parent / change): {p50['parent'] / p50['change']:.3f}")
    verdict = "equal" if digests[0] == digests[1] else "DIFFERENT"
    print(f"digests: parent {digests[0]}, change {digests[1]}: {verdict}")
    return 0 if digests[0] == digests[1] else 1


if __name__ == "__main__":
    sys.exit(main())
