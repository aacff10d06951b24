"""``service-http``: ``repro serve`` in its own process, two blocking clients.

The daemon serves one site (rennes) with the ES strategy and the paper's
pipeline.  A seeded Poisson stream of acceptance-size random PTGs (at most
10 tasks) is spread round-robin over :data:`TENANTS` tenants; client ``c``
of :data:`CLIENTS` sends the arrivals of the tenants ``t`` with
``t % CLIENTS == c``, so each tenant's submissions stay in time order.
Each client sends its ``POST /submit`` requests back to back (a closed
loop; the daemon answers every request on its own connection); once both
clients are done, each sends one ``GET /schedule`` per tenant, which
quiesces the tenant and validates its schedule on the daemon's event
loop.  The queue depth admits the
whole stream, so no request is refused with 429.  Request bodies are
encoded before the timed phase; responses are decoded after it.
"""

from __future__ import annotations

import gc
import http.client
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import common, tracing

PLATFORM = "rennes"
TENANTS = 64
CLIENTS = 2
MAX_TASKS = 10
#: Mean inter-arrival time (simulated seconds) of the whole stream.
MEAN_GAP = 0.5
#: Submissions per requested second (2-vCPU host).
SUBMISSIONS_PER_SECOND = 200
SETUP_PROBES = 9
LISTENING = re.compile(rb"listening on [^:\s]+:(\d+)")


def stream_length(seconds: int) -> int:
    """Number of submissions of one run (fixed by the duration)."""
    return max(TENANTS, SUBMISSIONS_PER_SECOND * seconds)


def build_arrivals(seed: int, seconds: int) -> list:
    """The seeded submission stream (tenant labels assigned round-robin)."""
    from repro.streaming.spec import ArrivalSpec, generate_arrivals

    spec = ArrivalSpec(
        process="poisson",
        rate=1.0 / MEAN_GAP,
        n_arrivals=stream_length(seconds),
        seed=seed,
        family="random",
        max_tasks=MAX_TASKS,
        tenants=TENANTS,
    )
    return generate_arrivals(spec)


def write_spec(workdir, queue_depth: int):
    """The daemon's scenario file."""
    path = workdir / "serve.json"
    spec = {
        "platform": PLATFORM,
        "strategies": ["ES"],
        "service": {"queue_depth": queue_depth},
    }
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def request(port: int, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One blocking round trip on its own connection: ``(status, body)``.

    A connection error is status 0.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=common.CHILD_TIMEOUT)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        answer = connection.getresponse()
        return answer.status, answer.read()
    except OSError:
        return 0, b""
    finally:
        connection.close()


class Daemon:
    """One daemon process, started and waited on until ``/healthz`` answers.

    :attr:`setup_seconds` runs from spawn to the first 200 on ``/healthz``.
    With *totals* the daemon starts through ``launcher.py``, which installs
    the layer wrappers and writes their totals to *totals* on shutdown.
    """

    def __init__(self, spec_path, log_path, totals=None) -> None:
        if totals is None:
            command = [sys.executable, "-m", "repro", "serve", str(spec_path), "--port", "0"]
        else:
            command = [
                sys.executable, str(common.HERE / "launcher.py"), str(totals),
                "serve", str(spec_path), "--port", "0",
            ]
        self._log = open(log_path, "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            line = self.proc.stdout.readline()
            match = LISTENING.search(line)
            if match is None:
                raise common.BenchError(f"the daemon did not start: {line!r}")
            self.port = int(match.group(1))
            deadline = start + common.CHILD_TIMEOUT
            while request(self.port, "GET", "/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise common.BenchError("the daemon never answered /healthz")
                time.sleep(0.001)
            self.setup_seconds = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def stop(self) -> int:
        """Ask the daemon to shut down, drain its output, wait for it to exit."""
        if self.proc.poll() is None and hasattr(self, "port"):
            request(self.port, "POST", "/shutdown")
        try:
            self.proc.stdout.read()
            code = self.proc.wait(timeout=common.CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()
        return code


def cold_start(workdir, spec_path) -> float:
    """One set-up sample: daemon spawn until ``/healthz`` returns 200."""
    daemon = Daemon(spec_path, workdir / "probe.log")
    daemon.stop()
    return daemon.setup_seconds


@dataclass
class Client:
    """One blocking client: its submissions, its tenants, what it saw."""

    bodies: List[bytes]
    tenants: List[str]
    latencies: List[float] = field(default_factory=list)
    statuses: List[int] = field(default_factory=list)
    reads: List[Tuple[str, int, bytes, float]] = field(default_factory=list)

    def run(self, port: int, submitted: threading.Barrier) -> None:
        perf_counter = time.perf_counter
        for body in self.bodies:
            tic = perf_counter()
            status, _ = request(port, "POST", "/submit", body)
            toc = perf_counter()
            self.latencies.append(toc - tic)
            self.statuses.append(status)
        # reads start once every client has submitted everything
        submitted.wait(timeout=common.CHILD_TIMEOUT)
        for tenant in self.tenants:
            tic = perf_counter()
            status, data = request(port, "GET", f"/schedule?tenant={tenant}")
            toc = perf_counter()
            self.reads.append((tenant, status, data, toc - tic))


def make_clients(arrivals: list) -> List[Client]:
    """Split the stream over the clients by tenant; encode every body."""
    from repro.dag.io import ptg_to_dict

    clients = [Client([], []) for _ in range(CLIENTS)]
    for index in range(TENANTS):
        clients[index % CLIENTS].tenants.append(f"tenant-{index}")
    for index, arrival in enumerate(arrivals):
        body = {"tenant": arrival.tenant, "time": arrival.time, "ptg": ptg_to_dict(arrival.ptg)}
        clients[(index % TENANTS) % CLIENTS].bodies.append(json.dumps(body).encode("utf-8"))
    return clients


def drive(port: int, clients: List[Client]) -> float:
    """The timed phase: every client to completion; returns wall seconds."""
    submitted = threading.Barrier(len(clients))
    threads = [
        threading.Thread(target=client.run, args=(port, submitted)) for client in clients
    ]
    gc.collect()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def check(outcome: common.Outcome, arrivals: list, clients: List[Client]) -> Dict[str, float]:
    """Output checks; returns each application's completion time."""
    from repro.scenarios.registry import PLATFORMS
    from repro.streaming.run import schedule_from_rows
    from repro.validate import validate_schedule

    platform = PLATFORMS.create(PLATFORM)
    outcome.attempted += len(arrivals)
    statuses = [status for client in clients for status in client.statuses]
    rejected = sum(1 for status in statuses if not 200 <= status < 300)
    outcome.failed += rejected
    outcome.check(not rejected, f"{rejected} submissions were not accepted")

    by_tenant: Dict[str, list] = {}
    for arrival in arrivals:
        by_tenant.setdefault(arrival.tenant, []).append(arrival)
    completions: Dict[str, float] = {}
    rows_by_tenant = {}
    for client in clients:
        for tenant, status, data, _ in client.reads:
            submitted = by_tenant.get(tenant, [])
            if status != 200:
                outcome.failed += 1
                outcome.check(False, f"GET /schedule for {tenant} answered {status}")
                continue
            document = json.loads(data)
            rows = document["rows"]
            report = validate_schedule(
                schedule_from_rows(rows, platform.name),
                ptgs=[arrival.ptg for arrival in submitted],
                platform=platform,
                releases={arrival.ptg.name: arrival.time for arrival in submitted},
            )
            outcome.failed += len({violation.ptg_name for violation in report.violations})
            outcome.check(report.ok, f"{tenant}: {report.summary()}")
            served = document["completion_times"]
            outcome.check(
                sorted(served) == sorted(arrival.ptg.name for arrival in submitted),
                f"{tenant}: {len(served)} of {len(submitted)} applications admitted",
            )
            completions.update(served)
            rows_by_tenant[tenant] = sorted(rows)
    outcome.check(len(rows_by_tenant) == TENANTS, f"{len(rows_by_tenant)} schedules read")
    service_digest = common.digest([rows_by_tenant, sorted(completions.items())])
    previous = outcome.notes.setdefault("digest", service_digest)
    outcome.check(previous == service_digest, "the traced daemon produced other schedules")
    return completions


def serve_once(workdir, spec_path, arrivals, totals=None):
    """Start a daemon, drive both clients, stop it: ``(clients, wall)``."""
    clients = make_clients(arrivals)
    daemon = Daemon(spec_path, workdir / "daemon.log", totals)
    try:
        wall = drive(daemon.port, clients)
    finally:
        code = daemon.stop()
    if code != 0:
        raise common.BenchError(f"the daemon exited with code {code}")
    return clients, wall


def run(workload: str, seed: int, seconds: int, trace: bool) -> common.Outcome:
    """One benchmark run of the service."""
    outcome = common.Outcome()
    workdir = common.work_dir(workload)
    try:
        arrivals = build_arrivals(seed, seconds)
        spec_path = write_spec(workdir, queue_depth=len(arrivals))
        clients, wall = serve_once(workdir, spec_path, arrivals)
        daemon_rss = common.rss_mb(resource.RUSAGE_CHILDREN)
        completions = check(outcome, arrivals, clients)
        throughput = len(arrivals) / wall
        outcome.notes["operations"] = (
            f"{len(arrivals)} submissions and {TENANTS} schedule reads by {CLIENTS} clients"
        )
        if not trace:
            releases = {arrival.ptg.name: arrival.time for arrival in arrivals}
            latencies = [s for client in clients for s in client.latencies]
            outcome.metrics.update(common.latency_metrics(latencies))
            outcome.metrics["throughput_per_s"] = throughput
            outcome.metrics["app_makespan_s"] = statistics.mean(
                completions[name] - releases[name] for name in completions
            )
            outcome.metrics["peak_rss_mb"] = daemon_rss
            samples = common.median_setup(lambda: cold_start(workdir, spec_path), SETUP_PROBES)
            outcome.metrics["setup_s"] = statistics.median(samples)
            outcome.notes["setup samples (s)"] = [round(s, 4) for s in samples]
            return outcome

        totals_path = workdir / "layers.json"
        traced_clients, traced_wall = serve_once(workdir, spec_path, arrivals, totals_path)
        check(outcome, arrivals, traced_clients)
        summary = json.loads(totals_path.read_text(encoding="utf-8"))
        outcome.metrics.update(
            layer_metrics(summary, traced_clients, len(arrivals), throughput, traced_wall)
        )
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(summary, clients, submissions, throughput, traced_wall) -> Dict[str, float]:
    """Per-layer metrics from the daemon's totals and the clients' round trips."""
    metrics = tracing.layer_metrics(summary, submissions)
    inclusive = summary["inclusive"]
    submits = [s for client in clients for s in client.latencies]
    reads = [read[3] for client in clients for read in client.reads]
    round_trips = sum(submits) + sum(reads)
    handled = inclusive.get("service.http", 0.0)
    rejected = sum(
        1 for client in clients for status in client.statuses if not 200 <= status < 300
    )
    per_op = 1000.0 / submissions
    metrics.update(
        {
            "service.submit_ms": 1000.0 * statistics.mean(submits),
            "service.read_ms": 1000.0 * statistics.mean(reads),
            "service.http_ms": per_op * (handled - inclusive.get("service.handle", 0.0)),
            "service.queue_wait_ms": per_op * summary["counts"].get("service.queue_wait", 0.0),
            "service.admit_ms": per_op * inclusive.get("streaming.admit", 0.0),
            "service.rejections": rejected / submissions,
            # the share of the clients' round trips the daemon's connection
            # handlers do not cover: connect, transfer and loop scheduling
            "bench.dark_share": (round_trips - handled) / round_trips,
            "bench.trace_overhead": (submissions / traced_wall) / throughput,
        }
    )
    return tracing.with_absent_layers(metrics)
