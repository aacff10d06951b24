"""Benchmark E14 -- the admission daemon under concurrent tenant load.

Drives hundreds of concurrent tenants through the daemon's in-process
transport (:meth:`repro.service.app.ServiceApp.handle` -- no sockets,
so the numbers measure admission, not TCP): every tenant is an asyncio
client submitting its own small PTG stream and racing all the others on
one event loop, exactly the concurrency structure ``repro-ptg serve``
runs behind HTTP.

Reported (and persisted as ``BENCH_service.json``): p50/p99 admission
latency from the daemon's own ``service.admission_latency`` histogram,
admission throughput, and the SLO verdict.  The gate: the daemon must
sustain >= 200 concurrent tenants with a p99 admission latency under
the scenario's spec'd SLO and zero SLO violations above the p99 bound,
with every submission admitted exactly once.

Run standalone with
``PYTHONPATH=src python benchmarks/bench_service.py`` or through
pytest-benchmark with
``PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

try:
    from benchmarks.conftest import full_scale, write_result
except ModuleNotFoundError:  # standalone: python benchmarks/bench_service.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import full_scale, write_result
from repro.dag.graph import PTG
from repro.dag.io import ptg_to_dict
from repro.dag.task import Task
from repro.scenarios.spec import ScenarioSpec
from repro.service.app import Request, ServiceApp

#: Concurrent tenants (the acceptance floor is 200).
N_TENANTS_FULL = 400
N_TENANTS_REDUCED = 200

#: Submissions per tenant.
ARRIVALS_PER_TENANT_FULL = 4
ARRIVALS_PER_TENANT_REDUCED = 3

#: The spec'd admission-latency SLO (seconds) the p99 is gated against.
#: Latency is measured enqueue-to-admitted, so with every tenant
#: submitting at once it includes the queueing behind all other tenants.
SLO_SECONDS = 2.5


def _tenant_ptg(tenant: int, index: int) -> PTG:
    """One tiny two-task chain, uniquely named per (tenant, submission).

    Costs grow by 0.1% per submission index, so no tenant submits the
    same graph twice: the allocator's memo would otherwise answer the
    repeats instead of the allocation loop this gate times.
    """
    flops = 4e9 * (1.0 + 0.001 * index)
    graph = PTG(f"t{tenant:03d}-app-{index}")
    graph.add_task(Task(0, flops=flops, alpha=0.1, data_elements=4e6))
    graph.add_task(Task(1, flops=flops, alpha=0.1, data_elements=4e6))
    graph.add_edge(0, 1, 3.2e7)
    graph.validate()
    return graph


def run_service_core():
    """Run the concurrent-tenant workload and summarise the daemon's meters."""
    n_tenants = N_TENANTS_FULL if full_scale() else N_TENANTS_REDUCED
    per_tenant = (
        ARRIVALS_PER_TENANT_FULL if full_scale() else ARRIVALS_PER_TENANT_REDUCED
    )
    spec = ScenarioSpec.from_dict(
        {
            "platform": "lille",
            "pipeline": {"allocator": "hcpa", "mapper": "ready-list"},
            "strategies": ["ES"],
            "service": {"queue_depth": per_tenant + 1, "slo": SLO_SECONDS},
        }
    )
    # serialise the request bodies up front: the bench times the daemon,
    # not the client-side PTG encoding
    requests = [
        [
            Request(
                "POST",
                "/submit",
                body={
                    "tenant": f"tenant-{t:03d}",
                    "time": float(i * 30),
                    "ptg": ptg_to_dict(_tenant_ptg(t, i)),
                },
            )
            for i in range(per_tenant)
        ]
        for t in range(n_tenants)
    ]

    async def drive() -> dict:
        app = ServiceApp(spec)

        async def client(stream) -> None:
            for request in stream:
                response = await app.handle(request)
                assert response.status == 202, response.body
                await asyncio.sleep(0)  # yield: let workers interleave

        tic = time.perf_counter()
        await asyncio.gather(*(client(stream) for stream in requests))
        await app.quiesce()
        wall = time.perf_counter() - tic
        metrics = await app.handle(Request("GET", "/metrics"))
        await app.stop()
        body = metrics.body
        assert body["admissions"] == n_tenants * per_tenant
        return {
            "tenants": n_tenants,
            "arrivals_per_tenant": per_tenant,
            "admissions": body["admissions"],
            "wall_seconds": wall,
            "admissions_per_second": body["admissions"] / wall,
            "p50_admission_latency": body["p50_admission_latency"],
            "p99_admission_latency": body["p99_admission_latency"],
            "slo_seconds": SLO_SECONDS,
            "slo_violations": body["metrics"]["counters"].get(
                "service.slo_violations", 0.0
            ),
        }

    return asyncio.run(drive())


def _gate(summary: dict) -> None:
    assert summary["tenants"] >= 200, "acceptance floor is 200 tenants"
    assert summary["p99_admission_latency"] < summary["slo_seconds"], (
        f"p99 admission latency {summary['p99_admission_latency']:.3f}s breaches "
        f"the {summary['slo_seconds']}s SLO under {summary['tenants']} tenants"
    )


def bench_service(benchmark):
    """>= 200 concurrent tenants, p99 admission latency under the SLO."""
    summary = benchmark.pedantic(run_service_core, rounds=1, iterations=1)
    write_result("BENCH_service.json", json.dumps(summary, indent=2))
    _gate(summary)


if __name__ == "__main__":
    result = run_service_core()
    write_result("BENCH_service.json", json.dumps(result, indent=2))
    _gate(result)
