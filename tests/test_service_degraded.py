"""Degraded-tenant tests of the admission daemon.

A session raising out of an admission must not kill the daemon: the
offending tenant is marked degraded and rejected with 503 + Retry-After,
while every other tenant keeps being served, the status endpoints report
the degradation, and the drain worker stays alive for a later operator
intervention.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.service.app import Request, ServiceApp

from service_harness import (
    chain_ptg,
    make_arrivals,
    make_service_spec,
    submit_request,
    tenant_rows,
)


def _break_admission(app, tenant_name, message="session corrupted"):
    """Make *tenant_name*'s session raise on its next admission."""
    tenant = app.tenants[tenant_name]

    def broken(arrival):
        raise RuntimeError(message)

    tenant.session.admit = broken


def test_raising_session_degrades_only_its_tenant():
    spec = make_service_spec()
    arrivals = make_arrivals(6, tenants=("a", "b"))

    async def run():
        app = ServiceApp(spec)
        # first arrival per tenant admitted cleanly, creating the sessions
        for tenant, at, ptg in arrivals[:2]:
            response = await app.handle(submit_request(tenant, at, ptg))
            assert response.status == 202
        await app.quiesce()
        _break_admission(app, "a")

        for tenant, at, ptg in arrivals[2:]:
            response = await app.handle(submit_request(tenant, at, ptg))
            assert response.status == 202  # accepted; the drain fails later
        await app.quiesce()

        a, b = app.tenants["a"], app.tenants["b"]
        assert a.degraded == "RuntimeError: session corrupted"
        assert b.degraded is None
        # tenant b kept being served through a's degradation
        assert b.session.admitted == 3
        # both of a's queued arrivals hit the broken session
        assert app.registry.counter("service.admission_errors").value == 2
        assert app.registry.gauge("service.degraded_tenants").value == 1

        # the degraded tenant is turned away with a retry hint ...
        rejected = await app.handle(submit_request("a", 999.0, chain_ptg("late-a")))
        assert rejected.status == 503
        assert rejected.headers["Retry-After"] == f"{spec.service.retry_after:g}"
        assert rejected.body["retry_after"] == spec.service.retry_after
        assert "degraded" in rejected.body["error"]
        # ... while the healthy tenant still gets a 202 and a schedule
        accepted = await app.handle(submit_request("b", 999.0, chain_ptg("late-b")))
        assert accepted.status == 202
        await app.quiesce("b")
        rows = await tenant_rows(app, "b")
        assert rows  # validator-clean schedule still served

        await app.stop()

    asyncio.run(run())


def test_degradation_is_visible_in_healthz_and_status():
    spec = make_service_spec()
    arrivals = make_arrivals(4, tenants=("a", "b"))

    async def run():
        app = ServiceApp(spec)
        for tenant, at, ptg in arrivals[:2]:
            await app.handle(submit_request(tenant, at, ptg))
        await app.quiesce()

        healthy = await app.handle(Request("GET", "/healthz"))
        assert healthy.status == 200
        assert healthy.body["ok"] is True
        assert healthy.body["degraded"] == []

        _break_admission(app, "b")
        for tenant, at, ptg in arrivals[2:]:
            await app.handle(submit_request(tenant, at, ptg))
        await app.quiesce()

        degraded = await app.handle(Request("GET", "/healthz"))
        assert degraded.status == 200  # the daemon itself is alive
        assert degraded.body["ok"] is False
        assert degraded.body["degraded"] == ["b"]

        status = await app.handle(Request("GET", "/status", {"tenant": "b"}))
        assert status.body["degraded"] == "RuntimeError: session corrupted"
        status_a = await app.handle(Request("GET", "/status", {"tenant": "a"}))
        assert status_a.body["degraded"] is None

        await app.stop()

    asyncio.run(run())


def test_drain_worker_survives_the_raise():
    """The degraded tenant's worker loop keeps running -- stop() still works."""
    spec = make_service_spec()
    (arrival,) = make_arrivals(1, tenants=("solo",))

    async def run():
        app = ServiceApp(spec)
        tenant_name, at, ptg = arrival
        await app.handle(submit_request(tenant_name, at, ptg))
        await app.quiesce()
        _break_admission(app, "solo")
        await app.handle(submit_request("solo", at + 1.0, chain_ptg("late-solo")))
        await app.quiesce()
        tenant = app.tenants["solo"]
        assert tenant.degraded is not None
        assert not tenant.worker.done()  # the loop survived the raise
        await app.stop()  # a dead worker would hang or raise here
        assert tenant.worker.done()

    asyncio.run(run())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["flops", "data_elements", "data_bytes"])
def test_non_finite_cost_is_refused_and_the_tenant_keeps_serving(field, value):
    """A NaN or infinite cost is a 400 at submission, never a degraded tenant."""
    spec = make_service_spec()

    async def run():
        app = ServiceApp(spec)
        first = await app.handle(submit_request("a", 0.0, chain_ptg("first")))
        assert first.status == 202
        await app.quiesce("a")

        request = submit_request("a", 10.0, chain_ptg("poisoned"))
        payload = request.body["ptg"]
        if field == "data_bytes":
            payload["edges"][0][field] = value
        else:
            payload["tasks"][1][field] = value
        refused = await app.handle(request)
        assert refused.status == 400
        assert "must be a finite number" in refused.body["error"]

        assert await tenant_rows(app, "a")  # the next read answers 200
        healthz = await app.handle(Request("GET", "/healthz"))
        assert healthz.body["ok"] is True
        # the refused submission took no name and no slot
        retry = await app.handle(submit_request("a", 10.0, chain_ptg("poisoned")))
        assert retry.status == 202
        await app.quiesce("a")
        assert app.tenants["a"].session.admitted == 2
        await app.stop()

    asyncio.run(run())
