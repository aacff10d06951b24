"""Concurrency determinism of the admission daemon.

The design claim under test: each tenant owns an independent
:class:`StreamSession`, so **any** interleaving of concurrent tenants
produces per-tenant outcomes bit-identical to replaying each tenant's
arrivals through a private session -- and every served schedule is
validator-clean.  A hypothesis property drives randomized interleavings
(run in CI with ``HYPOTHESIS_PROFILE=ci --hypothesis-seed=0``); the
chunked ``feed()`` regression rides along as the engine-level cousin of
the same invariant.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.io import ptg_to_dict
from repro.service.app import Request, ServiceApp
from repro.streaming.engine import Arrival, StreamSession
from repro.streaming.run import schedule_to_rows

from service_harness import (
    FaultyTransport,
    all_tenant_rows,
    chain_ptg,
    make_arrivals,
    make_service_spec,
    replay_rows,
    submit_request,
)


def _interleave(arrivals, order):
    """Reorder *arrivals* by tenant pick sequence, per-tenant order kept."""
    queues = {}
    for item in arrivals:
        queues.setdefault(item[0], []).append(item)
    return [queues[tenant].pop(0) for tenant in order]


def _tenant_pick_order(arrivals):
    """The tenant of each arrival, in submission order (a multiset)."""
    return [tenant for tenant, _, _ in arrivals]


async def _run_interleaved(spec, arrivals, concurrent_clients=True):
    """Submit *arrivals* (already in delivery order) and collect rows."""
    app = ServiceApp(spec)
    transport = FaultyTransport(app)
    if concurrent_clients:
        # one client task per tenant, racing on the shared event loop;
        # per-tenant submission order is preserved, global order is not
        per_tenant = {}
        for item in arrivals:
            per_tenant.setdefault(item[0], []).append(item)

        async def client(items):
            for tenant, at, ptg in items:
                response = await transport.submit(tenant, at, ptg)
                assert response.status == 202, response.body
                await asyncio.sleep(0)

        await asyncio.gather(*(client(items) for items in per_tenant.values()))
    else:
        for tenant, at, ptg in arrivals:
            response = await transport.submit(tenant, at, ptg)
            assert response.status == 202, response.body
    rows = await all_tenant_rows(app)
    await app.stop()
    return rows


def test_concurrent_tenants_match_independent_replays():
    """N tenants racing on one daemon == N private offline sessions."""
    spec = make_service_spec(queue_depth=32)
    arrivals = make_arrivals(12, tenants=("t0", "t1", "t2", "t3"))
    served = asyncio.run(_run_interleaved(spec, arrivals))
    assert served == replay_rows(spec, arrivals)


def test_submission_interleaving_is_irrelevant():
    """Shuffling the global delivery order never changes any tenant."""
    spec = make_service_spec(queue_depth=32)
    arrivals = make_arrivals(10, tenants=("t0", "t1", "t2"))
    oracle = replay_rows(spec, arrivals)
    rng = random.Random(7)
    for _ in range(3):
        order = _tenant_pick_order(arrivals)
        rng.shuffle(order)
        shuffled = _interleave(arrivals, order)
        served = asyncio.run(_run_interleaved(spec, shuffled, concurrent_clients=False))
        assert served == oracle


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_property_interleaving_invariance(data):
    """Property: any tenant interleaving yields the replay outcome."""
    n_tenants = data.draw(st.integers(min_value=1, max_value=3), label="tenants")
    n_arrivals = data.draw(st.integers(min_value=2, max_value=8), label="arrivals")
    tenants = tuple(f"t{i}" for i in range(n_tenants))
    arrivals = make_arrivals(n_arrivals, tenants=tenants)
    order = data.draw(
        st.permutations(_tenant_pick_order(arrivals)), label="interleaving"
    )
    spec = make_service_spec(queue_depth=16)
    shuffled = _interleave(arrivals, order)
    served = asyncio.run(_run_interleaved(spec, shuffled, concurrent_clients=False))
    assert served == replay_rows(spec, arrivals)


def test_out_of_order_submission_is_rejected_not_admitted():
    """Within one tenant the past stays closed: older arrivals get a 409."""
    spec = make_service_spec()

    async def run():
        app = ServiceApp(spec)
        transport = FaultyTransport(app)
        first = await transport.submit("solo", 50.0, chain_ptg("late"))
        assert first.status == 202
        stale = await transport.submit("solo", 10.0, chain_ptg("early"))
        assert stale.status == 409
        assert "past" in stale.body["error"]
        rows = await all_tenant_rows(app)
        await app.stop()
        return rows

    rows = asyncio.run(run())
    # only the accepted application was scheduled
    assert {row[0] for row in rows["solo"]} == {"late"}


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_submission_time_is_refused(literal):
    """A NaN or infinite instant answers 400 and leaves the tenant serving."""
    spec = make_service_spec()
    # json.loads accepts these literals, as the daemon's decoder does
    body = json.loads(
        '{"tenant": "solo", "time": %s, "ptg": %s}'
        % (literal, json.dumps(ptg_to_dict(chain_ptg("odd"))))
    )

    async def run():
        app = ServiceApp(spec)
        refused = await app.handle(Request("POST", "/submit", body=body))
        assert refused.status == 400
        assert "finite" in refused.body["error"]
        accepted = await app.handle(submit_request("solo", 5.0, chain_ptg("odd")))
        assert accepted.status == 202, accepted.body
        rows = await all_tenant_rows(app)
        await app.stop()
        return rows

    rows = asyncio.run(run())
    assert {row[0] for row in rows["solo"]} == {"odd"}


# --------------------------------------------------------------------- #
# engine-level regression: chunked feed()
# --------------------------------------------------------------------- #
def _fresh_session(spec):
    return ServiceApp(spec)._new_session()


def test_feed_empty_chunk_then_same_timestamp_chunk():
    """Regression: an empty chunk must not disturb a same-instant successor.

    ``feed([])`` used to be a plausible editing hazard around the
    monotonicity guard: the next chunk starts at exactly the timestamp
    of the last admitted arrival, which the guard must keep accepting
    (ties break by name).  The chunked run must equal the single-batch
    run row for row.
    """
    spec = make_service_spec()
    a = Arrival(chain_ptg("app-a"), 30.0)
    b = Arrival(chain_ptg("app-b"), 30.0)  # same instant, later name
    c = Arrival(chain_ptg("app-c"), 60.0)

    chunked = _fresh_session(spec)
    chunked.feed([a])
    chunked.feed([])  # empty chunk between two same-instant arrivals
    chunked.feed([b])
    chunked.feed([])
    chunked.feed([c])

    batched = _fresh_session(spec)
    batched.feed([a, b, c])

    assert schedule_to_rows(chunked.schedule) == schedule_to_rows(batched.schedule)
    assert chunked.completions == batched.completions
    assert chunked.last_admission == (60.0, "app-c")


def test_feed_chunk_boundary_preserves_name_tiebreak():
    """Same-instant arrivals split across chunks keep the (time, name) order."""
    spec = make_service_spec()
    session = _fresh_session(spec)
    session.feed([Arrival(chain_ptg("m"), 10.0)])
    # equal time, name sorts after 'm': must be accepted
    session.feed([Arrival(chain_ptg("n"), 10.0)])
    assert session.admitted == 2
    assert session.last_admission == (10.0, "n")
