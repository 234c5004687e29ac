"""Fault injection at the ``broker.request`` hook: a backend crash
mid-fan-out must degrade one quote, corrupt nothing, and leak no
connection slot (ISSUE satellite: BMBP_FAULTS covers the broker too)."""

from __future__ import annotations

import asyncio

from repro.broker import RoutingBroker
from repro.runtime import faults
from repro.verify.faults import scenario_broker_backend_crash
from tests.broker.conftest import FakeSite


def test_registered_scenario_passes(tmp_path):
    details = scenario_broker_backend_crash(tmp_path)
    assert details["ranked_intact"]
    assert details["slots_leaked"] == 0
    assert details["recovered_all_live"]


def test_drop_fault_degrades_one_quote_without_leaking_a_slot():
    try:
        async def scenario():
            async with FakeSite(name="solo", bound=88.0) as site:
                broker = RoutingBroker(
                    [site.spec()],
                    request_timeout=0.3, retries=0, cache_ttl=0.0,
                )
                clean = await broker.route(procs=2)
                faults.install("broker.request:drop@1")
                dropped = await broker.route(procs=2)
                faults.reset()
                after = await broker.route(procs=2)
                in_use = broker.backends["solo"].pool.in_use
                await broker.close()
                return clean, dropped, after, in_use

        clean, dropped, after, in_use = asyncio.run(scenario())
    finally:
        faults.reset()

    assert clean.best.source == "live"
    assert clean.best.bound == 88.0
    quote = dropped.ranked[0]
    assert quote.source == "stale" and quote.stale
    assert quote.bound == 88.0  # the last-known bound, uncorrupted
    assert "drop" in quote.error
    assert after.best.source == "live"  # the connection slot came back
    assert in_use == 0
