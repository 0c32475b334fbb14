"""Routing-heavy digest pin: a transit-stub scenario whose many flow
sources, link flap and recurring perturbation make on-demand routing
(``CachedRouting`` under ``DynamicRouting``) decide most of the event
stream. The literal digest below was recorded before the routing
search was rewritten; serial-partitioned and multiprocess runs must
both reproduce it."""

import random

from repro.api import Scenario
from repro.check.sanitize import SimSanitizer
from repro.engine.parallel import run_multiprocess
from repro.faults import FaultPlan, LinkDown, LinkUp, Perturbation
from repro.topology.graph import NodeKind
from repro.topology.transit_stub import TransitStubSpec, transit_stub_topology

UNTIL = 0.5
PINNED_DIGEST = (
    "3b33dd641ab5a741cb58027f49c501c36da7ac543d313fbf8bfdaf62a67bac6c"
)
PINNED_EVENTS = 10429


def _scenario(backend, workers=None):
    spec = TransitStubSpec(
        transit_domains=2,
        transit_nodes_per_domain=4,
        stub_domains_per_transit_node=2,
        stub_nodes_per_domain=4,
        clients_per_stub_node=2,
    )
    topology = transit_stub_topology(spec, random.Random(5))
    transit = {n.id for n in topology.nodes_of_kind(NodeKind.TRANSIT)}
    flap = min(
        link.id
        for link in topology.links.values()
        if link.a in transit and link.b in transit
    )
    plan = FaultPlan.of(
        LinkDown(0.15, flap),
        LinkUp(0.3, flap),
        Perturbation(0.05, 0.45, 0.1, link_fraction=0.2),
        stream="routing-pin",
    )
    return (
        Scenario.from_topology(topology, name="routing-pin")
        .distill("hop-by-hop")
        .assign(4)
        .seed(3)
        .netperf(flows=96, seed=9)
        .faults(plan)
        .observe(False)
        .backend(backend, domains=4, workers=workers)
    )


def test_serial_partitioned_run_matches_the_pin():
    scenario = _scenario("serial")
    scenario.build()
    sanitizer = SimSanitizer().attach(scenario.sim)
    try:
        scenario.run(until=UNTIL)
    finally:
        sanitizer.detach()
    assert scenario.emulation.routing.recomputations >= 2
    assert (sanitizer.digest, sanitizer.dispatched) == (
        PINNED_DIGEST,
        PINNED_EVENTS,
    )


def test_multiprocess_two_workers_matches_the_pin():
    scenario = _scenario("multiprocess", workers=2)
    scenario.build()
    result = run_multiprocess(scenario, until=UNTIL, workers=2, sanitize=True)
    assert (result.composed_digest, result.events_dispatched) == (
        PINNED_DIGEST,
        PINNED_EVENTS,
    )
