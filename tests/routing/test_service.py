"""Tests for routing services (matrix, cache, dynamic wrapper)."""

import pytest

from repro.routing import (
    CachedRouting,
    DynamicRouting,
    PrecomputedRouting,
    RouteError,
)
from repro.topology import NodeKind, Topology, ring_topology


def build_square():
    """Clients 0 and 3 on opposite corners of a router square."""
    topology = Topology()
    c0 = topology.add_node(NodeKind.CLIENT)
    r1 = topology.add_node(NodeKind.STUB)
    r2 = topology.add_node(NodeKind.STUB)
    c3 = topology.add_node(NodeKind.CLIENT)
    topology.add_link(c0.id, r1.id, 1e6, 0.001)
    topology.add_link(c0.id, r2.id, 1e6, 0.005)
    topology.add_link(r1.id, c3.id, 1e6, 0.001)
    topology.add_link(r2.id, c3.id, 1e6, 0.005)
    return topology


def test_precomputed_routes_all_client_pairs():
    topology = build_square()
    routing = PrecomputedRouting(topology)
    route = routing.route(0, 3)
    assert [hop.dst for hop in route] == [1, 3]
    assert routing.route(3, 0)[-1].dst == 0
    assert routing.lookups_per_pair == 4


def test_precomputed_unknown_source_raises():
    topology = build_square()
    routing = PrecomputedRouting(topology)
    with pytest.raises(RouteError):
        routing.route(1, 3)  # node 1 is a router, not a client source


def test_precomputed_custom_sources():
    topology = build_square()
    routing = PrecomputedRouting(topology, sources=[1, 2])
    assert routing.route(1, 2) is not None


def test_precomputed_invalidate_recomputes():
    topology = build_square()
    routing = PrecomputedRouting(topology)
    assert [hop.dst for hop in routing.route(0, 3)] == [1, 3]
    topology.link_between(0, 1).up = False
    routing.invalidate()
    assert [hop.dst for hop in routing.route(0, 3)] == [2, 3]


def test_cached_routing_counts_hits_and_misses():
    topology = build_square()
    routing = CachedRouting(topology)
    routing.route(0, 3)
    assert routing.misses == 1
    routing.route(0, 3)
    assert routing.hits == 1
    routing.route(0, 1)  # same source tree, new destination, no new miss
    assert routing.misses == 1


def test_cached_route_to_self_starts_no_search():
    topology = build_square()
    routing = CachedRouting(topology)
    assert routing.route(0, 0) == ()
    assert routing.route(2, 2) == ()
    assert routing.misses == 0
    assert routing.hits == 0


def test_cached_routing_sees_links_added_for_fresh_sources():
    topology = build_square()
    routing = CachedRouting(topology)
    assert [hop.dst for hop in routing.route(0, 3)] == [1, 3]
    shortcut = topology.add_link(2, 3, 1e6, 0.0001)
    topology.add_link(0, 2, 1e6, 0.0001)
    # Source 0's search predates the new links; source 2's does not.
    assert [hop.dst for hop in routing.route(0, 2)] == [2]
    assert routing.route(0, 2)[0].link is topology.link_between(0, 2)
    assert routing.route(2, 3)[0].link is shortcut
    routing.invalidate()
    assert [hop.link.latency_s for hop in routing.route(0, 3)] == [0.0001] * 2


def test_cached_and_precomputed_agree():
    topology = ring_topology(num_routers=6, vns_per_router=2)
    clients = [n.id for n in topology.clients()]
    precomputed = PrecomputedRouting(topology)
    cached = CachedRouting(topology)
    for src in clients[:4]:
        for dst in clients[:4]:
            a = precomputed.route(src, dst)
            b = cached.route(src, dst)
            assert a == b


def test_cached_invalidate_reroutes():
    topology = build_square()
    routing = CachedRouting(topology)
    assert [hop.dst for hop in routing.route(0, 3)] == [1, 3]
    topology.link_between(0, 1).up = False
    routing.invalidate()
    assert [hop.dst for hop in routing.route(0, 3)] == [2, 3]


def test_dynamic_link_failure_and_recovery():
    topology = build_square()
    routing = DynamicRouting(CachedRouting(topology))
    fast_link = topology.link_between(0, 1)
    assert [hop.dst for hop in routing.route(0, 3)] == [1, 3]

    routing.link_failed(fast_link)
    assert not fast_link.up
    assert [hop.dst for hop in routing.route(0, 3)] == [2, 3]

    routing.link_recovered(fast_link)
    assert [hop.dst for hop in routing.route(0, 3)] == [1, 3]
    assert routing.recomputations == 2


def test_dynamic_node_failure():
    topology = build_square()
    routing = DynamicRouting(CachedRouting(topology))
    routing.node_failed(topology, 1)
    assert [hop.dst for hop in routing.route(0, 3)] == [2, 3]
    routing.node_recovered(topology, 1)
    assert [hop.dst for hop in routing.route(0, 3)] == [1, 3]


def test_dynamic_change_listeners_fire():
    topology = build_square()
    routing = DynamicRouting(CachedRouting(topology))
    calls = []
    routing.on_change(lambda: calls.append(1))
    routing.link_failed(topology.link_between(0, 1))
    assert calls == [1]


def test_partition_returns_none():
    topology = build_square()
    routing = DynamicRouting(CachedRouting(topology))
    routing.node_failed(topology, 1)
    routing.node_failed(topology, 2)
    assert routing.route(0, 3) is None
