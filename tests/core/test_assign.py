"""Tests for topology-to-core assignment."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Assignment, assign_by_vn_groups, greedy_k_clusters
from repro.core.assign import cross_core_hops, single_core
from repro.routing import CachedRouting
from repro.topology import (
    TopologyError,
    ring_topology,
    star_topology,
    transit_stub_topology,
    TransitStubSpec,
)


def test_single_core_covers_all_links():
    topology = ring_topology(num_routers=4, vns_per_router=2)
    assignment = single_core(topology)
    assert assignment.num_cores == 1
    assert set(assignment.link_to_core) == set(topology.links)


def test_invalid_assignment_rejected():
    with pytest.raises(TopologyError):
        Assignment(0, {})
    with pytest.raises(TopologyError):
        Assignment(2, {0: 5})


def test_assignment_rejects_non_int_and_negative_cores():
    with pytest.raises(TopologyError, match="valid cores: 0..1"):
        Assignment(2, {0: -1})
    with pytest.raises(TopologyError, match="invalid core"):
        Assignment(2, {0: "0"})


def test_assignment_rejects_empty_core():
    # Core 1 owns nothing: a partitioned engine would idle its domain.
    with pytest.raises(TopologyError, match="own no links"):
        Assignment(2, {0: 0, 1: 0})
    # ...unless the caller says the lopsidedness is deliberate.
    assignment = Assignment(2, {0: 0, 1: 0}, allow_empty_cores=True)
    assert assignment.load_balance() == [2, 0]
    # A fully empty assignment never trips the emptiness check.
    assert Assignment(3, {}).load_balance() == [0, 0, 0]


def test_assignment_rejects_links_absent_from_topology():
    topology = star_topology(2)
    known = sorted(topology.links)
    bogus = max(known) + 100
    with pytest.raises(TopologyError, match=f"{bogus}"):
        Assignment(
            1, {known[0]: 0, bogus: 0}, topology=topology
        )


def test_greedy_covers_all_links():
    topology = ring_topology(num_routers=8, vns_per_router=4)
    assignment = greedy_k_clusters(topology, 4, random.Random(1))
    assert set(assignment.link_to_core) == set(topology.links)
    assert all(0 <= c < 4 for c in assignment.link_to_core.values())


def test_greedy_balances_load_roughly():
    topology = ring_topology(num_routers=8, vns_per_router=4)
    assignment = greedy_k_clusters(topology, 4, random.Random(1))
    balance = assignment.load_balance()
    assert sum(balance) == topology.num_links
    # Round-robin greedy growth keeps clusters within a few links of
    # each other (the last round may starve stuck clusters).
    assert max(balance) - min(balance) <= 0.5 * (
        topology.num_links / len(balance)
    )


def test_greedy_single_core_shortcut():
    topology = star_topology(4)
    assignment = greedy_k_clusters(topology, 1, random.Random(0))
    assert assignment.num_cores == 1


def test_greedy_more_cores_than_nodes_rejected():
    topology = star_topology(2)
    with pytest.raises(TopologyError):
        greedy_k_clusters(topology, 10, random.Random(0))


def test_greedy_handles_disconnected_topology():
    import repro.topology as rt

    topology = rt.Topology()
    for _ in range(6):
        topology.add_node()
    topology.add_link(0, 1, 1e6, 1e-3)
    topology.add_link(2, 3, 1e6, 1e-3)
    topology.add_link(4, 5, 1e6, 1e-3)
    assignment = greedy_k_clusters(topology, 2, random.Random(3))
    assert len(assignment.link_to_core) == 3
    assert sorted(assignment.link_to_core) == sorted(topology.links)


def test_greedy_disconnected_many_components_balances():
    """With more components than cores, the re-seeding path must keep
    taking one link per cluster per round, so no core is starved even
    though no cluster can ever bridge components."""
    import repro.topology as rt

    topology = rt.Topology()
    for _ in range(12):
        topology.add_node()
    for pair in range(6):  # six disjoint two-node islands
        topology.add_link(2 * pair, 2 * pair + 1, 1e6, 1e-3)
    for seed in range(5):
        assignment = greedy_k_clusters(topology, 3, random.Random(seed))
        assert sorted(assignment.link_to_core) == sorted(topology.links)
        assert assignment.load_balance() == [2, 2, 2]


def test_cross_core_hops_hand_computed():
    """Chain 0-1-2-3-4, split 2+2 across two cores: the one route
    crosses cores exactly once in its three consecutive-pipe pairs."""
    import repro.topology as rt

    topology = rt.Topology()
    for _ in range(5):
        topology.add_node()
    chain_links = [
        topology.add_link(i, i + 1, 1e6, 1e-3).id for i in range(4)
    ]
    assignment = Assignment(
        2,
        {
            chain_links[0]: 0,
            chain_links[1]: 0,
            chain_links[2]: 1,
            chain_links[3]: 1,
        },
        topology=topology,
    )
    route = CachedRouting(topology).route(0, 4)
    assert [hop.link.id for hop in route] == chain_links
    assert cross_core_hops(topology, assignment, [route]) == pytest.approx(1 / 3)
    # Same route on a single core never crosses.
    assert cross_core_hops(topology, single_core(topology), [route]) == 0.0
    # No consecutive pairs at all -> defined as 0, not a ZeroDivision.
    assert cross_core_hops(topology, assignment, [route[:1]]) == 0.0


def test_load_balance_counts():
    topology = star_topology(4)
    link_ids = sorted(topology.links)
    assignment = Assignment(
        3,
        {link_ids[0]: 0, link_ids[1]: 0, link_ids[2]: 1, link_ids[3]: 2},
        topology=topology,
    )
    assert assignment.load_balance() == [2, 1, 1]
    assert assignment.links_of_core(0) == link_ids[:2]


def test_greedy_clusters_are_connected():
    """The heuristic's point: each cluster's links should form few
    connected blobs, keeping consecutive pipes co-located."""
    spec = TransitStubSpec()
    topology = transit_stub_topology(spec, random.Random(9))
    assignment = greedy_k_clusters(topology, 4, random.Random(9))
    routing = CachedRouting(topology, weight="latency")
    clients = sorted(n.id for n in topology.clients())
    rng = random.Random(1)
    routes = [
        routing.route(*rng.sample(clients, 2)) for _ in range(100)
    ]
    fraction = cross_core_hops(topology, assignment, routes)
    # A random link assignment would cross on ~75% of consecutive
    # pairs with 4 cores; the greedy clusters must beat that clearly.
    assert fraction < 0.6


def test_assign_by_vn_groups():
    topology = star_topology(8)
    clients = sorted(n.id for n in topology.clients())
    groups = [clients[:4], clients[4:]]
    assignment = assign_by_vn_groups(topology, groups)
    assert assignment.num_cores == 2
    for link in topology.links.values():
        client_end = link.a if link.a in clients else link.b
        expected = 0 if client_end in groups[0] else 1
        assert assignment.core_of(link.id) == expected


def test_assign_by_vn_groups_spreads_interior_links():
    topology = ring_topology(num_routers=4, vns_per_router=1)
    clients = sorted(n.id for n in topology.clients())
    assignment = assign_by_vn_groups(
        topology, [clients[:2], clients[2:]]
    )
    # Ring links touch no client; they are spread by load.
    balance = assignment.load_balance()
    assert sum(balance) == topology.num_links


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), cores=st.integers(1, 6))
def test_property_every_link_assigned_exactly_once(seed, cores):
    topology = ring_topology(num_routers=6, vns_per_router=3)
    assignment = greedy_k_clusters(topology, cores, random.Random(seed))
    assert sorted(assignment.link_to_core) == sorted(topology.links)
    assert sum(assignment.load_balance()) == topology.num_links


def _reference_greedy(topology, num_cores, rng):
    """The original quadratic scan, kept as the differential oracle:
    every turn rescans the cluster's members in ascending id order and
    each member's links in adjacency order; an exhausted cluster
    re-seeds on the smallest unassigned link id."""
    seeds = rng.sample(sorted(topology.nodes), num_cores)
    cluster_nodes = [{seed} for seed in seeds]
    link_to_core = {}
    unassigned = set(topology.links)

    def adjacent_unassigned(cluster):
        for node_id in sorted(cluster):
            for link in topology.links_of(node_id):
                if link.id in unassigned:
                    return link
        return None

    while unassigned:
        for core_index in range(num_cores):
            if not unassigned:
                break
            link = adjacent_unassigned(cluster_nodes[core_index])
            if link is None:
                link = topology.links[min(unassigned)]
            link_to_core[link.id] = core_index
            unassigned.discard(link.id)
            cluster_nodes[core_index].add(link.a)
            cluster_nodes[core_index].add(link.b)
    return link_to_core


@st.composite
def _multigraphs(draw):
    """Multigraphs with gapped, out-of-order node ids, parallel links,
    several components, isolated nodes, and gapped link ids (removed
    links)."""
    from repro.topology import Topology

    ids = draw(
        st.lists(st.integers(0, 60), min_size=2, max_size=14, unique=True)
    )
    topology = Topology("generated")
    for node_id in ids:
        topology.add_node(node_id=node_id)
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=30,
        )
    )
    for a, b in pairs:
        topology.add_link(a, b, bandwidth_bps=1e6, latency_s=1e-3)
    removed = draw(st.lists(st.sampled_from(sorted(topology.links) or [0])))
    for link_id in set(removed):
        if link_id in topology.links:
            topology.remove_link(link_id)
    return topology


@settings(max_examples=200, deadline=None)
@given(
    topology=_multigraphs(),
    cores=st.integers(2, 8),
    seed=st.integers(0, 2**16),
)
def test_greedy_matches_the_reference_scan(topology, cores, seed):
    if cores > topology.num_nodes:
        with pytest.raises(TopologyError, match="cores but only"):
            greedy_k_clusters(topology, cores, random.Random(seed))
        return
    expected = _reference_greedy(topology, cores, random.Random(seed))
    try:
        Assignment(cores, expected, topology=topology)
    except TopologyError:
        # Fewer links than cores: both sides leave a core empty, which
        # Assignment refuses.
        with pytest.raises(TopologyError, match="own no links"):
            greedy_k_clusters(topology, cores, random.Random(seed))
        return
    actual = greedy_k_clusters(topology, cores, random.Random(seed))
    assert actual.link_to_core == expected


def test_greedy_matches_the_reference_scan_on_transit_stub():
    spec = TransitStubSpec(
        transit_domains=2,
        transit_nodes_per_domain=3,
        stub_domains_per_transit_node=2,
        stub_nodes_per_domain=3,
        clients_per_stub_node=2,
    )
    topology = transit_stub_topology(spec, random.Random(1))
    for seed in range(3):
        for cores in (2, 3, 4, 8):
            expected = _reference_greedy(topology, cores, random.Random(seed))
            actual = greedy_k_clusters(topology, cores, random.Random(seed))
            assert actual.link_to_core == expected
