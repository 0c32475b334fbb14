"""Differential property test: ``CachedRouting`` and ``dijkstra()``
against a textbook full-tree Dijkstra kept here as the oracle.

The oracle pops ``(dist, node id)`` from a heap, relaxes up links in
the topology's adjacency order with a strict ``<`` and records the
first relaxing hop. ``CachedRouting``'s contract is modelled on top of
it: a source's routes come from the tree as of that source's first
lookup after the last ``invalidate()``, so link writes made without an
invalidation (``up`` flips, ``latency_s`` perturbations) reach only
sources whose search starts after them.
"""

from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.routing import CachedRouting, dijkstra
from repro.topology import Topology

INF = float("inf")


def _scaled(link):
    return 2.0 * link.latency_s + link.cost


WEIGHTS = {
    "latency": lambda link: link.latency_s,
    "hops": lambda link: 1.0,
    "cost": lambda link: link.cost,
    "callable": _scaled,
}


def oracle(topology, source, weigh):
    """Textbook Dijkstra: full tree, ``{node: (link, parent)}``."""
    dist = {source: 0.0}
    prev = {}
    done = set()
    heap = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if node in done:
            continue
        done.add(node)
        for link in topology.links_of(node):
            if not link.up:
                continue
            neighbor = link.other(node)
            if neighbor in done:
                continue
            candidate = d + weigh(link)
            if candidate < dist.get(neighbor, INF):
                dist[neighbor] = candidate
                prev[neighbor] = (link, node)
                heappush(heap, (candidate, neighbor))
    return dist, prev


def oracle_route(prev, source, dest):
    """``[(link, src, dst), ...]`` from source to dest; None if cut."""
    if dest == source:
        return []
    if dest not in prev:
        return None
    hops = []
    node = dest
    while node != source:
        link, parent = prev[node]
        hops.append((link, parent, node))
        node = parent
    return hops[::-1]


def assert_same_route(route, expected):
    if expected is None:
        assert route is None
        return
    assert route is not None
    assert len(route) == len(expected)
    for hop, (link, src, dst) in zip(route, expected):
        assert hop.link is link
        assert (hop.src, hop.dst) == (src, dst)


# Few distinct latencies and costs, all sums exact in binary floating
# point, so equal-distance ties are common.
_links = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.sampled_from([1.0, 2.0, 3.0]),
    ),
    min_size=3,
    max_size=18,
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("route"), st.integers(0, 7), st.integers(0, 7)),
        st.tuples(st.just("flip"), st.integers(0, 17), st.booleans()),
        st.tuples(
            st.just("latency"),
            st.integers(0, 17),
            st.sampled_from([0.0, 0.25, 0.5, 1.5]),
        ),
        st.tuples(st.just("invalidate")),
    ),
    min_size=1,
    max_size=40,
)


def _build(nodes, links, order):
    """Nodes get gapped ids inserted out of id order, so node-id order,
    insertion order and position in ``links`` all differ."""
    topology = Topology()
    ids = [10 * position + 3 for position in order[:nodes]]
    for node_id in ids:
        topology.add_node(node_id=node_id)
    for a, b, latency, cost in links:
        a, b = ids[a % nodes], ids[b % nodes]
        if a != b:
            topology.add_link(a, b, 1e6, latency, cost=cost)
    return topology, ids


@settings(max_examples=300, deadline=None)
@given(
    nodes=st.integers(1, 8),
    links=_links,
    order=st.permutations(range(8)),
    ops=_ops,
    spec=st.sampled_from(sorted(WEIGHTS)),
)
def test_cached_routing_matches_the_oracle(nodes, links, order, ops, spec):
    topology, ids = _build(nodes, links, order)
    weigh = WEIGHTS[spec]
    routing = CachedRouting(
        topology, weight=weigh if spec == "callable" else spec
    )
    link_list = list(topology.links.values())
    trees = {}  # the model: source -> oracle tree at its search start
    for op in ops:
        kind = op[0]
        if kind == "route":
            src, dst = ids[op[1] % nodes], ids[op[2] % nodes]
            if src != dst and src not in trees:
                trees[src] = oracle(topology, src, weigh)[1]
            expected = [] if src == dst else oracle_route(trees[src], src, dst)
            assert_same_route(routing.route(src, dst), expected)
        elif kind == "invalidate":
            routing.invalidate()
            trees.clear()
        elif link_list:
            link = link_list[op[1] % len(link_list)]
            if kind == "flip":
                link.up = not link.up
                if op[2]:
                    routing.invalidate()
                    trees.clear()
            else:
                link.latency_s = op[2]


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.integers(1, 8),
    links=_links,
    order=st.permutations(range(8)),
    downs=st.sets(st.integers(0, 17), max_size=6),
    spec=st.sampled_from(sorted(WEIGHTS)),
)
def test_dijkstra_matches_the_oracle(nodes, links, order, downs, spec):
    topology, _ids = _build(nodes, links, order)
    for index, link in enumerate(topology.links.values()):
        link.up = index not in downs
    weigh = WEIGHTS[spec]
    for source in topology.nodes:
        dist, prev = dijkstra(
            topology, source, weigh if spec == "callable" else spec
        )
        want_dist, want_prev = oracle(topology, source, weigh)
        assert dist == want_dist
        assert set(prev) == set(want_prev)
        for node, hop in prev.items():
            link, parent = want_prev[node]
            assert hop.link is link
            assert (hop.src, hop.dst) == (parent, node)


def test_equal_distance_ties_break_by_node_id():
    """A grid under hop weights: every far node is reachable by many
    equal-length paths, and the oracle's choice among them is fixed by
    the (dist, node id) pop order."""
    topology = Topology()
    side = 4
    for position in range(side * side):
        topology.add_node(node_id=(position * 7) % 16)
    for row in range(side):
        for col in range(side):
            here = ((row * side + col) * 7) % 16
            if col + 1 < side:
                topology.add_link(here, ((row * side + col + 1) * 7) % 16, 1e6, 0.5)
            if row + 1 < side:
                topology.add_link(here, (((row + 1) * side + col) * 7) % 16, 1e6, 0.5)
    for spec in ("hops", "latency"):
        routing = CachedRouting(topology, weight=spec)
        for src in topology.nodes:
            _dist, tree = oracle(topology, src, WEIGHTS[spec])
            for dst in topology.nodes:
                assert_same_route(
                    routing.route(src, dst), oracle_route(tree, src, dst)
                )


def test_leaf_takes_the_first_lightest_parallel_link():
    """Node 2 hangs off node 1 by three parallel links; the search
    settles it without a heap entry, after all three were relaxed."""
    topology = Topology()
    for _ in range(3):
        topology.add_node()
    topology.add_link(0, 1, 1e6, 0.5)
    topology.add_link(1, 2, 1e6, 1.0)
    lightest = topology.add_link(1, 2, 1e6, 0.25)
    topology.add_link(2, 1, 1e6, 0.25)
    assert CachedRouting(topology).route(0, 2)[1].link is lightest
    _dist, prev = dijkstra(topology, 0)
    assert prev[2].link is lightest


def test_resumed_search_keeps_the_weights_of_its_start():
    """A lookup from 0 for node 1 pauses the search before link 2-3 is
    read. Slowing 2-3 then reaches a fresh source's search and, after
    ``invalidate()``, source 0's, but not the resumed one."""
    topology = Topology()
    for _ in range(5):
        topology.add_node()
    topology.add_link(0, 1, 1e6, 0.001)
    topology.add_link(0, 2, 1e6, 0.002)
    topology.add_link(1, 3, 1e6, 0.005)
    shortcut = topology.add_link(2, 3, 1e6, 0.002)
    topology.add_link(3, 4, 1e6, 0.001)
    routing = CachedRouting(topology)
    assert [hop.dst for hop in routing.route(0, 1)] == [1]
    shortcut.latency_s = 0.010
    assert [hop.dst for hop in routing.route(0, 4)] == [2, 3, 4]
    assert [hop.dst for hop in routing.route(2, 3)] == [0, 1, 3]
    routing.invalidate()
    assert [hop.dst for hop in routing.route(0, 4)] == [1, 3, 4]
