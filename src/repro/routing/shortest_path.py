"""Shortest paths: one resumable Dijkstra search, and route utilities."""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from itertools import compress, count
from operator import attrgetter, itemgetter, not_
from typing import Callable, Dict, List, Optional, Tuple, Union
from weakref import WeakKeyDictionary

from repro.topology.graph import Link, Topology

INF = float("inf")


class RouteError(RuntimeError):
    """Raised when a requested route cannot be produced."""


class Hop:
    """One directed traversal of a link, from ``src`` to ``dst``."""

    __slots__ = ("link", "src", "dst")

    def __init__(self, link: Link, src: int, dst: int):
        self.link = link
        self.src = src
        self.dst = dst

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hop):
            return NotImplemented
        return (
            self.link is other.link
            and self.src == other.src
            and self.dst == other.dst
        )

    def __hash__(self) -> int:
        return hash((id(self.link), self.src, self.dst))

    def __repr__(self) -> str:
        return f"<Hop {self.src}->{self.dst} via link {self.link.id}>"


Route = Tuple[Hop, ...]

WeightSpec = Union[str, Callable[[Link], float]]

_LINK_WEIGHTS = {
    "latency": attrgetter("latency_s"),
    "cost": attrgetter("cost"),
}
_UP = attrgetter("up")
_FIRST = itemgetter(0)


class DenseGraph:
    """A topology's structure indexed densely for :class:`Search`.

    Node index ``i`` is the ``i``-th smallest node id, so a heap
    ordered on ``(dist, index)`` breaks ties exactly as one ordered on
    ``(dist, node id)``. ``adjacency[i]`` lists ``(neighbour index,
    link index)`` in the topology's adjacency order, down links
    included: a search weighs those ``inf``. A *leaf* has exactly one
    distinct neighbour; ``leaves[i]`` lists the leaves hanging off
    ``i``.
    """

    __slots__ = ("version", "ids", "index", "links", "adjacency", "leaves", "is_leaf")

    def __init__(self, topology: Topology):
        self.version = topology.structure_version
        self.ids = sorted(topology.nodes)
        self.index = {node_id: i for i, node_id in enumerate(self.ids)}
        self.links = list(topology.links.values())
        # Topology appends a link to both endpoints' adjacency lists as
        # it inserts it into ``links`` and removes it from all three, so
        # walking ``links`` in order yields each node's adjacency order.
        index = self.index
        self.adjacency: List[List[Tuple[int, int]]] = [[] for _ in self.ids]
        for position, link in enumerate(self.links):
            a, b = index[link.a], index[link.b]
            self.adjacency[a].append((b, position))
            self.adjacency[b].append((a, position))
        self.is_leaf = bytearray(len(self.ids))
        self.leaves: List[List[int]] = [[] for _ in self.ids]
        for node, pairs in enumerate(self.adjacency):
            if len(pairs) == 1 or (pairs and len(set(map(_FIRST, pairs))) == 1):
                self.is_leaf[node] = 1
                self.leaves[pairs[0][0]].append(node)

    def weights(self, weight: WeightSpec) -> List[float]:
        """Every link's weight now, by link index; down links ``inf``."""
        links = self.links
        if callable(weight):
            values = list(map(weight, links))
        elif weight == "hops":
            values = [1.0] * len(links)
        elif weight in _LINK_WEIGHTS:
            values = list(map(_LINK_WEIGHTS[weight], links))
        else:
            raise RouteError(f"unknown weight spec {weight!r}")
        if not all(map(_UP, links)):
            for down in compress(count(), map(not_, map(_UP, links))):
                values[down] = INF
        return values


# One DenseGraph per live topology, keyed weakly by the topology
# object and checked against its structure_version on every use, so
# callers that share a topology share its graph and no caller sees
# another topology's.
_GRAPHS: "WeakKeyDictionary[Topology, DenseGraph]" = WeakKeyDictionary()


def dense_graph(topology: Topology, rebuild: bool = False) -> DenseGraph:
    """The topology's :class:`DenseGraph`, rebuilt when its structure
    changed since the last call or when ``rebuild`` is set."""
    graph = _GRAPHS.get(topology)
    if rebuild or graph is None or graph.version != topology.structure_version:
        graph = _GRAPHS[topology] = DenseGraph(topology)
    return graph


class Search:
    """One single-source Dijkstra search that stops as soon as the
    requested destination is settled and resumes from there for the
    next one.

    The search reads ``weights`` (a :meth:`DenseGraph.weights`
    snapshot) for its whole life, so a link weight written after it
    started does not reach it. Popping ``(dist, index)`` in node-id
    order, relaxing in adjacency order with a strict ``<`` and adding
    ``d + w`` keeps every route identical to a full-tree textbook
    Dijkstra's. A leaf is settled right after its one neighbour's
    relaxation loop instead of being pushed: popping it would relax
    nothing.
    """

    __slots__ = (
        "graph",
        "weights",
        "source",
        "dist",
        "via_link",
        "via_node",
        "settled",
        "heap",
    )

    def __init__(self, graph: DenseGraph, weights: List[float], source: int):
        n = len(graph.ids)
        self.graph = graph
        self.weights = weights
        self.source = source
        self.dist = array("d", [INF]) * n
        self.dist[source] = 0.0
        self.via_link = array("i", [-1]) * n
        self.via_node = array("i", [-1]) * n
        # One spare slot no node ever settles: settle(n) runs the
        # search to exhaustion.
        self.settled = bytearray(n + 1)
        self.heap = [(0.0, source)]

    def settle(self, target: int) -> bool:
        """Advance until ``target`` is settled; False if unreachable."""
        settled = self.settled
        heap = self.heap
        if settled[target] or not heap:
            return bool(settled[target])
        dist = self.dist
        via_link = self.via_link
        via_node = self.via_node
        weights = self.weights
        adjacency = self.graph.adjacency
        leaves = self.graph.leaves
        is_leaf = self.graph.is_leaf
        while heap:
            d, node = heappop(heap)
            if settled[node]:
                continue
            settled[node] = 1
            for neighbor, link in adjacency[node]:
                if settled[neighbor]:
                    continue
                candidate = d + weights[link]
                if candidate < dist[neighbor]:
                    dist[neighbor] = candidate
                    via_link[neighbor] = link
                    via_node[neighbor] = node
                    if not is_leaf[neighbor]:
                        heappush(heap, (candidate, neighbor))
            for leaf in leaves[node]:
                if dist[leaf] < INF:
                    settled[leaf] = 1
            if settled[target]:
                return True
        return False

    def route(self, target: int) -> Optional[Route]:
        """The route to node index ``target``; None if unreachable."""
        if not self.settle(target):
            return None
        ids = self.graph.ids
        links = self.graph.links
        via_link = self.via_link
        via_node = self.via_node
        hops: List[Hop] = []
        node = target
        while node != self.source:
            prev = via_node[node]
            hops.append(Hop(links[via_link[node]], ids[prev], ids[node]))
            node = prev
        hops.reverse()
        return tuple(hops)


def dijkstra(
    topology: Topology,
    source: int,
    weight: WeightSpec = "latency",
) -> Tuple[Dict[int, float], Dict[int, Hop]]:
    """Single-source shortest paths over up links: one :class:`Search`
    run to exhaustion.

    Returns ``(dist, prev)`` where ``prev[node]`` is the :class:`Hop`
    by which ``node`` is reached on its shortest path from ``source``.
    Unreachable nodes are absent from both maps... except ``source``
    itself, present in ``dist`` with distance 0 and absent from
    ``prev``.
    """
    graph = dense_graph(topology)
    search = Search(graph, graph.weights(weight), graph.index[source])
    ids = graph.ids
    search.settle(len(ids))
    links = graph.links
    via_link = search.via_link
    via_node = search.via_node
    dist: Dict[int, float] = {}
    prev: Dict[int, Hop] = {}
    for i, d in enumerate(search.dist):
        if d == INF:
            continue
        dist[ids[i]] = d
        link = via_link[i]
        if link >= 0:
            prev[ids[i]] = Hop(links[link], ids[via_node[i]], ids[i])
    return dist, prev


def extract_route(prev: Dict[int, Hop], source: int, dest: int) -> Optional[Route]:
    """Materialize the route from a ``prev`` map; None if unreachable.

    A route from a node to itself is the empty tuple.
    """
    if dest == source:
        return ()
    if dest not in prev:
        return None
    hops: List[Hop] = []
    node = dest
    while node != source:
        hop = prev[node]
        hops.append(hop)
        node = hop.src
    hops.reverse()
    return tuple(hops)


def route_latency(route: Route) -> float:
    """Sum of link propagation latencies along the route."""
    return sum(hop.link.latency_s for hop in route)


def route_bottleneck_bandwidth(route: Route) -> float:
    """Minimum link bandwidth along the route (inf for empty routes)."""
    if not route:
        return float("inf")
    return min(hop.link.bandwidth_bps for hop in route)


def route_reliability(route: Route) -> float:
    """Product of link reliabilities (1 - loss) along the route."""
    reliability = 1.0
    for hop in route:
        reliability *= hop.link.reliability
    return reliability


def route_cost(route: Route) -> float:
    """Sum of abstract link costs along the route."""
    return sum(hop.link.cost for hop in route)
