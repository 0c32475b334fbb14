"""Routing services: precomputed matrix, demand cache, dynamic wrapper."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.topology.graph import Link, Topology
from repro.routing.shortest_path import (
    Hop,
    Route,
    RouteError,
    Search,
    WeightSpec,
    dense_graph,
    dijkstra,
    extract_route,
)


class RoutingService:
    """Interface: map a (source node, destination node) pair to the
    ordered sequence of directed hops between them."""

    def route(self, src: int, dst: int) -> Optional[Route]:
        raise NotImplementedError

    def invalidate(self) -> None:
        """Discard state derived from the topology (after changes)."""
        raise NotImplementedError


class PrecomputedRouting(RoutingService):
    """The paper's O(n^2) routing matrix.

    Shortest-path trees are computed eagerly for every source in
    ``sources`` (default: all client nodes); route objects themselves
    are materialized lazily and memoized, since a 1000-VN matrix holds
    ~10^6 of them and most experiments touch a small subset.
    """

    def __init__(
        self,
        topology: Topology,
        sources: Optional[Iterable[int]] = None,
        weight: WeightSpec = "latency",
    ):
        self._topology = topology
        self._weight = weight
        if sources is None:
            sources = [node.id for node in topology.clients()]
        self._sources = list(sources)
        self._prev: Dict[int, Dict[int, Hop]] = {}
        self._routes: Dict[Tuple[int, int], Optional[Route]] = {}
        self._compute()

    def _compute(self) -> None:
        self._prev.clear()
        self._routes.clear()
        for source in self._sources:
            _dist, prev = dijkstra(self._topology, source, self._weight)
            self._prev[source] = prev

    @property
    def lookups_per_pair(self) -> int:
        """Number of (src, dst) route entries addressable: n^2."""
        return len(self._sources) ** 2

    def route(self, src: int, dst: int) -> Optional[Route]:
        """Look up the precomputed route; None when unreachable."""
        key = (src, dst)
        if key in self._routes:
            return self._routes[key]
        prev = self._prev.get(src)
        if prev is None:
            raise RouteError(f"node {src} is not a routing source")
        result = extract_route(prev, src, dst)
        self._routes[key] = result
        return result

    def invalidate(self) -> None:
        self._compute()


class CachedRouting(RoutingService):
    """The paper's hash-based alternative: routes for active flows are
    computed on demand and cached. Each source gets one resumable
    :class:`~repro.routing.shortest_path.Search` (an O(n lg n)
    Dijkstra at most) that runs only until the requested destination
    is settled; a later destination resumes it.

    Searches run on the topology's
    :class:`~repro.routing.shortest_path.DenseGraph`, rebuilt when its
    ``structure_version`` moves. A search reads the link weights as of
    its start; searches started while the weights are unchanged share
    one snapshot. ``invalidate`` drops every search and route and
    rebuilds the dense graph; the next lookups search the current
    topology."""

    def __init__(self, topology: Topology, weight: WeightSpec = "latency"):
        self._topology = topology
        self._weight = weight
        self._weights: Optional[List[float]] = None
        self._searches: Dict[int, Search] = {}
        self._routes: Dict[Tuple[int, int], Optional[Route]] = {}
        self.misses = 0
        self.hits = 0

    def route(self, src: int, dst: int) -> Optional[Route]:
        """Cached lookup; a cold source starts one search."""
        if src == dst:
            return ()
        key = (src, dst)
        cached = self._routes.get(key, _SENTINEL)
        if cached is not _SENTINEL:
            self.hits += 1
            return cached
        search = self._searches.get(src)
        if search is None:
            self.misses += 1
            search = self._searches[src] = self._start(src)
        target = search.graph.index.get(dst)
        result = None if target is None else search.route(target)
        self._routes[key] = result
        return result

    def _start(self, src: int) -> Search:
        graph = dense_graph(self._topology)
        weights = graph.weights(self._weight)
        if weights == self._weights:
            weights = self._weights
        else:
            self._weights = weights
        return Search(graph, weights, graph.index[src])

    def invalidate(self) -> None:
        dense_graph(self._topology, rebuild=True)
        self._searches.clear()
        self._routes.clear()


_SENTINEL = object()


class DynamicRouting(RoutingService):
    """The "perfect routing protocol": wraps another service and
    reacts to link/node failures by instantaneously recomputing
    shortest paths (paper Sec. 2.3, 4.3).

    Callbacks registered with :meth:`on_change` fire after every
    recomputation so the emulator can refresh installed routes.
    """

    def __init__(self, inner: RoutingService):
        self._inner = inner
        self._listeners = []
        self.recomputations = 0

    def route(self, src: int, dst: int) -> Optional[Route]:
        return self._inner.route(src, dst)

    def invalidate(self) -> None:
        self._inner.invalidate()
        self.recomputations += 1
        for listener in self._listeners:
            listener()

    def on_change(self, fn) -> None:
        self._listeners.append(fn)

    def link_failed(self, link: Link) -> None:
        """Mark ``link`` down and reroute around it."""
        link.up = False
        self.invalidate()

    def link_recovered(self, link: Link) -> None:
        """Mark ``link`` up and rebalance routes."""
        link.up = True
        self.invalidate()

    def node_failed(self, topology: Topology, node_id: int) -> None:
        """Fail every link incident to ``node_id``."""
        for link in topology.links_of(node_id):
            link.up = False
        self.invalidate()

    def node_recovered(self, topology: Topology, node_id: int) -> None:
        for link in topology.links_of(node_id):
            link.up = True
        self.invalidate()
