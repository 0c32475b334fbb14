"""Assignment: partitioning the distilled topology across core nodes.

The paper uses a greedy k-clusters assignment: for k cores, randomly
select k nodes of the distilled topology as seeds, then greedily
select links from each cluster's current connected component in a
round-robin fashion (Sec. 2.1). The ideal assignment — minimizing
cross-core descriptor traffic under the offered load — is
NP-complete; this heuristic keeps clusters connected so most
consecutive pipes on a route share a core.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Sequence, Set

from repro.topology.graph import Link, Topology, TopologyError


class Assignment:
    """A mapping of topology links (and hence pipes) to core indices.

    Construction validates its inputs: a silently mis-partitioned
    assignment surfaces later as unroutable packets or a core domain
    with no work, which is far harder to diagnose than a
    :class:`TopologyError` at the call site.

    * every core index must lie in ``range(num_cores)``;
    * every core must own at least one link (pass
      ``allow_empty_cores=True`` for deliberately lopsided
      experiments);
    * when ``topology`` is supplied, every assigned link id must
      exist in it.
    """

    def __init__(
        self,
        num_cores: int,
        link_to_core: Dict[int, int],
        topology: Optional[Topology] = None,
        allow_empty_cores: bool = False,
    ):
        if num_cores < 1:
            raise TopologyError("need at least one core")
        populated = set()
        for link_id, core in link_to_core.items():
            if not isinstance(core, int) or not 0 <= core < num_cores:
                raise TopologyError(
                    f"link {link_id} assigned to invalid core {core!r} "
                    f"(valid cores: 0..{num_cores - 1})"
                )
            populated.add(core)
        if topology is not None:
            unknown = sorted(
                link_id
                for link_id in link_to_core
                if link_id not in topology.links
            )
            if unknown:
                raise TopologyError(
                    f"assignment references link id(s) {unknown} absent "
                    f"from topology {topology.name!r}"
                )
        if link_to_core and not allow_empty_cores:
            empty = sorted(set(range(num_cores)) - populated)
            if empty:
                raise TopologyError(
                    f"core(s) {empty} own no links; a partitioned engine "
                    f"would idle those domains — pass "
                    f"allow_empty_cores=True if this is intentional"
                )
        self.num_cores = num_cores
        self.link_to_core = dict(link_to_core)

    def core_of(self, link_id: int) -> int:
        return self.link_to_core[link_id]

    def links_of_core(self, core: int) -> List[int]:
        return sorted(
            link_id
            for link_id, owner in self.link_to_core.items()
            if owner == core
        )

    def load_balance(self) -> List[int]:
        """Links per core (a crude emulation-load proxy)."""
        counts = [0] * self.num_cores
        for core in self.link_to_core.values():
            counts[core] += 1
        return counts

    def __repr__(self) -> str:
        return f"<Assignment cores={self.num_cores} balance={self.load_balance()}>"


def single_core(topology: Topology) -> Assignment:
    """Everything on core 0."""
    return Assignment(
        1, {link_id: 0 for link_id in topology.links}, topology=topology
    )


def greedy_k_clusters(
    topology: Topology,
    num_cores: int,
    rng: random.Random,
) -> Assignment:
    """The paper's greedy k-clusters heuristic.

    Round-robin over the clusters, each takes the first unassigned
    link found by scanning its member nodes in ascending id order,
    each node's links in adjacency order; a cluster with no such link
    re-seeds on the smallest unassigned link id. Links are never
    unassigned, so both scans only move forward: every cluster keeps a
    min-heap of its member ids (exhausted nodes are popped for good)
    and every node a cursor into its adjacency list, which makes the
    whole assignment O((n + m) log n).
    """
    if num_cores < 1:
        raise TopologyError("need at least one core")
    if num_cores == 1:
        return single_core(topology)
    node_ids = sorted(topology.nodes)
    if len(node_ids) < num_cores:
        raise TopologyError(
            f"{num_cores} cores but only {len(node_ids)} topology nodes"
        )
    seeds = rng.sample(node_ids, num_cores)
    members: List[Set[int]] = [{seed} for seed in seeds]
    frontier: List[List[int]] = [[seed] for seed in seeds]
    adjacency: Dict[int, List[Link]] = {}
    cursor: Dict[int, int] = {}
    link_to_core: Dict[int, int] = {}
    link_ids = sorted(topology.links)
    next_seed = 0  # index into link_ids of the smallest unassigned id

    def adjacent_unassigned(heap: List[int]) -> Optional[Link]:
        while heap:
            node_id = heap[0]
            links = adjacency.get(node_id)
            if links is None:
                links = adjacency[node_id] = topology.links_of(node_id)
            position = cursor.get(node_id, 0)
            while position < len(links) and links[position].id in link_to_core:
                position += 1
            cursor[node_id] = position
            if position < len(links):
                return links[position]
            heapq.heappop(heap)
        return None

    while len(link_to_core) < len(link_ids):
        for core_index in range(num_cores):
            if len(link_to_core) == len(link_ids):
                break
            link = adjacent_unassigned(frontier[core_index])
            if link is None:
                # This cluster's component is exhausted: re-seed it on
                # a fresh link so every cluster still takes one link
                # per round (keeps emulation load balanced).
                while link_ids[next_seed] in link_to_core:
                    next_seed += 1
                link = topology.links[link_ids[next_seed]]
            link_to_core[link.id] = core_index
            for node_id in (link.a, link.b):
                if node_id not in members[core_index]:
                    members[core_index].add(node_id)
                    heapq.heappush(frontier[core_index], node_id)
    return Assignment(num_cores, link_to_core, topology=topology)


def assign_by_vn_groups(
    topology: Topology,
    groups: Sequence[Sequence[int]],
) -> Assignment:
    """Explicit assignment used by controlled experiments (Table 1):
    each group of client nodes claims its access links; remaining
    links go to the core with the fewest links."""
    num_cores = len(groups)
    node_to_core: Dict[int, int] = {}
    for core_index, group in enumerate(groups):
        for node_id in group:
            node_to_core[node_id] = core_index
    link_to_core: Dict[int, int] = {}
    leftovers: List[int] = []
    for link in topology.links.values():
        core = node_to_core.get(link.a, node_to_core.get(link.b))
        if core is None:
            leftovers.append(link.id)
        else:
            link_to_core[link.id] = core
    counts = [0] * num_cores
    for core in link_to_core.values():
        counts[core] += 1
    for link_id in sorted(leftovers):
        target = counts.index(min(counts))
        link_to_core[link_id] = target
        counts[target] += 1
    return Assignment(num_cores, link_to_core, topology=topology)


def cross_core_hops(topology: Topology, assignment: Assignment, routes) -> float:
    """Fraction of consecutive-pipe pairs (across ``routes``) whose
    pipes live on different cores — the metric the assignment tries
    to minimize."""
    crossings = 0
    pairs = 0
    for route in routes:
        for earlier, later in zip(route, route[1:]):
            pairs += 1
            if assignment.core_of(earlier.link.id) != assignment.core_of(
                later.link.id
            ):
                crossings += 1
    return crossings / pairs if pairs else 0.0
