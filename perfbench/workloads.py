"""The three benchmark workloads.

Each workload turns a seed into a fresh, fully configured
:class:`repro.Scenario`. The seed only generates inputs: traffic
endpoints, start offsets and perturbation draws. Topology shapes, run
lengths and the emulator's own seed (assignment, binding and loss
draws) are fixed, so two seeds exercise the same program on different
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: The emulator's own seed, identical for every workload and run.
PROGRAM_SEED = 1
#: Seed of the transit-stub generator: the topology is part of the
#: workload's definition, not of its inputs.
TOPOLOGY_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Virtual seconds one experiment runs.
    until: float
    #: ``make(seed, backend)`` returns a fresh unbuilt scenario;
    #: ``backend`` is "serial" or "multiprocess".
    make: Callable[[int, str], object]
    backend: str = "serial"
    #: Extra build-only samples per experiment for the ``setup_s``
    #: median (builds of a few milliseconds jitter by more than a tenth).
    extra_builds: int = 0


# -- dumbbell_tcp -------------------------------------------------------

def _dumbbell(seed: int, backend: str):
    from repro import Scenario
    from repro.apps.netperf import NETPERF_PORT, TcpStream
    from repro.topology.generators import dumbbell_topology

    topology = dumbbell_topology(3)
    rng = random.Random(seed)
    # One flow each way across the bottleneck and one local flow per
    # side. The seed permutes which client plays which role; clients on
    # a side are interchangeable, so every seed offers the same load.
    left = rng.sample(range(3), 3)
    right = rng.sample(range(3), 3)
    pattern = [
        (("left", left[0]), ("right", right[0])),
        (("right", right[1]), ("left", left[1])),
        (("left", left[2]), ("left", left[1])),
        (("right", right[2]), ("right", right[0])),
    ]
    starts = [rng.uniform(0.0, 0.01) for _ in pattern]

    def traffic(emulation):
        clients = {"left": [], "right": []}
        for vn in emulation.vns:
            clients[topology.node(vn.node_id).attrs["side"]].append(vn.vn_id)
        return [
            TcpStream(
                emulation,
                clients[src_side][src],
                clients[dst_side][dst],
                port=NETPERF_PORT + i,
                start_at=starts[i],
            )
            for i, ((src_side, src), (dst_side, dst)) in enumerate(pattern)
        ]

    return (
        Scenario.from_topology(topology, name="dumbbell_tcp")
        .distill("hop-by-hop")
        .assign(1)
        .traffic(traffic)
        .observe(False)
        .seed(PROGRAM_SEED)
        .backend(backend)
    )


# -- chain_udp64 --------------------------------------------------------

CHAIN_FLOWS = 16
CHAIN_RATE_BPS = 2e6
CHAIN_PACKET_BYTES = 64


def _chain(seed: int, backend: str):
    from repro import Scenario
    from repro.apps.netperf import UdpCbrSource, UdpSink
    from repro.topology.generators import chain_topology

    rng = random.Random(seed)
    interval = CHAIN_PACKET_BYTES * 8 / CHAIN_RATE_BPS
    starts = [rng.uniform(0.0, interval) for _ in range(CHAIN_FLOWS)]

    def traffic(emulation):
        # chain_topology lists each sender right before its receiver.
        sinks = [
            UdpSink(emulation.vn(2 * i + 1)) for i in range(CHAIN_FLOWS)
        ]
        sources = [
            UdpCbrSource(
                emulation.vn(2 * i),
                2 * i + 1,
                rate_bps=CHAIN_RATE_BPS,
                packet_bytes=CHAIN_PACKET_BYTES,
                start_at=starts[i],
            )
            for i in range(CHAIN_FLOWS)
        ]
        return sources, sinks

    return (
        Scenario.from_topology(
            chain_topology(CHAIN_FLOWS, hops=8), name="chain_udp64"
        )
        .distill("hop-by-hop")
        .assign(1)
        .traffic(traffic)
        .observe(False)
        .seed(PROGRAM_SEED)
        .backend(backend)
    )


# -- transit_mp ---------------------------------------------------------

TRANSIT_DOMAINS = 4
TRANSIT_WORKERS = 2
#: Seed of the netperf pairing. Part of the workload, not of its
#: inputs: 256 random pairs of a 1,152-VN transit-stub differ in path
#: lengths enough to move the event count by a tenth between seeds.
TRANSIT_PAIR_SEED = 1


def _transit_topology():
    from repro.topology.transit_stub import (
        TransitStubSpec,
        transit_stub_topology,
    )

    spec = TransitStubSpec(
        transit_domains=4,
        transit_nodes_per_domain=6,
        stub_domains_per_transit_node=4,
        stub_nodes_per_domain=6,
        clients_per_stub_node=2,
    )
    return transit_stub_topology(spec, random.Random(TOPOLOGY_SEED))


def _transit(seed: int, backend: str):
    from repro import FaultPlan, Scenario
    from repro.faults import LinkDown, LinkUp, Perturbation
    from repro.topology.graph import NodeKind

    topology = _transit_topology()
    transit = {n.id for n in topology.nodes_of_kind(NodeKind.TRANSIT)}
    # The flapping link is part of the workload, not of its inputs: the
    # first transit-transit link.
    flap = min(
        link.id
        for link in topology.links.values()
        if link.a in transit and link.b in transit
    )
    # The seed names the plan's RNG stream, so it draws which tenth of
    # the links the perturbation slows, and by how much.
    plan = FaultPlan.of(
        LinkDown(0.3, flap),
        LinkUp(0.5, flap),
        Perturbation(0.1, 0.55, 0.15, link_fraction=0.1),
        stream=f"perturb-{seed}",
    )
    return (
        Scenario.from_topology(topology, name="transit_mp")
        .distill("hop-by-hop")
        .assign(4)
        .bind(4)
        .workload("netperf", flows=256, seed=TRANSIT_PAIR_SEED)
        .faults(plan)
        .observe(False)
        .seed(PROGRAM_SEED)
        .backend(backend, domains=TRANSIT_DOMAINS, workers=TRANSIT_WORKERS)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dumbbell_tcp",
            "shared-bottleneck bulk TCP on one core: dispatch loop, core "
            "wake and TCP do the work; setup, routing and epochs do none",
            until=10.0,
            make=_dumbbell,
            extra_builds=30,
        ),
        Workload(
            "chain_udp64",
            "Fig. 4's smallest-packet point: 64-byte UDP over 8-hop chains, "
            "per-hop forwarding does the work and TCP does none",
            until=0.5,
            make=_chain,
            extra_builds=30,
        ),
        Workload(
            "transit_mp",
            "1,752-node transit-stub on 4 domains and 2 worker processes "
            "with a link flap: epochs, worker IPC, faults, Dijkstra reruns",
            until=0.6,
            make=_transit,
            backend="multiprocess",
        ),
    )
}
