"""Machine-speed calibration: a fixed pure-Python workload whose CPU
time says how fast this machine runs interpreted code right now.

The benchmark's hosts are vCPUs on shared machines. Their speed drifts
by up to a factor of two over minutes (hyperthread siblings, cache and
frequency sharing with other guests), and none of that shows up as
steal time, so neither wall-clock nor CPU time of the program alone is
comparable between two runs. Every experiment therefore times this
workload right before and right after its run phase, in the same
process, and the benchmark reports its times scaled to
``REFERENCE_S``: seconds on a machine that runs the calibration in
``REFERENCE_S``. A slower program moves the scaled time; a slower
machine moves both and cancels out.

The workload mimics the emulator's hot paths without using its code:
a binary-heap event loop over small slotted objects, per-event dict
lookups, FIFO queues, and a periodic shortest-path search over a
sparse graph. Nothing here imports ``repro``, so no change to the
program can move the calibration.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from time import process_time
from typing import List

#: CPU seconds one ``calibration_work()`` call takes on the reference
#: machine: the 2-vCPU VM (Python 3.11.7, Linux 6.18) of the baseline
#: in ``README.md``, unloaded.
REFERENCE_S = 0.087
#: Calibration samples taken on each side of a run phase.
SAMPLES = 3

_NODES = 2048
_DEGREE = 3
_EVENTS = 90_000
_SEARCH_EVERY = 9_000


class _Packet:
    __slots__ = ("node", "size", "hops")

    def __init__(self, node: int, size: int) -> None:
        self.node = node
        self.size = size
        self.hops = 0


def _graph(rng: random.Random) -> List[List[tuple]]:
    """A ring plus random chords: every node reachable, degree ~4."""
    adjacency: List[List[tuple]] = [[] for _ in range(_NODES)]
    for a in range(_NODES):
        for b in [(a + 1) % _NODES] + [
            rng.randrange(_NODES) for _ in range(_DEGREE - 1)
        ]:
            weight = rng.uniform(1e-4, 1e-2)
            adjacency[a].append((b, weight))
            adjacency[b].append((a, weight))
    return adjacency


def _shortest_paths(adjacency: List[List[tuple]], source: int) -> dict:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbour, weight in adjacency[node]:
            nd = d + weight
            if nd < dist.get(neighbour, 1e18):
                dist[neighbour] = nd
                heapq.heappush(heap, (nd, neighbour))
    return dist


def calibration_work() -> int:
    """The fixed workload; returns a checksum so nothing is skipped."""
    rng = random.Random(20021209)
    adjacency = _graph(rng)
    queues = [deque() for _ in range(_NODES)]
    counters = {node: [0, 0] for node in range(_NODES)}
    heap: list = []
    seq = 0
    for i in range(512):
        packet = _Packet(rng.randrange(_NODES), 64 + (i * 97) % 1400)
        heapq.heappush(heap, (rng.random() * 1e-3, seq, packet))
        seq += 1
    checksum = 0
    for step in range(_EVENTS):
        now, _, packet = heapq.heappop(heap)
        queue = queues[packet.node]
        queue.append(packet)
        if len(queue) > 4:
            queue.popleft()
        row = counters[packet.node]
        row[0] += 1
        row[1] += packet.size
        links = adjacency[packet.node]
        packet.node, delay = links[(packet.hops + packet.size) % len(links)]
        packet.hops += 1
        heapq.heappush(heap, (now + delay, seq, packet))
        seq += 1
        if step % _SEARCH_EVERY == 0:
            checksum += len(_shortest_paths(adjacency, packet.node))
    return checksum + sum(row[0] for row in counters.values())


def sample_s() -> float:
    """CPU seconds of one ``calibration_work()`` call."""
    t0 = process_time()
    calibration_work()
    return process_time() - t0
