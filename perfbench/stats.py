"""Pure helpers: order statistics, packet conservation, span self time.

Nothing here imports ``repro``, so the helpers are testable without
building an emulation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the sample at or below it. Raises on an empty
    sample or a fraction outside [0, 1]."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle ones for even sizes)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def conservation_gap(
    entered: int,
    delivered: int,
    virtual_drops: int,
    physical_drops: int,
    pipe_in_flight: int,
) -> int:
    """Packets that entered the core fabric and are in no accounted
    state: neither delivered, dropped (virtually or physically), nor
    inside a pipe. Unroutable packets are refused before they count as
    entered, so they take no part. Zero on a single-core emulation."""
    return entered - (
        delivered + virtual_drops + physical_drops + pipe_in_flight
    )


def check_conservation(gap: int, cross_core_in_flight: int) -> List[str]:
    """Problems with a conservation gap, or an empty list.

    With one core the gap must be exactly zero. With several, a packet
    handed to another core is, until the handoff completes, counted in
    no pipe or (when the next domain admitted it before the sending
    core serviced the exit) in two. ``cross_core_in_flight`` (tunnels
    sent minus tunnels received) bounds that fuzz; a gap beyond it in
    either direction means packets were lost or counted twice."""
    bound = max(0, cross_core_in_flight)
    if abs(gap) <= bound:
        return []
    if gap < 0:
        return [f"packet conservation: {-gap} packet(s) counted twice"]
    return [
        f"packet conservation: {gap} packet(s) unaccounted for "
        f"(at most {bound} may be between cores)"
    ]


Span = Tuple[str, float, float, int]
"""A recorded span: (name, start, end, parent index or -1)."""


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the part of
    it that its direct children cover, summed over spans of one name."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(index, ())
            if e > start and s < end
        ]
        own = (end - start) - covered_length(clipped)
        out[name] = out.get(name, 0.0) + own
    return out
