"""Delay-line kernel contract tests.

Two layers:

* boundary semantics of :class:`PipeScheduler` + :class:`Pipe` under
  batching, parameterized over every kernel — tick-boundary
  deadlines, stale drains after ``flush()``, same-tick cross-pipe
  ordering, and drop-tail admission while a batch is in flight;
* randomized cross-kernel parity — every kernel must produce the
  same exits, the same IEEE-double exit times, and the same
  ``head_deadline`` floats on the same admission schedule.
"""

import random

import pytest

from repro.core.kernel import KERNELS, make_delay_line
from repro.core.packet import PacketDescriptor
from repro.core.pipe import INFINITY, Pipe
from repro.core.scheduler import PipeScheduler
from repro.net.packet import Packet


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param


def descriptor(size=1000):
    return PacketDescriptor(Packet(0, 1, size, "udp"), (), 0, 0.0)


def pipe(kernel, pipe_id=0, bw=1e6, latency=0.0, queue_limit=50):
    return Pipe(pipe_id, bw, latency, queue_limit=queue_limit, kernel=kernel)


# ----------------------------------------------------------------------
# Tick-boundary deadlines
# ----------------------------------------------------------------------

def test_deadline_exactly_on_tick_boundary_matures_at_that_tick(kernel):
    # 1250 B at 1 Mb/s = 10 ms = exactly 100 ticks of 1e-4: the
    # deadline falls on a tick boundary and must mature at that wake,
    # not re-arm a same-instant wake.
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe(kernel)
    d = descriptor(1250)
    p.arrival(d, 0.0, 0.0)
    scheduler.notify(p)
    wake = scheduler.next_wake()
    assert wake == pytest.approx(0.01)
    assert scheduler.collect(wake) == [(p, [d])]
    assert scheduler.next_wake() == INFINITY


def test_deadline_with_float_noise_above_boundary_still_matures(kernel):
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe(kernel)
    # Force a head deadline a hair above the 693rd tick, as float
    # error produces in long runs; the slack in collect() must let
    # the wake at the quantized boundary drain it.
    p.arrival(descriptor(1250), 0.0593000000000001, 0.0593000000000001)
    scheduler.notify(p)
    wake = scheduler.next_wake()
    serviced = scheduler.collect(wake)
    assert [len(exits) for _, exits in serviced] == [1]


# ----------------------------------------------------------------------
# Stale entries after flush()
# ----------------------------------------------------------------------

def test_flush_orphans_heap_entry_and_collect_drains_it(kernel):
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe(kernel)
    p.arrival(descriptor(1250), 0.0, 0.0)
    scheduler.notify(p)
    assert scheduler.pending_pipes == 1
    lost = p.flush()
    assert lost == 1
    assert p._line.head_deadline == INFINITY
    # The heap entry is now stale; collect must discard it without
    # servicing and leave the heap empty.
    assert scheduler.collect(1.0) == []
    assert scheduler.pending_pipes == 0
    assert scheduler.next_wake() == INFINITY


def test_admission_after_flush_starts_a_fresh_line(kernel):
    scheduler = PipeScheduler(tick_s=1e-4)
    p = pipe(kernel)
    p.arrival(descriptor(1250), 0.0, 0.0)
    scheduler.notify(p)
    p.flush()
    d = descriptor(1250)
    assert p.arrival(d, 0.02, 0.02)
    scheduler.notify(p)
    serviced = scheduler.collect(scheduler.next_wake())
    assert serviced == [(p, [d])]


# ----------------------------------------------------------------------
# Same-tick, cross-pipe interleaving
# ----------------------------------------------------------------------

def test_same_tick_departures_service_in_deadline_order(kernel):
    # Three pipes with deadlines inside one tick: collect must return
    # them in deadline order (the order downstream seq assignment —
    # and so the digest — depends on), with each pipe's run intact.
    scheduler = PipeScheduler(tick_s=1e-3)
    fast = pipe(kernel, pipe_id=0, bw=1e9)
    mid = pipe(kernel, pipe_id=1, bw=4e7)
    slow = pipe(kernel, pipe_id=2, bw=2e7)
    batches = {}
    for p in (slow, fast, mid):  # notify order != deadline order
        batches[p.id] = [descriptor(1250), descriptor(1250)]
        for d in batches[p.id]:
            p.arrival(d, 0.0, 0.0)
        scheduler.notify(p)
    serviced = scheduler.collect(1e-3)
    assert [p.id for p, _ in serviced] == [0, 1, 2]
    for p, exits in serviced:
        assert exits == batches[p.id]


def test_batch_preserves_fifo_within_pipe(kernel):
    p = pipe(kernel, bw=1e8)
    admitted = [descriptor(1250) for _ in range(16)]
    for d in admitted:
        p.arrival(d, 0.0, 0.0)
    exits = p.service(1.0)
    assert exits == admitted


# ----------------------------------------------------------------------
# Drop-tail admission while a batch is in flight
# ----------------------------------------------------------------------

def test_droptail_admission_mid_batch(kernel):
    # queue_limit counts the bandwidth queue only. Fill it, verify
    # the overflow drop, then service part of the backlog and verify
    # the freed slots admit again — bw_len must be live mid-batch.
    p = pipe(kernel, bw=1e6, queue_limit=4)
    for _ in range(4):
        assert p.arrival(descriptor(1250), 0.0, 0.0)
    assert not p.arrival(descriptor(1250), 0.0, 0.0)
    assert p.drops_overflow == 1
    assert p.backlog_pkts == 4
    # Two packets dequeue by t=0.02 (10 ms serialization each).
    p.service(0.02)
    assert p.backlog_pkts == 2
    assert p.arrival(descriptor(1250), 0.02, 0.02)
    assert p.backlog_pkts == 3


# ----------------------------------------------------------------------
# Randomized cross-kernel parity
# ----------------------------------------------------------------------

def _drive(line, schedule):
    """Run one admission/service schedule against a delay line and
    return every observable: exit ids, exit ideal times, through
    bytes, head deadlines after every step, and occupancy."""
    observed = []
    for op in schedule:
        if op[0] == "admit":
            _, ident, size, dequeue_at, ideal_exit = op
            d = descriptor(size)
            d.packet.id = ident
            line.admit(d, dequeue_at, ideal_exit)
        else:
            _, cutoff, latency = op
            exits, through = line.service(cutoff, latency)
            observed.append((
                [e.packet.id for e in exits],
                [e.ideal_time for e in exits],
                through,
            ))
        observed.append((line.head_deadline, line.bw_len, line.dl_len))
    return observed


def _random_schedule(rng, ops=400):
    schedule = []
    clock = 0.0
    free_at = 0.0
    ident = 0
    for _ in range(ops):
        clock += rng.random() * 2e-4
        if rng.random() < 0.6:
            size = rng.choice((40, 576, 1500))
            tx = size * 8.0 / 1e7
            free_at = max(free_at, clock) + tx
            schedule.append(("admit", ident, size, free_at, free_at + 1e-3))
            ident += 1
        else:
            latency = rng.choice((0.0, 1e-3, 5e-3))
            schedule.append(("service", clock, latency))
    schedule.append(("service", clock + 10.0, 0.0))
    return schedule


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernels_agree_on_randomized_schedules(seed):
    schedule = _random_schedule(random.Random(seed))
    results = {k: _drive(make_delay_line(k), schedule) for k in KERNELS}
    reference = results["scalar"]
    for name, observed in results.items():
        assert observed == reference, f"kernel {name} diverged from scalar"


def test_flush_counts_agree_across_kernels():
    counts = {}
    for name in KERNELS:
        line = make_delay_line(name)
        for i in range(7):
            line.admit(descriptor(100), 0.001 * (i + 1), 0.001 * (i + 1))
        line.service(0.0035, 0.0)
        counts[name] = (line.flush(), line.bw_len, line.dl_len,
                        line.head_deadline)
    assert len(set(counts.values())) == 1, counts
