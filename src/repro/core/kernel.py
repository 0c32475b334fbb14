"""The hot-core seam: swappable delay-line kernels for pipes.

The paper's heap-of-pipes scheduler (Sec. 2.2) pays scheduling cost
per *pipe*; this module takes the idea one level further so the
per-packet work inside each pipe is batchable too. A pipe's bandwidth
queue and delay line are *data*, not events: parallel columns of
departure times and descriptors that :meth:`service` drains in runs
(one call per pipe per tick), instead of one heap entry and one
callback per packet.

Two interchangeable kernels implement the same delay-line contract:

``scalar``
    The reference implementation: deques of ``(descriptor, time,
    ideal)`` tuples, one pop per packet, every value recomputed where
    it is read. Written for auditability — this is the yardstick the
    sanitizer compares the optimized kernel against.
``batched``
    The production kernel: columnar Python lists (descriptor, time,
    ideal columns) with head offsets, run-scanned and drained by
    slice. Also selects the optimized dispatch loop in
    :class:`~repro.engine.domain.EventDomain`.

Every kernel must be *digest-identical*: same exit order, same exit
times, same ``head_deadline`` floats (all IEEE-double arithmetic in
the same order), so the event streams the sanitize machinery hashes
are byte-equal across kernels and backends. CI enforces this on the
committed ``examples/*.digests.json`` baselines for every kernel.

The contract each kernel implements:

``admit(descriptor, dequeue_at, ideal_exit)``
    Append to the bandwidth queue. ``dequeue_at`` values are
    non-decreasing per pipe (the pipe's ``_free_at`` is monotone).
``service(cutoff, latency_s) -> (exits, bytes_through)``
    Move every due bandwidth entry (``dequeue_at <= cutoff``) into
    the delay line at ``dequeue_at + latency_s`` — latency is read at
    *service* time, dummynet semantics — then drain the delay-line
    prefix that is due, stopping at the first entry beyond ``cutoff``
    (entries behind it wait even if already due: latency changes can
    make the line non-monotone, and the reference drains head-order).
    Sets ``descriptor.ideal_time`` on each exit.
``head_deadline``
    The earliest pending time in either queue (``inf`` when empty).
    Scheduler-facing: read once per offer and per serviced pipe.
``bw_len`` / ``dl_len``
    Occupancy counts (drop-tail admission reads ``bw_len``).
``flush() -> int``
    Release every queued descriptor; returns the number lost.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

INFINITY = float("inf")

#: Kernel names accepted by ``--kernel`` / ``EmulationConfig.kernel``.
KERNELS = ("scalar", "batched")

#: The production default.
DEFAULT_KERNEL = "batched"

#: Compact a consumed column prefix once it reaches this length *and*
#: at least half the column (amortized O(1) per packet either way).
_COMPACT_AT = 512


def require_kernel(name: str) -> str:
    """Validate a kernel name; raises :class:`ValueError` on an
    unknown name."""
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; valid kernels: {', '.join(KERNELS)}"
        )
    return name


class ScalarDelayLine:
    """Reference delay line: tuple deques, one element at a time.

    Deliberately plain — no cached deadlines, no columnar storage —
    so its behavior is auditable by inspection. The batched kernel
    is verified against it (same exits, same floats, same digests).
    """

    __slots__ = ("_bw", "_dl")

    name = "scalar"

    def __init__(self):
        # (descriptor, dequeue_time, ideal_exit_time)
        self._bw: deque = deque()
        # (descriptor, exit_time, ideal_exit_time)
        self._dl: deque = deque()

    @property
    def bw_len(self) -> int:
        return len(self._bw)

    @property
    def dl_len(self) -> int:
        return len(self._dl)

    @property
    def head_deadline(self) -> float:
        deadline = INFINITY
        if self._bw:
            deadline = self._bw[0][1]
        if self._dl and self._dl[0][1] < deadline:
            deadline = self._dl[0][1]
        return deadline

    def admit(self, descriptor, dequeue_at: float, ideal_exit: float) -> None:
        self._bw.append((descriptor, dequeue_at, ideal_exit))

    def service(self, cutoff: float, latency_s: float) -> Tuple[list, int]:
        bw = self._bw
        dl = self._dl
        while bw and bw[0][1] <= cutoff:
            descriptor, dequeue_at, ideal_exit = bw.popleft()
            dl.append((descriptor, dequeue_at + latency_s, ideal_exit))
        exits: List = []
        through = 0
        while dl and dl[0][1] <= cutoff:
            descriptor, _exit_at, ideal_exit = dl.popleft()
            descriptor.ideal_time = ideal_exit
            through += descriptor.packet.size_bytes
            exits.append(descriptor)
        return exits, through

    def flush(self) -> int:
        lost = len(self._bw) + len(self._dl)
        for descriptor, _time, _ideal in self._bw:
            descriptor.release()
        for descriptor, _time, _ideal in self._dl:
            descriptor.release()
        self._bw.clear()
        self._dl.clear()
        return lost


class BatchedDelayLine:
    """Columnar delay line: parallel lists with head offsets.

    Departure times, descriptors and ideal exits live in separate
    columns; :meth:`service` finds the due run with one forward scan
    and moves/drains it with list slices, so per-packet Python work
    shrinks to the unavoidable descriptor field writes. The earliest
    pending time is cached in :attr:`head_deadline` (admission only
    ever appends later times, so a min-update keeps it exact) —
    the scheduler reads an attribute instead of peeking two queues.
    """

    __slots__ = (
        "_bw_desc", "_bw_time", "_bw_ideal", "_bw_head",
        "_dl_desc", "_dl_time", "_dl_ideal", "_dl_head",
        "bw_len", "dl_len", "head_deadline",
    )

    name = "batched"

    def __init__(self):
        self._bw_desc: list = []
        self._bw_time: list = []
        self._bw_ideal: list = []
        self._bw_head = 0
        self._dl_desc: list = []
        self._dl_time: list = []
        self._dl_ideal: list = []
        self._dl_head = 0
        self.bw_len = 0
        self.dl_len = 0
        self.head_deadline = INFINITY

    def admit(self, descriptor, dequeue_at: float, ideal_exit: float) -> None:
        self._bw_desc.append(descriptor)
        self._bw_time.append(dequeue_at)
        self._bw_ideal.append(ideal_exit)
        self.bw_len += 1
        if dequeue_at < self.head_deadline:
            self.head_deadline = dequeue_at

    def service(self, cutoff: float, latency_s: float) -> Tuple[list, int]:
        bw_time = self._bw_time
        h = self._bw_head
        n = len(bw_time)
        if h < n and bw_time[h] <= cutoff:
            dl_time = self._dl_time
            dl_desc = self._dl_desc
            dl_ideal = self._dl_ideal
            k = h + 1
            if k >= n or bw_time[k] > cutoff:
                # Single due entry — the common case under interactive
                # traffic: plain appends, no slicing.
                dl_time.append(bw_time[h] + latency_s)
                dl_desc.append(self._bw_desc[h])
                dl_ideal.append(self._bw_ideal[h])
                self.bw_len -= 1
                self.dl_len += 1
            else:
                # Due run: dequeue times are monotone, so the run ends
                # at the first entry beyond the cutoff.
                while k < n and bw_time[k] <= cutoff:
                    k += 1
                # Freeze the latency at service time (dummynet
                # semantics) for the whole run at once.
                dl_time.extend([t + latency_s for t in bw_time[h:k]])
                dl_desc.extend(self._bw_desc[h:k])
                dl_ideal.extend(self._bw_ideal[h:k])
                moved = k - h
                self.bw_len -= moved
                self.dl_len += moved
            self._bw_head = k
            if k >= _COMPACT_AT and k * 2 >= len(self._bw_desc):
                del self._bw_desc[:k]
                del self._bw_time[:k]
                del self._bw_ideal[:k]
                self._bw_head = 0
        exits: List = []
        through = 0
        dl_time = self._dl_time
        dh = self._dl_head
        dn = len(dl_time)
        if dh < dn and dl_time[dh] <= cutoff:
            # Head-order drain: stop at the first not-yet-due entry
            # even if later ones are due (matches the reference; the
            # line can be non-monotone after a latency change).
            dl_desc = self._dl_desc
            dl_ideal = self._dl_ideal
            dk = dh + 1
            if dk >= dn or dl_time[dk] > cutoff:
                descriptor = dl_desc[dh]
                descriptor.ideal_time = dl_ideal[dh]
                through = descriptor.packet.size_bytes
                exits = [descriptor]
                self.dl_len -= 1
            else:
                while dk < dn and dl_time[dk] <= cutoff:
                    dk += 1
                exits = dl_desc[dh:dk]
                ideal_run = dl_ideal[dh:dk]
                for i, descriptor in enumerate(exits):
                    descriptor.ideal_time = ideal_run[i]
                    through += descriptor.packet.size_bytes
                self.dl_len -= dk - dh
            self._dl_head = dk
            if dk >= _COMPACT_AT and dk * 2 >= len(dl_desc):
                del dl_desc[:dk]
                del self._dl_time[:dk]
                del dl_ideal[:dk]
                self._dl_head = 0
        # Refresh the cached earliest deadline from the new heads.
        head = INFINITY
        if self.bw_len:
            head = self._bw_time[self._bw_head]
        if self.dl_len:
            t = self._dl_time[self._dl_head]
            if t < head:
                head = t
        self.head_deadline = head
        return exits, through

    def flush(self) -> int:
        lost = self.bw_len + self.dl_len
        for descriptor in self._bw_desc[self._bw_head:]:
            descriptor.release()
        for descriptor in self._dl_desc[self._dl_head:]:
            descriptor.release()
        self._bw_desc.clear()
        self._bw_time.clear()
        self._bw_ideal.clear()
        self._bw_head = 0
        self._dl_desc.clear()
        self._dl_time.clear()
        self._dl_ideal.clear()
        self._dl_head = 0
        self.bw_len = 0
        self.dl_len = 0
        self.head_deadline = INFINITY
        return lost


_DELAY_LINES = {
    "scalar": ScalarDelayLine,
    "batched": BatchedDelayLine,
}


def make_delay_line(kernel: str):
    """A fresh delay-line engine for one pipe."""
    try:
        factory = _DELAY_LINES[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; valid kernels: {', '.join(KERNELS)}"
        ) from None
    return factory()
