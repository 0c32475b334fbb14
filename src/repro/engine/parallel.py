"""Multiprocess executor: one worker per domain group, lockstep epochs.

The serial :class:`~repro.engine.sync.PartitionedSimulator` proves the
partitioning correct; this module makes it parallel. The parent builds
the emulation once and forks one worker per domain group; each worker
inherits the *entire* built emulation (so every worker sees an
identical object graph, without rebuilding it) and runs only the
event domains it owns. The parent never runs events: it is the
barrier — it computes each epoch's windows, hands every worker the
mail addressed to it, and decides who takes part.

Determinism, regardless of worker count:

* a worker keeps mail between two of its own domains and sends the
  rest to the parent as one pickled batch of flat tuples per
  destination worker; the parent forwards those bytes untouched;
* the receiving worker merges its local mail with every inbound batch
  and sorts the union by ``(time, src_domain, seq)`` — the same total
  order :meth:`DomainRouter.flush` uses in-process — before injecting
  it, so heap sequence numbers in each destination domain are assigned
  identically whether the sender lived in the same worker or another
  one;
* the per-domain window vector is computed by the same
  :func:`~repro.engine.sync.epoch_windows` planner the serial
  executor uses, on the same effective next-event vector
  (worker-reported heap minima folded with the minimum time of the
  mail each domain is about to receive, which workers report per
  destination domain — this equals the post-flush heap minimum the
  serial executor sees).

Idle workers skip epochs. The parent sends an epoch only to a worker
that has something to do in it: a domain with an event inside its
window, inbound mail, local mail not yet injected, or a fault-timeline
occurrence due at the epoch's barrier (then every worker takes part,
so all processes mutate link state at the same barrier). A skipped
worker dispatches nothing, so its last reported next-event times and
digests stay exact; its domain clocks lag until its next epoch, which
is safe because injection only refuses times before a domain's clock.
Mail is always injected in the epoch right after it was sent, never
deferred: merging batches from two barriers into one sort would
reorder heap sequence numbers.

Hence the composed per-domain digests of a multiprocess run match the
serial partitioned run of the same scenario exactly — the property
``repro-net sanitize --backend multiprocess`` enforces.

Commands and replies are one pickle per length-prefixed frame over a
``socket.socketpair`` (:class:`~repro.resilience.supervisor.FrameConnection`).
Mail blobs are opaque to the parent and the supervisor, so crash
replay resends byte-identical commands without re-encoding.

Execution is supervised (:mod:`repro.resilience`): every worker runs a
heartbeat thread, replies carry per-domain digests folded inline by
the worker's event domains, and the parent drives the epoch barrier
through a :class:`~repro.resilience.supervisor.WorkerSupervisor` that
detects crashes and hangs, respawns dead workers by forking the
untouched parent again, and replays them through the epochs they took
part in, to the last completed barrier, with a digest check — so a
SIGKILL mid-run yields the same composed digest as an undisturbed run.
Budget guards and checkpoint callbacks observe the loop at epoch
boundaries and never alter the epoch structure.

One synchronous round trip per participating worker per epoch is the
price of the barrier. Per-pair lookahead and epoch coalescing keep
that price bounded by the *real* cross-domain pipe latencies
(milliseconds on the paper topologies, not the 20 us channel floor);
BENCH results are reported honestly either way (see DESIGN.md §8).
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal as _signal
import threading
from bisect import bisect_right
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.packet import PacketDescriptor
from repro.engine.domain import INFINITY
from repro.engine.sync import (
    DomainMessage,
    MSG_HOST,
    epoch_windows,
    fault_barrier,
)
from repro.net.packet import Packet
from repro.net.sockets import UdpDatagram
from repro.net.tcp import TcpSegment
from repro.resilience.policy import (
    BudgetExceeded,
    BudgetGuard,
    ResilienceError,
    RetryPolicy,
)
from repro.resilience.supervisor import WorkerSupervisor, frame_pipe

_HIGHEST = pickle.HIGHEST_PROTOCOL

#: Transport tags of a flat packet tuple.
_SEG_TCP = 0
_SEG_UDP = 1
_SEG_OBJECT = 2  # any other segment, carried as the object itself

_new = object.__new__


class ParallelExecutionError(RuntimeError):
    """A worker failed; carries the remote traceback text."""


# ----------------------------------------------------------------------
# Mail codec
# ----------------------------------------------------------------------

def flatten_packet(packet: Packet) -> tuple:
    """A packet and its transport segment as one flat tuple of plain
    values (the packet ``id`` included), which pickles far faster than
    the slotted object graph."""
    seg = packet.segment
    cls = type(seg)
    if cls is TcpSegment:
        return (
            packet.id, packet.src, packet.dst, packet.size_bytes,
            packet.proto, packet.created_at, _SEG_TCP,
            seg.sport, seg.dport, seg.seq, seg.ack_seq, seg.flags,
            seg.wnd, seg.payload_len, seg.messages, seg.sack_blocks,
        )
    if cls is UdpDatagram:
        return (
            packet.id, packet.src, packet.dst, packet.size_bytes,
            packet.proto, packet.created_at, _SEG_UDP,
            seg.sport, seg.dport, seg.payload, seg.payload_len,
        )
    return (
        packet.id, packet.src, packet.dst, packet.size_bytes,
        packet.proto, packet.created_at, _SEG_OBJECT, seg,
    )


def restore_packet(flat: tuple) -> Packet:
    """Inverse of :func:`flatten_packet` (keeps the sender's id)."""
    packet = _new(Packet)
    (packet.id, packet.src, packet.dst, packet.size_bytes,
     packet.proto, packet.created_at, tag) = flat[:7]
    if tag == _SEG_TCP:
        seg = _new(TcpSegment)
        (seg.sport, seg.dport, seg.seq, seg.ack_seq, seg.flags, seg.wnd,
         seg.payload_len, seg.messages, seg.sack_blocks) = flat[7:]
    elif tag == _SEG_UDP:
        seg = _new(UdpDatagram)
        seg.sport, seg.dport, seg.payload, seg.payload_len = flat[7:]
    else:
        seg = flat[7]
    packet.segment = seg
    return packet


def flatten_message(message: DomainMessage) -> tuple:
    """One cross-worker message as a flat ``(time, src_domain, seq,
    dst_domain, kind, target, payload)`` tuple.

    Descriptors reference live :class:`~repro.core.pipe.Pipe` objects,
    which cannot cross a process boundary; they travel as pipe ids and
    are rehydrated against the destination worker's identical pipe
    table.
    """
    time, src, seq, dst, kind, target, payload = message
    if kind == MSG_HOST:
        flat = flatten_packet(payload)
    else:
        flat = (
            flatten_packet(payload.packet),
            tuple([pipe.id for pipe in payload.pipes]),
            payload.hop_index,
            payload.entry_core,
            payload.entered_at,
            payload.ideal_time,
            payload.tunnel_hops,
        )
    return (time, src, seq, dst, kind, target, flat)


def restore_message(flat: tuple, pipes_by_id) -> DomainMessage:
    """Inverse of :func:`flatten_message` against this process's pipe
    table."""
    time, src, seq, dst, kind, target, payload = flat
    if kind == MSG_HOST:
        return DomainMessage(
            time, src, seq, dst, kind, target, restore_packet(payload)
        )
    (packet, pipe_ids, hop_index, entry_core, entered_at,
     ideal_time, tunnel_hops) = payload
    descriptor = PacketDescriptor.acquire(
        restore_packet(packet),
        tuple([pipes_by_id[pipe_id] for pipe_id in pipe_ids]),
        entry_core,
        entered_at,
    )
    descriptor.hop_index = hop_index
    descriptor.ideal_time = ideal_time
    descriptor.tunnel_hops = tunnel_hops
    return DomainMessage(time, src, seq, dst, kind, target, descriptor)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _adopt_parent(scenario, owned: Sequence[int], digest: bool):
    """Take over the emulation this worker inherited through fork and
    return ``(sim, emulation)``.

    The parent built it and never runs it, so every worker (and every
    respawned one) starts from the identical object graph. Inherited
    observers are dropped first: wall-clock timers would only measure
    the worker's half of the barrier, and a parent-side dispatch hook
    (e.g. an attached sanitizer) has no reader here. With ``digest``
    each owned domain folds its event stream inline.
    """
    sim = scenario.sim
    emulation = scenario.emulation
    emulation.disarm_timing_hooks()
    for domain in sim.domains:
        domain.clear_observers()
    if digest:
        for d in owned:
            sim.domains[d].enable_digest()
    return sim, emulation


def _domain_digests(sim, owned: Sequence[int], digest: bool) -> dict:
    """``{domain: (hexdigest, events)}`` for the owned domains."""
    if not digest:
        return {}
    return {
        d: (sim.domains[d].digest_hexdigest(), sim.domains[d].events_dispatched)
        for d in owned
    }


def _collect_worker_stats(emulation, sim, owned: Sequence[int], digest: bool) -> dict:
    """Everything the parent needs to reconstruct run statistics."""
    owned_set = set(owned)
    cores: Dict[int, Dict[str, Any]] = {}
    for core in emulation.cores:
        if core.domain_id not in owned_set:
            continue
        cores[core.index] = {
            "wakeups": core.scheduler.wakeups,
            "hops_serviced": core.scheduler.hops_serviced,
            "cpu_busy_s": core.cpu_busy_s,
            "packets_processed": core.packets_processed,
            "hops_processed": core.hops_processed,
            "tick_overruns": core.tick_overruns,
            "tunnels_sent": core.tunnels_sent,
            "tunnels_received": core.tunnels_received,
            "nic_in_bytes": (
                core.ingress_link.bytes_sent if core.ingress_link else 0
            ),
            "nic_out_bytes": (
                core.egress_link.bytes_sent if core.egress_link else 0
            ),
        }
    pipes: Dict[int, Tuple] = {}
    domain_of_core = emulation._domain_of_core
    for pipe in emulation.pipes.values():
        if domain_of_core[pipe.owner] not in owned_set:
            continue
        pipes[pipe.id] = (
            pipe.arrivals,
            pipe.departures,
            pipe.drops_overflow,
            pipe.drops_random,
            pipe.drops_down,
            pipe.bytes_accepted,
            pipe.bytes_through,
            pipe.peak_backlog,
        )
    hosts: Dict[int, Tuple[int, int]] = {}
    edge_cpu_busy = 0.0
    edge_switches = 0
    for host in emulation.hosts:
        if emulation._domain_of_host[host.index] not in owned_set:
            continue
        hosts[host.index] = (host.uplink.bytes_sent, host.downlink.bytes_sent)
        if host.cpu is not None:
            stats = host.cpu.stats()
            edge_cpu_busy += stats["busy_s"]
            edge_switches += stats["context_switches"]
    tcp: Dict[str, int] = {}
    for vn in emulation.vns:
        if emulation.domain_of_vn(vn.vn_id) not in owned_set:
            continue
        for key, value in vn.stack.tcp_stats().items():
            tcp[key] = tcp.get(key, 0) + value
    monitor = emulation.monitor
    return {
        # Progress of domains this worker *owns* — a local read that the
        # ownership model cannot distinguish from a foreign peek.
        "domains": {
            d: (sim.domains[d]._dispatched, sim.domains[d]._now)  # repro: allow-cross-domain-clock
            for d in owned
        },
        "cores": cores,
        "pipes": pipes,
        "hosts": hosts,
        "edge_cpu": (edge_cpu_busy, edge_switches),
        "tcp": tcp,
        "monitor": {
            "packets_entered": monitor.packets_entered,
            "packets_delivered": monitor.packets_delivered,
            "packets_unroutable": monitor.packets_unroutable,
            "physical_drops_ring": monitor.physical_drops_ring,
            "physical_drops_egress": monitor.physical_drops_egress,
            "physical_drops_uplink": monitor.physical_drops_uplink,
            "tunnels": monitor.tunnels,
            "error_samples": list(monitor.error_samples),
        },
        "digests": _domain_digests(sim, owned, digest),
        # Every worker applies the whole fault timeline identically;
        # the parent adopts the view of the worker owning domain 0.
        "faults": (
            emulation.fault_applier.counters()
            if emulation.fault_applier is not None
            else None
        ),
    }


def _worker_main(
    conn,
    parent_ends: Sequence[Any],
    scenario,
    owned: List[int],
    owner_of_domain: Sequence[int],
    worker_index: int = 0,
    heartbeat_interval_s: float = 0.5,
    digest: bool = True,
) -> None:
    """One worker: adopt the inherited emulation, then serve epoch
    commands until 'finish'.

    Every message is one pickle per frame. A daemon heartbeat thread
    shares the reply connection (under a send lock) so the supervisor
    can tell a dead or stopped process from a livelocked one; an
    interval of 0 starts no thread. With ``digest`` (the default) the
    owned domains fold their event streams inline and every ``done``
    reply carries ``{domain: (hexdigest, count)}``, which is what makes
    crash recovery *verifiable* — the supervisor replays a respawned
    worker and compares these digests against the pre-crash ones. The
    single-worker fast path disables digests for pure timing runs
    (recovery there is a from-scratch deterministic rerun, so there is
    no replay to verify, and the serial leg it is benchmarked against
    runs undigested too).

    ``parent_ends`` are the parent-side connection ends this process
    inherited through fork; closing them at once means that when the
    parent closes its end, this worker reads EOF and exits instead of
    waiting for a command that never comes.

    An epoch reply's outbox is ``None`` when the epoch sent no mail,
    else ``(mail_times, blobs)``: the earliest mail time per
    destination domain (local destinations included, which is how the
    parent knows this worker holds local mail) and one pickled list of
    flat messages per destination worker.
    """
    for end in parent_ends:
        end.close()
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def _send(payload) -> None:
        data = pickle.dumps(payload, _HIGHEST)
        with send_lock:
            conn.send_bytes(data)

    def _beat() -> None:
        while not stop_beating.wait(heartbeat_interval_s):
            try:
                _send(("hb",))
            except (OSError, ValueError):
                return

    if heartbeat_interval_s > 0:
        threading.Thread(
            target=_beat, daemon=True, name=f"repro-hb-{worker_index}"
        ).start()
    epoch_index = 0
    try:
        sim, emulation = _adopt_parent(scenario, owned, digest)
        domains = sim.domains
        router = sim.router
        pipes_by_id = emulation._pipes_by_id
        loads = pickle.loads
        dumps = pickle.dumps
        #: Mail from owned domains to owned domains, injected next epoch.
        local: List[DomainMessage] = []
        sent = 0
        _send(("ready", {d: domains[d].next_event_time() for d in owned}))
        while True:
            try:
                command = loads(conn.recv_bytes())
            except (EOFError, ConnectionError):
                # The parent closed our connection without a 'finish'
                # (it gave up on the run): nothing left to serve.
                stop_beating.set()
                return
            op = command[0]
            if op == "epoch":
                _, windows, inbound = command
                mail = local
                local = []
                for blob in inbound:
                    mail += [
                        restore_message(flat, pipes_by_id)
                        for flat in loads(blob)
                    ]
                if mail:
                    # (time, src_domain, seq) is unique per message, so
                    # plain tuple order never reaches the payload.
                    mail.sort()
                    router.inject(domains, mail)
                if sim.fault_hook is not None:
                    # Barrier-aligned fault application: every worker
                    # receives the full window list and computes the
                    # same barrier the serial loop does; the parent
                    # sends a fault barrier to every worker, so all
                    # processes mutate link state at identical points.
                    sim.fault_hook(fault_barrier(windows))
                for d in owned:
                    window = windows[d]
                    if window is not None:
                        domains[d].run_window(window[0], window[1])
                outbox = router.take_pending()
                if outbox:
                    sent += len(outbox)
                    mail_times: Dict[int, float] = {}
                    remote: Dict[int, list] = {}
                    for message in outbox:
                        dst = message.dst_domain
                        if message.time < mail_times.get(dst, INFINITY):
                            mail_times[dst] = message.time
                        owner = owner_of_domain[dst]
                        if owner == worker_index:
                            local.append(message)
                        elif owner in remote:
                            remote[owner].append(flatten_message(message))
                        else:
                            remote[owner] = [flatten_message(message)]
                    mail_out = (
                        mail_times,
                        {w: dumps(batch, _HIGHEST) for w, batch in remote.items()},
                    )
                else:
                    mail_out = None
                _send(
                    (
                        "done",
                        {d: domains[d].next_event_time() for d in owned},
                        mail_out,
                        _domain_digests(sim, owned, digest),
                    )
                )
                epoch_index += 1
            elif op == "run":
                # Single-worker fast path: this worker owns every
                # domain, so the parent has nothing to route and the
                # whole epoch loop can run in-process — the exact
                # serial-partitioned loop, hence byte-identical
                # digests with zero per-epoch IPC.
                _, run_until = command
                sim.run(until=run_until)
                sent = router.messages_routed
                _send(
                    (
                        "done",
                        {d: domains[d].next_event_time() for d in owned},
                        (sim.epochs, router.messages_routed),
                        _domain_digests(sim, owned, digest),
                    )
                )
                epoch_index += 1
            elif op == "finish":
                _, until = command
                if until is not None:
                    sim.fast_forward(until, owned)
                stop_beating.set()
                stats = _collect_worker_stats(emulation, sim, owned, digest)
                stats["messages_sent"] = sent
                _send(("result", stats))
                conn.close()
                return
            else:  # pragma: no cover - protocol is fixed
                raise ParallelExecutionError(f"unknown command {op!r}")
    except BaseException:
        import traceback

        stop_beating.set()
        try:
            _send(
                (
                    "error",
                    {
                        "worker": worker_index,
                        "domains": list(owned),
                        "epoch": epoch_index,
                        "traceback": traceback.format_exc(),
                    },
                )
            )
        except (OSError, ValueError):
            # Parent is gone; a nonzero exit is the only report left.
            pass
        raise


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class MultiprocessResult:
    """Outcome of one multiprocess run, before report assembly."""

    def __init__(self) -> None:
        self.epochs = 0
        self.messages_routed = 0
        self.events_by_domain: Dict[int, int] = {}
        self.domain_digests: Dict[int, str] = {}
        self.domain_digest_events: Dict[int, int] = {}
        #: Flat metric overrides for stats that live in worker object
        #: state the parent cannot patch (TCP stacks, edge CPUs).
        self.metric_overlay: Dict[str, Any] = {}
        self.wall_time_s = 0.0
        #: Worker fork + ready handshake time, kept out of
        #: ``wall_time_s`` so events/s compares run phases across
        #: backends (the serial leg's build cost is outside its wall
        #: clock too).
        self.spawn_s = 0.0
        self.workers = 0
        #: ``completed`` or ``aborted`` (budget exhaustion mid-run).
        self.outcome = "completed"
        self.abort_reason: Optional[str] = None
        self.budget_error: Optional[BudgetExceeded] = None
        # Supervision counters (surfaced as resilience.* metrics).
        self.heartbeats_missed = 0
        self.workers_restarted = 0
        self.retries = 0

    @property
    def events_dispatched(self) -> int:
        return sum(self.events_by_domain.values())

    @property
    def composed_digest(self) -> str:
        from repro.check.sanitize import compose_domain_digests

        return compose_domain_digests(self.domain_digests)


def run_multiprocess(
    scenario,
    until: float,
    workers: int = 0,
    sanitize: bool = False,
    policy: Optional[RetryPolicy] = None,
    epoch_timeout_s: float = 30.0,
    heartbeat_interval_s: float = 0.5,
    budget: Optional[BudgetGuard] = None,
    on_epoch: Optional[Callable[[int, float, dict, dict], None]] = None,
    chaos_kill: Optional[Tuple[int, int]] = None,
    chaos_signal: int = _signal.SIGKILL,
) -> MultiprocessResult:
    """Run a built partitioned ``scenario`` to ``until`` across
    supervised worker processes, patch its (never-run) parent objects
    with the merged statistics, and return the
    :class:`MultiprocessResult`.

    ``workers == 0`` means one per domain, capped at the machine's
    CPU count (oversubscription buys no parallelism and pays a
    context-switch chain at every barrier); an explicit count is
    honored uncapped. Domains are dealt to workers round-robin; any
    worker count from 1 to ``num_domains`` produces identical
    digests. When a single worker owns every domain (and no chaos,
    budget, or epoch hook is in play) the worker runs the whole epoch
    loop in-process — one command, zero per-epoch IPC. ``sanitize``
    only matters there (it makes the fast path fold digests); every
    other run streams digests because supervision needs them for
    verified recovery.

    Workers are forked from this process and run the parent's built
    emulation as inherited, so anything installed on it after
    :meth:`~repro.api.Scenario.build` (a fault plan, custom traffic)
    runs in the workers too. The parent must not have run: a scenario
    that already ran or absorbed a previous run's statistics raises
    :class:`ParallelExecutionError`.

    Supervision: a crashed or hung worker is respawned by forking the
    untouched parent again and deterministically replayed to the last
    completed epoch barrier (digest-verified) per ``policy``; when
    retries run out a
    :class:`~repro.resilience.supervisor.SupervisionEscalation`
    propagates so the caller can degrade to the serial backend.
    ``budget`` is checked at every epoch barrier; exhaustion ends the
    run early with ``result.outcome == "aborted"`` and whatever stats
    the workers could still report. ``on_epoch(epoch_index, horizon,
    domain_digests, domain_counts)`` fires after every epoch (the
    checkpoint hook). ``chaos_kill=(epoch, worker)`` delivers
    ``chaos_signal`` to one worker just before that epoch — the
    deterministic fault-injection hook for tests and the
    ``chaos_recovery`` benchmark.
    """
    sim = scenario.sim
    if getattr(sim, "domains", None) is None or sim.num_domains < 2:
        raise ParallelExecutionError(
            "multiprocess backend needs a partitioned scenario with "
            ">= 2 domains (set backend/num_domains before build)"
        )
    if sim.epochs or sim.events_dispatched or sim.now > 0.0:
        # Workers fork from the parent's emulation, so it must be the
        # never-run build: a parent that ran, or already absorbed a
        # previous run's merged statistics, would be counted twice.
        raise ParallelExecutionError(
            "scenario has already run (or holds merged results); the "
            "multiprocess backend needs a freshly built scenario"
        )
    num_domains = sim.num_domains
    if workers <= 0:
        # Default pool size: one worker per domain, capped at the
        # machine's CPU count. Oversubscribing a small machine buys no
        # parallelism and pays a context-switch chain at every barrier
        # (on one CPU, four workers made each epoch ~1 ms of pure
        # scheduling). Explicit counts are honored uncapped — the
        # worker-count-invariance tests depend on that.
        import os as _os

        workers = max(1, min(num_domains, _os.cpu_count() or 1))
    num_workers = min(workers, num_domains)
    owned = [list(range(w, num_domains, num_workers)) for w in range(num_workers)]
    owner_of_domain = [d % num_workers for d in range(num_domains)]

    result = MultiprocessResult()
    result.workers = num_workers
    ctx = multiprocessing.get_context("fork")

    # Single-worker fast path: one worker owns every domain and runs
    # the whole epoch loop in-process (no per-epoch IPC). It folds
    # digests only when the caller asked to sanitize — matching the
    # serial timing leg, which also runs undigested.
    fast = (
        num_workers == 1
        and chaos_kill is None
        and on_epoch is None
        and budget is None
    )
    digest = (not fast) or sanitize

    #: Every parent-side connection end opened so far; each worker
    #: closes its inherited copies (closing an already-closed one is a
    #: no-op).
    parent_ends: List[Any] = []

    def spawn(index: int):
        # Forked from this (never-run) parent, so a respawned worker
        # starts from the same state as the original one did.
        parent_conn, child_conn = frame_pipe()
        parent_ends.append(parent_conn)
        proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn, list(parent_ends), scenario, owned[index],
                owner_of_domain, index, heartbeat_interval_s, digest,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return parent_conn, proc

    supervisor = WorkerSupervisor(
        spawn,
        owned,
        policy=policy,
        epoch_timeout_s=epoch_timeout_s,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    if budget is not None and budget._t0 is None:
        budget.start()
    stats: List[dict] = []
    matrix = sim.matrix
    applier = scenario.emulation.fault_applier
    fault_times = (
        applier.occurrence_times()
        if applier is not None and sim.fault_hook is not None
        else ()
    )
    t0 = perf_counter()  # repro: allow-wallclock
    try:
        next_times: Dict[int, float] = supervisor.start()
        # Workers are up; everything before this instant is spawn
        # cost, reported separately so wall_time_s measures the run
        # phase — the same phase the serial wall clock covers.
        result.spawn_s = perf_counter() - t0  # repro: allow-wallclock
        t0 = perf_counter()  # repro: allow-wallclock
        if fast:
            # One worker owns every domain: no cross-worker mail, no
            # global minimum to compute — the worker runs the serial
            # epoch loop itself and reports once at the end.
            reply = supervisor.run_all(until)
            result.wall_time_s = perf_counter() - t0  # repro: allow-wallclock
            result.epochs, result.messages_routed = reply[2]
            for d, (digest, count) in reply[3].items():
                result.domain_digests[d] = digest
                result.domain_digest_events[d] = count
            stats = supervisor.finish(until)
        else:
            _epoch_loop(
                supervisor, result, next_times, matrix, until, owned,
                owner_of_domain, fault_times, budget, on_epoch, chaos_kill,
                chaos_signal,
            )
            result.wall_time_s = perf_counter() - t0  # repro: allow-wallclock
            stats = supervisor.finish(until)
    except BudgetExceeded as exc:
        result.outcome = "aborted"
        result.abort_reason = exc.reason
        result.budget_error = exc
        try:
            # Best-effort partial stats: no clock fast-forward.
            stats = supervisor.finish(None)
        except ResilienceError:
            stats = []
    finally:
        result.heartbeats_missed = supervisor.heartbeats_missed
        result.workers_restarted = supervisor.workers_restarted
        result.retries = supervisor.retries
        supervisor.shutdown()
    if result.wall_time_s == 0.0:
        # Aborted runs never reached the run-phase clock stop above.
        result.wall_time_s = perf_counter() - t0  # repro: allow-wallclock
    result.metric_overlay["parallel.spawn_s"] = result.spawn_s

    _merge_stats(
        scenario,
        stats,
        until if result.outcome == "completed" else None,
        result,
    )
    return result


def _epoch_loop(
    supervisor: WorkerSupervisor,
    result: MultiprocessResult,
    next_times: Dict[int, float],
    matrix,
    until: float,
    owned: Sequence[Sequence[int]],
    owner_of_domain: Sequence[int],
    fault_times: Sequence[float],
    budget: Optional[BudgetGuard],
    on_epoch: Optional[Callable[[int, float, dict, dict], None]],
    chaos_kill: Optional[Tuple[int, int]],
    chaos_signal: int,
) -> None:
    """The parent's barrier loop: plan each epoch's windows, pick the
    workers that take part, hand them their mail, fold the replies."""
    num_domains = len(owner_of_domain)
    num_workers = len(owned)
    everyone = range(num_workers)
    heap_next = [next_times.get(d, INFINITY) for d in range(num_domains)]
    #: Earliest undelivered mail time per destination domain (local
    #: mail included), and the inbound mail blobs per worker.
    mail_times: Dict[int, float] = {}
    inbox: List[List[bytes]] = [[] for _ in everyone]
    #: Occurrences up to this index are applied by every worker.
    fault_cursor = 0
    domain_digests = result.domain_digests
    domain_events = result.domain_digest_events
    while True:
        eff_next = heap_next[:]
        for d, t in mail_times.items():
            if t < eff_next[d]:
                eff_next[d] = t
        windows = epoch_windows(eff_next, matrix, until)
        if windows is None:
            break
        barrier = fault_barrier(windows)
        due = bisect_right(fault_times, barrier)
        if due > fault_cursor:
            # A fault occurrence applies at this barrier: every worker
            # must apply it now, so every worker takes part.
            fault_cursor = due
            active = everyone
        else:
            mailed = {owner_of_domain[d] for d in mail_times}
            active = []
            for w in everyone:
                if w in mailed:
                    active.append(w)
                    continue
                for d in owned[w]:
                    window = windows[d]
                    if window is not None and (
                        eff_next[d] < window[0]
                        or (eff_next[d] == window[0] and window[1])
                    ):
                        active.append(w)
                        break
        mail = {w: tuple(inbox[w]) for w in active}
        if chaos_kill is not None and supervisor.epoch_index == chaos_kill[0]:
            supervisor.kill(chaos_kill[1] % num_workers, chaos_signal)
        replies = supervisor.run_epoch(windows, mail)
        mail_times = {}
        inbox = [[] for _ in everyone]
        for reply in replies.values():
            for d, t in reply[1].items():
                heap_next[d] = t
            outbox = reply[2]
            if outbox is not None:
                times, blobs = outbox
                for d, t in times.items():
                    if t < mail_times.get(d, INFINITY):
                        mail_times[d] = t
                for dst, blob in blobs.items():
                    inbox[dst].append(blob)
            for d, (digest, count) in reply[3].items():
                domain_digests[d] = digest
                domain_events[d] = count
        result.epochs += 1
        if budget is not None:
            budget.check(
                events=sum(domain_events.values()),
                pids=supervisor.pids(),
            )
        if on_epoch is not None:
            on_epoch(
                result.epochs - 1,
                barrier,
                dict(domain_digests),
                dict(domain_events),
            )


def _merge_stats(scenario, stats: List[dict], until, result) -> None:
    """Patch the parent's never-run emulation with worker state so the
    standard report path reads true numbers."""
    sim = scenario.sim
    emulation = scenario.emulation
    monitor = emulation.monitor
    edge_cpu_busy = 0.0
    edge_switches = 0
    tcp_totals: Dict[str, int] = {}
    samples: List[Tuple[int, List[float]]] = []
    messages = 0
    for worker_stats in stats:
        messages += worker_stats["messages_sent"]
        for d, (dispatched, now) in worker_stats["domains"].items():
            sim.domains[d].restore_progress(dispatched, now)
            result.events_by_domain[d] = dispatched
        for index, fields in worker_stats["cores"].items():
            core = emulation.cores[index]
            core.scheduler.wakeups = fields["wakeups"]
            core.scheduler.hops_serviced = fields["hops_serviced"]
            core.cpu_busy_s = fields["cpu_busy_s"]
            core.packets_processed = fields["packets_processed"]
            core.hops_processed = fields["hops_processed"]
            core.tick_overruns = fields["tick_overruns"]
            core.tunnels_sent = fields["tunnels_sent"]
            core.tunnels_received = fields["tunnels_received"]
            if core.ingress_link is not None:
                core.ingress_link.bytes_sent = fields["nic_in_bytes"]
            if core.egress_link is not None:
                core.egress_link.bytes_sent = fields["nic_out_bytes"]
        for pipe_id, values in worker_stats["pipes"].items():
            pipe = emulation._pipes_by_id[pipe_id]
            (pipe.arrivals, pipe.departures, pipe.drops_overflow,
             pipe.drops_random, pipe.drops_down, pipe.bytes_accepted,
             pipe.bytes_through, pipe.peak_backlog) = values
        for host_index, (up, down) in worker_stats["hosts"].items():
            host = emulation.hosts[host_index]
            host.uplink.bytes_sent = up
            host.downlink.bytes_sent = down
        busy, switches = worker_stats["edge_cpu"]
        edge_cpu_busy += busy
        edge_switches += switches
        for key, value in worker_stats["tcp"].items():
            tcp_totals[key] = tcp_totals.get(key, 0) + value
        m = worker_stats["monitor"]
        monitor.packets_entered += m["packets_entered"]
        monitor.packets_delivered += m["packets_delivered"]
        monitor.packets_unroutable += m["packets_unroutable"]
        monitor.physical_drops_ring += m["physical_drops_ring"]
        monitor.physical_drops_egress += m["physical_drops_egress"]
        monitor.physical_drops_uplink += m["physical_drops_uplink"]
        monitor.tunnels += m["tunnels"]
        for d, (digest, count) in worker_stats["digests"].items():
            result.domain_digests[d] = digest
            result.domain_digest_events[d] = count
        min_domain = min(worker_stats["domains"]) if worker_stats["domains"] else 0
        fault_counters = worker_stats.get("faults")
        if (
            fault_counters is not None
            and emulation.fault_applier is not None
            and min_domain == 0
        ):
            emulation.fault_applier.absorb(fault_counters)
        samples.append((min_domain, m["error_samples"]))
    # Error samples merged in domain order so the stored list is
    # worker-count independent (derived stats are order-invariant
    # regardless, via the sort in monitor.report()).
    for _, worker_samples in sorted(samples, key=lambda pair: pair[0]):
        room = monitor.max_samples - len(monitor.error_samples)
        if room <= 0:
            break
        monitor.error_samples.extend(worker_samples[:room])
    if stats:
        result.messages_routed = messages
    sim.epochs = result.epochs
    sim.router.messages_routed = result.messages_routed
    if until is not None:
        # The parent's kernels never ran; their heaps still hold the
        # initial schedule, so this alignment cannot be strict.
        sim.fast_forward(until, strict=False)
    for key, value in tcp_totals.items():
        result.metric_overlay[f"tcp.{key}"] = value
    if any(host.cpu is not None for host in emulation.hosts):
        result.metric_overlay["edge.cpu_busy_s"] = edge_cpu_busy
        result.metric_overlay["edge.context_switches"] = edge_switches
