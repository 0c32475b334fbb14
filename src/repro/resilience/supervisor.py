"""WorkerSupervisor: heartbeats, failure typing, deterministic recovery.

The multiprocess backend (:mod:`repro.engine.parallel`) is a lockstep
epoch barrier: each epoch the parent sends ``("epoch", windows,
mail)`` to every worker that has something to do in it, and each of
those workers must answer with ``("done", next_times, outbox,
digests)``. A worker with no work, no mail and no fault due sits the
epoch out; it dispatches nothing, so its last answer stays exact.
That protocol makes supervision simple — a worker is healthy iff it
answers the current command within the epoch timeout — and makes
recovery *provably* correct:

* every worker, respawned ones included, is forked from the same
  parent, whose built emulation never runs, so a respawned worker
  starts from the identical object graph the original one did;
* the parent already stores, per epoch, exactly the inputs each
  worker consumed (the epoch windows plus that worker's inbound mail)
  and which workers took part, because *it* produced them; replaying
  the epochs a worker took part in drives the respawned worker through
  the same event stream event-for-event;
* every ``done`` reply carries streaming per-domain digests, so after
  replay the supervisor compares the respawned worker's digests
  against the ones recorded before the crash. A mismatch is a
  :class:`WorkerDesync` — recovery refuses to continue from a state it
  cannot prove equal to the pre-crash one.

On the wire every command and reply is one pickle in one
length-prefixed frame over a ``socket.socketpair`` stream
(:class:`FrameConnection`), and the parent waits on each worker
through a ``select.poll`` object registered once at launch. The
reader never buffers past a frame, so ``poll`` readiness always means
an unread frame (or EOF) is waiting.

Failures are typed: :class:`WorkerCrash` (process died / pipe broke /
worker reported a traceback), :class:`WorkerHang` (alive but silent
past the epoch timeout — the heartbeat thread distinguishes a wedged
process from a livelocked one), :class:`WorkerDesync` (replay digest
mismatch). Each carries the worker id, its domain group, the epoch
index, and the original traceback when one exists. Retries follow the
:class:`~repro.resilience.policy.RetryPolicy`; when attempts run out a
:class:`SupervisionEscalation` is raised and the caller may degrade to
serial partitioned execution (same digests by construction).

Wall clocks are legal here: this module lives outside the simulation
scope on purpose — supervision timing never influences virtual time.
"""

from __future__ import annotations

import math
import os
import pickle
import select
import signal
import socket
import struct
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.policy import (
    ResilienceError,
    RetryPolicy,
    check_supervision_timing,
)

__all__ = [
    "WorkerFailure",
    "WorkerCrash",
    "WorkerHang",
    "WorkerDesync",
    "SupervisionEscalation",
    "WorkerHandle",
    "WorkerSupervisor",
    "FrameConnection",
    "frame_pipe",
]

_FRAME_HEADER = struct.Struct("!Q")


class FrameConnection:
    """One end of a duplex stream of length-prefixed byte frames.

    Each frame is an 8-byte big-endian length followed by the payload,
    written with one ``sendall`` and read with ``MSG_WAITALL``
    receives, so a frame costs one system call per direction in the
    common case. Reads never go past the current frame, which keeps
    ``select.poll`` on :meth:`fileno` truthful: readable means a frame
    (or EOF) is waiting in the kernel. Writers sharing one end across
    threads must serialize :meth:`send_bytes` themselves.
    """

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def fileno(self) -> int:
        return self._sock.fileno()

    def send_bytes(self, data: bytes) -> None:
        self._sock.sendall(_FRAME_HEADER.pack(len(data)) + data)

    def recv_bytes(self) -> bytes:
        (size,) = _FRAME_HEADER.unpack(self._recv_exact(_FRAME_HEADER.size))
        return self._recv_exact(size)

    def _recv_exact(self, size: int) -> bytes:
        sock = self._sock
        data = sock.recv(size, socket.MSG_WAITALL)
        if len(data) == size:
            return data
        if not data:
            raise EOFError("peer closed the connection")
        # A signal can cut a MSG_WAITALL read short; finish the frame.
        buffer = bytearray(data)
        while len(buffer) < size:
            chunk = sock.recv(size - len(buffer), socket.MSG_WAITALL)
            if not chunk:
                raise EOFError("peer closed the connection mid-frame")
            buffer += chunk
        return bytes(buffer)

    def close(self) -> None:
        self._sock.close()


def frame_pipe() -> Tuple[FrameConnection, FrameConnection]:
    """A connected pair of :class:`FrameConnection` ends."""
    left, right = socket.socketpair()
    return FrameConnection(left), FrameConnection(right)


class WorkerFailure(ResilienceError):
    """Base class for a single worker's failure.

    Carries everything a post-mortem needs: ``worker`` (index),
    ``domains`` (the event-domain group it owns), ``epoch`` (index of
    the epoch in flight when it failed), and ``traceback`` (the remote
    traceback text, when the worker managed to report one).
    """

    kind = "failed"

    def __init__(
        self,
        worker: int,
        domains: Sequence[int],
        epoch: int,
        detail: str = "",
        traceback: Optional[str] = None,
    ) -> None:
        self.worker = worker
        self.domains = list(domains)
        self.epoch = epoch
        self.traceback = traceback
        message = (
            f"worker {worker} (domains {self.domains}) {self.kind} "
            f"at epoch {epoch}"
        )
        if detail:
            message += f": {detail}"
        if traceback:
            message += f"\n--- worker traceback ---\n{traceback.rstrip()}"
        super().__init__(message)


class WorkerCrash(WorkerFailure):
    """The worker process died, broke its pipe, or reported an error."""

    kind = "crashed"


class WorkerHang(WorkerFailure):
    """The worker is alive but has not answered within the timeout."""

    kind = "hung"


class WorkerDesync(WorkerFailure):
    """Replay after recovery produced different per-domain digests.

    This is the one failure recovery must *not* paper over: it means
    the respawned worker's event stream diverged from the pre-crash one,
    so continuing would silently corrupt the run's determinism claim.
    """

    kind = "desynchronized"


class SupervisionEscalation(ResilienceError):
    """Retries for one worker ran out; the run cannot stay parallel."""

    def __init__(self, worker: int, attempts: int, last: WorkerFailure) -> None:
        self.worker = worker
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"worker {worker} unrecoverable after {attempts} "
            f"attempt(s); last failure: {last}"
        )


class WorkerHandle:
    """Parent-side state for one worker process."""

    __slots__ = (
        "index",
        "domains",
        "conn",
        "poller",
        "proc",
        "completed",
        "last_digests",
        "next_times",
    )

    def __init__(self, index: int, domains: Sequence[int]) -> None:
        self.index = index
        self.domains = list(domains)
        self.conn = None
        #: ``select.poll`` object watching ``conn`` for replies.
        self.poller = None
        self.proc = None
        #: Epochs completed since launch, counting the ones this worker
        #: sat out: replay walks the first ``completed`` history entries.
        self.completed = 0
        #: ``{domain: (hexdigest, event_count)}`` from the latest epoch
        #: this worker took part in — the recovery ground truth.
        self.last_digests: Optional[Dict[int, Tuple[str, int]]] = None
        self.next_times: Dict[int, float] = {}

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None


class WorkerSupervisor:
    """Drives a fleet of epoch workers with recovery and replay.

    ``spawn(index)`` must start worker ``index`` and return
    ``(connection, process)``; the supervisor owns both afterwards.
    The connection needs ``fileno``, ``send_bytes``, ``recv_bytes``
    and ``close`` (a :class:`FrameConnection`). ``heartbeat_interval_s
    == 0`` means workers send no heartbeats: each reply is awaited up
    to the epoch timeout and no heartbeat is counted missing.
    """

    def __init__(
        self,
        spawn: Callable[[int], Tuple[Any, Any]],
        owned: Sequence[Sequence[int]],
        policy: Optional[RetryPolicy] = None,
        epoch_timeout_s: float = 30.0,
        heartbeat_interval_s: float = 0.5,
    ) -> None:
        check_supervision_timing(epoch_timeout_s, heartbeat_interval_s)
        self._spawn = spawn
        self.policy = policy or RetryPolicy()
        self.epoch_timeout_s = float(epoch_timeout_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.workers = [WorkerHandle(i, group) for i, group in enumerate(owned)]
        #: Per-epoch command history: ``(payload, mail)`` — the full
        #: replay input. The payload (the per-domain window vector) is
        #: shared; ``mail`` maps each worker that took part in the
        #: epoch to its private, opaque mail (kept as-is so replay
        #: resends byte-identical commands without re-encoding). Its
        #: keys are the epoch's active set.
        self._history: List[Tuple[Any, Dict[int, Any]]] = []
        # Counters surfaced as resilience.* metrics.
        self.heartbeats_missed = 0
        self.workers_restarted = 0
        self.retries = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def epoch_index(self) -> int:
        return len(self._history)

    def start(self) -> Dict[int, float]:
        """Spawn every worker, await readiness, return merged
        per-domain next event times."""
        for handle in self.workers:
            self._launch(handle)
        next_times: Dict[int, float] = {}
        for handle in self.workers:
            try:
                self._ready(handle)
            except WorkerFailure as failure:
                self._handle_failure(handle, failure, resend=None)
            next_times.update(handle.next_times)
        return next_times

    def run_epoch(self, payload: Any, mail: Dict[int, Any]) -> Dict[int, Any]:
        """Run one epoch on the workers named in ``mail``; recover any
        that fail.

        ``payload`` is shared by every participant (the per-domain
        window vector); ``mail[i]`` is worker ``i``'s private mail.
        Workers absent from ``mail`` sit the epoch out. Returns
        ``{worker: ("done", next_times, outbox, digests)}`` for the
        participants.
        """
        self._history.append((payload, mail))
        workers = self.workers
        replies: Dict[int, Any] = {}
        for index, private in mail.items():
            handle = workers[index]
            command = ("epoch", payload, private)
            try:
                self._send(handle, command)
            except WorkerFailure as failure:
                replies[index] = self._handle_failure(
                    handle, failure, resend=command
                )
        for index, private in mail.items():
            if index in replies:
                continue
            handle = workers[index]
            try:
                replies[index] = self._recv(handle)
            except WorkerFailure as failure:
                replies[index] = self._handle_failure(
                    handle, failure, resend=("epoch", payload, private)
                )
        for handle in workers:
            handle.completed += 1
        for index, reply in replies.items():
            handle = workers[index]
            handle.next_times = reply[1]
            handle.last_digests = reply[3]
        return replies

    def run_all(self, until, timeout_s: Optional[float] = None):
        """Single-worker fast path: one ``("run", until)`` command has
        the worker drive its own epoch loop to ``until`` — no per-epoch
        parent barrier.

        Only valid when one worker owns every domain (nothing to
        route, nothing to synchronize against). The epoch history
        stays empty, so crash recovery degenerates correctly: replay
        is a no-op and the whole deterministic run is re-issued.
        Returns the worker's ``("done", next_times, (epochs,
        messages_routed), digests)`` reply.
        """
        if len(self.workers) != 1:
            raise ResilienceError(
                "run_all needs exactly one worker owning every domain"
            )
        handle = self.workers[0]
        command = ("run", until)
        try:
            self._send(handle, command)
            reply = self._recv(handle, timeout_s=timeout_s)
        except WorkerFailure as failure:
            reply = self._handle_failure(handle, failure, resend=command)
        handle.next_times = reply[1]
        handle.last_digests = reply[3]
        return reply

    def finish(self, until) -> List[dict]:
        """Send the final command; returns per-worker stats dicts."""
        stats: List[Optional[dict]] = [None] * len(self.workers)
        command = ("finish", until)
        pending = []
        for handle in self.workers:
            try:
                self._send(handle, command)
                pending.append(handle)
            except WorkerFailure as failure:
                reply = self._handle_failure(handle, failure, resend=command)
                stats[handle.index] = reply[1]
        for handle in pending:
            try:
                reply = self._recv(handle)
            except WorkerFailure as failure:
                reply = self._handle_failure(handle, failure, resend=command)
            stats[handle.index] = reply[1]
        return [s for s in stats if s is not None]

    def shutdown(self) -> None:
        """Close pipes and reap every worker process.

        Join honours the configurable supervisor timeout (this replaces
        the old fixed ``proc.join(timeout=30)``), then escalates to
        terminate and finally SIGKILL so no orphan survives.
        """
        for handle in self.workers:
            self._reap(handle, join_timeout_s=self.epoch_timeout_s)

    def kill(self, worker: int, sig: int = signal.SIGKILL) -> None:
        """Deliver ``sig`` to a worker — the chaos-injection hook."""
        handle = self.workers[worker]
        if handle.proc is not None and handle.proc.pid is not None:
            os.kill(handle.proc.pid, sig)

    def pids(self) -> List[int]:
        return [h.proc.pid for h in self.workers if h.proc is not None]

    # -- plumbing ------------------------------------------------------

    def _launch(self, handle: WorkerHandle) -> None:
        handle.conn, handle.proc = self._spawn(handle.index)
        handle.poller = select.poll()
        handle.poller.register(handle.conn.fileno(), select.POLLIN)

    def _ready(self, handle: WorkerHandle) -> None:
        reply = self._recv(handle)
        if reply[0] != "ready":
            raise WorkerCrash(
                handle.index,
                handle.domains,
                self.epoch_index,
                detail=f"expected 'ready', got {reply[0]!r}",
            )
        handle.next_times = reply[1]

    def _send(self, handle: WorkerHandle, command) -> None:
        try:
            handle.conn.send_bytes(
                pickle.dumps(command, pickle.HIGHEST_PROTOCOL)
            )
        except (OSError, ValueError) as exc:
            raise WorkerCrash(
                handle.index,
                handle.domains,
                self.epoch_index,
                detail=f"pipe write failed: {exc!r}",
            ) from exc

    def _recv(self, handle: WorkerHandle, timeout_s: Optional[float] = None):
        """Receive the next non-heartbeat reply, within the timeout.

        With heartbeats on, polls at the heartbeat cadence: every empty
        window counts a missed heartbeat. With heartbeats off
        (interval 0), one poll waits out the whole timeout. EOF or a
        dead process is a crash; hitting the deadline with the process
        still alive is a hang (the message records whether heartbeats
        kept arriving — livelock — or the process went completely
        silent — wedged/stopped).
        """
        timeout_s = self.epoch_timeout_s if timeout_s is None else timeout_s
        interval = self.heartbeat_interval_s
        poll = handle.poller.poll
        deadline = time.monotonic() + timeout_s
        remaining = timeout_s
        beats = 0
        while True:
            wait = interval if 0 < interval < remaining else remaining
            try:
                if not poll(math.ceil(wait * 1000.0)):
                    if interval > 0:
                        self.heartbeats_missed += 1
                    if handle.proc is not None and not handle.proc.is_alive():
                        raise self._died(handle)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise self._timed_out(handle, timeout_s, beats)
                    continue
                reply = pickle.loads(handle.conn.recv_bytes())
            except (EOFError, OSError) as exc:
                raise WorkerCrash(
                    handle.index,
                    handle.domains,
                    self.epoch_index,
                    detail=f"pipe closed: {exc!r}",
                ) from exc
            tag = reply[0]
            if tag == "hb":
                beats += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise self._timed_out(handle, timeout_s, beats)
                continue
            if tag == "error":
                info = reply[1] if isinstance(reply[1], dict) else {}
                raise WorkerCrash(
                    handle.index,
                    handle.domains,
                    info.get("epoch", self.epoch_index),
                    detail="worker reported an error",
                    traceback=info.get(
                        "traceback",
                        reply[1] if isinstance(reply[1], str) else None,
                    ),
                )
            return reply

    def _died(self, handle: WorkerHandle) -> WorkerCrash:
        return WorkerCrash(
            handle.index,
            handle.domains,
            self.epoch_index,
            detail=f"process died (exitcode {handle.proc.exitcode})",
        )

    def _timed_out(
        self, handle: WorkerHandle, timeout_s: float, beats: int
    ) -> WorkerFailure:
        """The failure for a reply that missed its deadline: a crash if
        the process is gone, else a hang."""
        if handle.proc is not None and not handle.proc.is_alive():
            return self._died(handle)
        liveness = (
            f"{beats} heartbeat(s) received while waiting (livelocked?)"
            if beats
            else "no heartbeats received (wedged or stopped)"
        )
        return WorkerHang(
            handle.index,
            handle.domains,
            self.epoch_index,
            detail=f"no reply within {timeout_s:g}s; {liveness}",
        )

    # -- recovery ------------------------------------------------------

    def _handle_failure(self, handle: WorkerHandle, failure: WorkerFailure, resend):
        """Recover ``handle`` per the retry policy.

        ``resend`` is the in-flight command to re-issue after replay
        (or ``None`` during startup); returns its reply when set.
        Raises :class:`SupervisionEscalation` when attempts run out.
        """
        last: WorkerFailure = failure
        attempt = 0
        while attempt < self.policy.max_attempts:
            attempt += 1
            self.retries += 1
            self.policy.sleep(attempt)
            try:
                self._respawn(handle)
                self._replay(handle)
                if resend is None:
                    return None
                self._send(handle, resend)
                return self._recv(handle)
            except WorkerFailure as exc:
                last = exc
        escalation = SupervisionEscalation(handle.index, attempt, last)
        # Counters travel with the escalation so a degraded run's
        # report can still account for the failed parallel attempt.
        escalation.counters = {
            "heartbeats_missed": self.heartbeats_missed,
            "workers_restarted": self.workers_restarted,
            "retries": self.retries,
        }
        raise escalation from last

    def _respawn(self, handle: WorkerHandle) -> None:
        self._reap(handle, join_timeout_s=0.0)
        self.workers_restarted += 1
        self._launch(handle)
        self._ready(handle)

    def _replay(self, handle: WorkerHandle) -> None:
        """Drive a freshly respawned worker back to the last completed
        epoch barrier, then digest-verify it against pre-crash state.

        Only the epochs the worker took part in are resent; in the
        others it dispatched nothing. Replayed outboxes are discarded
        — the parent routed them the first time around — and the
        digests of the final replayed epoch must match
        ``handle.last_digests`` exactly, or recovery stops with
        :class:`WorkerDesync`.
        """
        index = handle.index
        digests: Optional[Dict[int, Tuple[str, int]]] = None
        for payload, mail in self._history[: handle.completed]:
            if index not in mail:
                continue
            self._send(handle, ("epoch", payload, mail[index]))
            reply = self._recv(handle)
            handle.next_times = reply[1]
            digests = reply[3]
        if handle.completed == 0 or handle.last_digests is None:
            return
        from repro.check.sanitize import diff_domain_digests

        expected = {d: h for d, (h, _) in handle.last_digests.items()}
        actual = {d: h for d, (h, _) in (digests or {}).items()}
        bad = diff_domain_digests(expected, actual)
        counts_expected = {d: n for d, (_, n) in handle.last_digests.items()}
        counts_actual = {d: n for d, (_, n) in (digests or {}).items()}
        if not bad and counts_expected != counts_actual:
            bad = sorted(
                d
                for d in counts_expected
                if counts_expected.get(d) != counts_actual.get(d)
            )
        if bad:
            raise WorkerDesync(
                handle.index,
                handle.domains,
                handle.completed - 1,
                detail=(
                    "replay digests diverged for domain(s) "
                    f"{bad} after respawn — refusing to resume from an "
                    "unverifiable state"
                ),
            )

    def _reap(self, handle: WorkerHandle, join_timeout_s: float) -> None:
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # best-effort close
                pass
            handle.conn = None
            handle.poller = None
        proc = handle.proc
        if proc is None:
            return
        proc.join(timeout=join_timeout_s)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():
            # SIGTERM does not reach a SIGSTOPped process; SIGKILL does.
            proc.kill()
            proc.join(timeout=5.0)
        handle.proc = None
