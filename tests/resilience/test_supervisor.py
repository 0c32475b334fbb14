"""Unit tests for WorkerSupervisor failure typing and recovery.

These drive the supervisor against in-process fakes (no real worker
processes) so each failure mode — crash, hang, remote error, desync,
escalation — is exercised deterministically and fast. The end-to-end
recovery paths over real multiprocess workers live in
``test_scenario_resilience.py``.
"""

import os
import pickle
import threading
import time

import pytest

from repro.resilience import (
    RetryPolicy,
    SupervisionEscalation,
    WorkerCrash,
    WorkerDesync,
    WorkerHang,
    WorkerSupervisor,
)
from repro.resilience.supervisor import frame_pipe


class FakeConn:
    """Scripted pipe end: yields queued replies, EOFs when empty.

    The supervisor waits on ``fileno()`` with ``select.poll``, so the
    fake owns a real OS pipe holding one readiness byte per scripted
    reply: poll sees exactly as many pending messages as the script
    has left. Replies and commands cross as pickled frames, as on a
    real worker connection.
    """

    def __init__(self, replies=()):
        self.replies = list(replies)
        self.sent = []
        self.closed = False
        self._read_fd, self._write_fd = os.pipe()
        os.write(self._write_fd, b"x" * len(self.replies))

    def fileno(self):
        return self._read_fd

    def recv_bytes(self):
        if not self.replies:
            raise EOFError("script exhausted")
        os.read(self._read_fd, 1)
        item = self.replies.pop(0)
        if isinstance(item, BaseException):
            raise item
        return pickle.dumps(item)

    def send_bytes(self, data):
        self.sent.append(pickle.loads(data))

    def close(self):
        if not self.closed:
            os.close(self._read_fd)
            os.close(self._write_fd)
        self.closed = True

    def __del__(self):
        self.close()


class FakeProc:
    def __init__(self, alive=True):
        self._alive = alive
        self.pid = 4242
        self.exitcode = None if alive else -9

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        pass

    def terminate(self):
        self._alive = False

    def kill(self):
        self._alive = False


def fast_policy(attempts=2):
    return RetryPolicy(max_attempts=attempts, base_backoff_s=0.0, jitter=0.0)


def make_supervisor(spawn, **kwargs):
    kwargs.setdefault("policy", fast_policy())
    kwargs.setdefault("epoch_timeout_s", 0.2)
    kwargs.setdefault("heartbeat_interval_s", 0.05)
    return WorkerSupervisor(spawn, owned=[[0, 1]], **kwargs)


# ----------------------------------------------------------------------
# Failure classification in _recv
# ----------------------------------------------------------------------

def launched(conn, proc):
    """A supervisor whose worker 0 was launched on ``(conn, proc)``, so
    its reply poller watches the fake's pipe."""
    supervisor = make_supervisor(lambda i: (conn, proc))
    handle = supervisor.workers[0]
    supervisor._launch(handle)
    return supervisor, handle


def test_silent_live_worker_is_a_hang_with_missed_heartbeats():
    supervisor, handle = launched(FakeConn(), FakeProc(alive=True))
    with pytest.raises(WorkerHang, match="no heartbeats"):
        supervisor._recv(handle)
    assert supervisor.heartbeats_missed > 0


def test_heartbeating_but_unresponsive_worker_is_a_livelock_hang():
    conn = FakeConn([("hb",)] * 100)
    supervisor, handle = launched(conn, FakeProc(alive=True))
    with pytest.raises(WorkerHang, match="livelock"):
        supervisor._recv(handle)


def test_dead_process_is_a_crash_not_a_hang():
    supervisor, handle = launched(FakeConn(), FakeProc(alive=False))
    with pytest.raises(WorkerCrash, match="process died"):
        supervisor._recv(handle)


def test_eof_is_a_crash():
    conn = FakeConn([EOFError("peer gone")])
    supervisor, handle = launched(conn, FakeProc(alive=True))
    with pytest.raises(WorkerCrash, match="pipe closed"):
        supervisor._recv(handle)


def test_remote_error_reply_carries_the_worker_traceback():
    conn = FakeConn([
        ("error", {"worker": 0, "epoch": 7, "traceback": "Traceback: boom"}),
    ])
    supervisor, handle = launched(conn, FakeProc(alive=True))
    with pytest.raises(WorkerCrash) as info:
        supervisor._recv(handle)
    assert info.value.epoch == 7
    assert "Traceback: boom" in str(info.value)
    assert "worker traceback" in str(info.value)


def test_heartbeats_are_swallowed_before_the_real_reply():
    conn = FakeConn([("hb",), ("hb",), ("done", {}, None, {})])
    supervisor, handle = launched(conn, FakeProc(alive=True))
    assert supervisor._recv(handle)[0] == "done"


def test_poller_wakes_on_a_real_pipe_reply_and_on_peer_close():
    """The launch-time poller over a real frame socket pair: a reply
    sent by the peer is read back as one pickled frame, and closing
    the peer end is a crash, not a hang."""
    parent_end, child_end = frame_pipe()
    supervisor, handle = launched(parent_end, FakeProc(alive=True))
    supervisor._send(handle, ("epoch", [(0.5, False)], ()))
    assert pickle.loads(child_end.recv_bytes()) == (
        "epoch", [(0.5, False)], (),
    )
    child_end.send_bytes(pickle.dumps(("done", {0: 0.5}, None, {})))
    assert supervisor._recv(handle) == ("done", {0: 0.5}, None, {})
    child_end.close()
    with pytest.raises(WorkerCrash, match="pipe closed"):
        supervisor._recv(handle)
    supervisor.shutdown()


def test_heartbeat_coalesced_with_a_reply_is_read_frame_by_frame():
    """A heartbeat and a reply can land in the socket together; the
    reader takes one frame at a time, so poll still reports the reply
    after the heartbeat was consumed."""
    parent_end, child_end = frame_pipe()
    supervisor, handle = launched(parent_end, FakeProc(alive=True))
    child_end.send_bytes(pickle.dumps(("hb",)))
    child_end.send_bytes(pickle.dumps(("done", {0: 1.0}, None, {})))
    assert supervisor._recv(handle) == ("done", {0: 1.0}, None, {})
    big = ("done", {0: 2.0}, ({1: 2.0}, {1: b"x" * 3_000_000}), {})
    sender = threading.Thread(
        target=child_end.send_bytes, args=(pickle.dumps(big),)
    )
    sender.start()
    assert supervisor._recv(handle) == big
    sender.join()
    child_end.close()
    supervisor.shutdown()


def test_zero_heartbeat_interval_waits_without_counting_misses():
    """Interval 0 means workers send no heartbeats: the supervisor
    must not busy-poll and count a miss per spin, yet a silent worker
    is still a hang at the epoch timeout."""
    conn, proc = FakeConn(), FakeProc(alive=True)
    supervisor = make_supervisor(
        lambda i: (conn, proc), heartbeat_interval_s=0
    )
    handle = supervisor.workers[0]
    supervisor._launch(handle)
    started = time.monotonic()
    with pytest.raises(WorkerHang, match="no heartbeats"):
        supervisor._recv(handle)
    assert time.monotonic() - started >= 0.15
    assert supervisor.heartbeats_missed == 0


def test_zero_heartbeat_interval_still_returns_replies():
    conn = FakeConn([("done", {}, None, {})])
    supervisor = make_supervisor(
        lambda i: (conn, FakeProc()), heartbeat_interval_s=0
    )
    handle = supervisor.workers[0]
    supervisor._launch(handle)
    assert supervisor._recv(handle)[0] == "done"
    assert supervisor.heartbeats_missed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"heartbeat_interval_s": -0.5},
        {"epoch_timeout_s": 0},
        {"epoch_timeout_s": -1.0},
    ],
)
def test_supervisor_refuses_timings_that_disable_hang_detection(kwargs):
    with pytest.raises(ValueError):
        make_supervisor(lambda i: (FakeConn(), FakeProc()), **kwargs)


# ----------------------------------------------------------------------
# Typed failure metadata
# ----------------------------------------------------------------------

def test_failures_carry_worker_domains_and_epoch():
    failure = WorkerCrash(3, [6, 7], 12, detail="gone")
    assert failure.worker == 3
    assert failure.domains == [6, 7]
    assert failure.epoch == 12
    message = str(failure)
    assert "worker 3" in message and "[6, 7]" in message and "epoch 12" in message
    assert WorkerHang.kind == "hung"
    assert WorkerDesync.kind == "desynchronized"


# ----------------------------------------------------------------------
# Recovery: respawn + replay + escalation
# ----------------------------------------------------------------------

def test_recovery_replays_history_and_resends_inflight_command():
    """After a crash the respawned worker must see: ready handshake,
    every completed epoch it took part in (digest-identical), then the
    in-flight command again. Epochs it sat out are not resent."""
    digests = {0: ("d0", 5), 1: ("d1", 6)}
    respawned = FakeConn([
        ("ready", {0: 0.1, 1: 0.2}),
        ("done", {0: 0.3, 1: 0.4}, None, digests),   # replayed epoch 0
        ("done", {0: 0.5, 1: 0.6}, None, digests),   # re-sent in-flight epoch
    ])
    supervisor = make_supervisor(lambda i: (respawned, FakeProc()))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = FakeConn(), FakeProc(alive=False)
    handle.completed = 2
    handle.last_digests = dict(digests)
    # History entries are (payload, mail): the shared window vector
    # plus the private mail of each worker that took part. Worker 0
    # took part in epoch 0 and sat out epoch 1.
    supervisor._history.append(([(0.3, False)], {0: (b"m0",)}))
    supervisor._history.append(([(0.4, False)], {}))
    inflight = ("epoch", [(0.5, False)], (b"m1",))
    failure = WorkerCrash(0, [0, 1], 2, detail="killed")
    reply = supervisor._handle_failure(handle, failure, resend=inflight)
    assert reply[0] == "done"
    assert supervisor.workers_restarted == 1
    assert supervisor.retries == 1
    # Replay first, then the in-flight command, in order.
    assert respawned.sent == [("epoch", [(0.3, False)], (b"m0",)), inflight]


def test_replay_digest_mismatch_is_a_desync():
    good = {0: ("d0", 5), 1: ("d1", 6)}
    bad = {0: ("DIFFERENT", 5), 1: ("d1", 6)}
    respawned = FakeConn([
        ("ready", {0: 0.1, 1: 0.2}),
        ("done", {0: 0.3, 1: 0.4}, None, bad),
    ])
    supervisor = make_supervisor(
        lambda i: (respawned, FakeProc()), policy=fast_policy(attempts=1)
    )
    handle = supervisor.workers[0]
    handle.conn, handle.proc = FakeConn(), FakeProc(alive=False)
    handle.completed = 1
    handle.last_digests = good
    supervisor._history.append(([(0.3, False)], {0: (b"m0",)}))
    with pytest.raises(SupervisionEscalation) as info:
        supervisor._handle_failure(
            handle, WorkerCrash(0, [0, 1], 1),
            resend=("epoch", [(0.5, False)], ()),
        )
    assert isinstance(info.value.last, WorkerDesync)


def test_replay_event_count_mismatch_is_a_desync():
    good = {0: ("d0", 5)}
    same_digest_wrong_count = {0: ("d0", 99)}
    respawned = FakeConn([
        ("ready", {0: 0.1}),
        ("done", {0: 0.3}, None, same_digest_wrong_count),
    ])
    supervisor = make_supervisor(
        lambda i: (respawned, FakeProc()), policy=fast_policy(attempts=1)
    )
    handle = supervisor.workers[0]
    handle.conn, handle.proc = FakeConn(), FakeProc(alive=False)
    handle.completed = 1
    handle.last_digests = good
    supervisor._history.append(([(0.3, False)], {0: ()}))
    with pytest.raises(SupervisionEscalation) as info:
        supervisor._handle_failure(
            handle, WorkerCrash(0, [0, 1], 1),
            resend=("epoch", [(0.5, False)], ()),
        )
    assert isinstance(info.value.last, WorkerDesync)


def test_run_epoch_sends_only_to_named_workers_and_counts_every_epoch():
    """Workers missing from the epoch's mail map sit it out: they get
    no command, keep their last answer, and still count the epoch so
    a later replay walks the right history prefix."""
    quiet = FakeConn()
    busy = FakeConn([("done", {1: 0.7}, None, {1: ("d1", 3)})])
    conns = {0: (quiet, FakeProc()), 1: (busy, FakeProc())}
    supervisor = WorkerSupervisor(
        lambda i: conns[i], owned=[[0], [1]], policy=fast_policy(),
        epoch_timeout_s=0.2, heartbeat_interval_s=0.05,
    )
    for handle in supervisor.workers:
        supervisor._launch(handle)
    supervisor.workers[0].last_digests = {0: ("d0", 1)}
    replies = supervisor.run_epoch([(0.5, False), (0.5, False)], {1: ()})
    assert list(replies) == [1]
    assert quiet.sent == []
    assert busy.sent == [("epoch", [(0.5, False), (0.5, False)], ())]
    assert [h.completed for h in supervisor.workers] == [1, 1]
    assert supervisor.workers[0].last_digests == {0: ("d0", 1)}
    assert supervisor.workers[1].last_digests == {1: ("d1", 3)}
    assert supervisor._history == [
        ([(0.5, False), (0.5, False)], {1: ()}),
    ]


def test_escalation_counts_every_attempt_and_carries_counters():
    """A spawn that always dies exhausts the retry budget; the
    escalation must record the attempts and expose the supervisor's
    counters for the degraded run's report."""
    supervisor = make_supervisor(
        lambda i: (FakeConn(), FakeProc(alive=False)),
        policy=fast_policy(attempts=3),
    )
    handle = supervisor.workers[0]
    handle.conn, handle.proc = FakeConn(), FakeProc(alive=False)
    with pytest.raises(SupervisionEscalation) as info:
        supervisor._handle_failure(
            handle, WorkerCrash(0, [0, 1], 0), resend=None
        )
    escalation = info.value
    assert escalation.attempts == 3
    assert supervisor.retries == 3
    assert escalation.counters["retries"] == 3
    assert escalation.counters["workers_restarted"] == 3
    assert "workers_restarted" in escalation.counters
    assert "heartbeats_missed" in escalation.counters


def test_shutdown_reaps_and_closes_everything():
    conn, proc = FakeConn(), FakeProc(alive=True)
    supervisor = make_supervisor(lambda i: (conn, proc))
    handle = supervisor.workers[0]
    handle.conn, handle.proc = conn, proc
    supervisor.shutdown()
    assert conn.closed
    assert not proc.is_alive()
    assert handle.proc is None and handle.conn is None
