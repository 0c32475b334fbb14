"""Multiprocess runs where workers sit idle for many epochs.

The parent sends an epoch only to workers with work, mail or a fault
due in it; the others keep their last answer. These tests confine
traffic to half of an 8-router ring so that skipping happens on every
worker count, and hold the multiprocess backend to the serial
partitioned executor: same composed digest, event counts, routed mail
and epoch count, with and without a fault plan. A worker killed while
it was sitting an epoch out must recover through a digest-verified
replay of only the epochs it took part in.
"""

import pytest

from repro.api import Scenario
from repro.apps.netperf import TcpStream
from repro.check.sanitize import SimSanitizer
from repro.engine.parallel import run_multiprocess
from repro.faults import FaultPlan, LinkDown, LinkUp, Perturbation
from repro.resilience import RetryPolicy, WorkerSupervisor
from repro.topology import ring_topology

UNTIL = 0.2
#: Traffic stays between VNs bound to these domains (worker 0's half
#: at 2 workers); the other domains only see what transits them.
BUSY_DOMAINS = (0, 2)


def _half_ring(backend, faults=False, seed=7):
    def confined(emulation):
        side = sorted(
            vn.vn_id
            for vn in emulation.vns
            if emulation.domain_of_vn(vn.vn_id) in BUSY_DOMAINS
        )
        return [
            TcpStream(emulation, side[i], side[-1 - i])
            for i in range(len(side) // 2)
        ]

    scenario = (
        Scenario(ring_topology(num_routers=8, vns_per_router=2), name="half")
        .distill("hop-by-hop")
        .assign(4)
        .seed(seed)
        .observe(False)
        .backend(backend, domains=4)
    )
    scenario.traffic(confined)
    emulation = scenario.build()
    if faults:
        link = min(emulation.topology.links)
        emulation.install_fault_plan(
            FaultPlan.of(
                LinkDown(0.05, link),
                LinkUp(0.12, link),
                Perturbation(0.02, 0.16, 0.05, link_fraction=0.25),
                stream="idle-faults",
            )
        )
    return scenario


def _serial(faults):
    scenario = _half_ring("serial", faults)
    sanitizer = SimSanitizer().attach(scenario.sim)
    try:
        scenario.run(until=UNTIL)
    finally:
        sanitizer.detach()
    sim = scenario.sim
    return {
        "digest": sanitizer.digest,
        "events": sanitizer.dispatched,
        "by_domain": sim.events_by_domain(),
        "messages": sim.router.messages_routed,
        "epochs": sim.epochs,
        "faults": (
            scenario.emulation.fault_applier.counters()
            if faults else None
        ),
    }


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "faults"])
def serial_run(request):
    return request.param, _serial(request.param)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_multiprocess_matches_serial_while_workers_idle(
    monkeypatch, serial_run, workers
):
    faults, serial = serial_run
    active = _record_active_sets(monkeypatch)
    scenario = _half_ring("multiprocess", faults)
    barriers = []
    # An epoch hook keeps even one worker on the per-epoch barrier
    # loop (instead of the single-command fast path).
    result = run_multiprocess(
        scenario, until=UNTIL, workers=workers, sanitize=True,
        on_epoch=lambda index, horizon, digests, counts: barriers.append(index),
    )
    assert result.composed_digest == serial["digest"]
    assert result.events_dispatched == serial["events"]
    assert [
        result.events_by_domain[d] for d in range(4)
    ] == serial["by_domain"]
    assert result.messages_routed == serial["messages"] > 0
    assert result.epochs == serial["epochs"] == len(barriers) == len(active)
    taken = [sum(w in a for a in active) for w in range(workers)]
    assert all(n > 0 for n in taken)
    if workers > 1:
        # The scenario really exercises skipping.
        assert sum(taken) < workers * result.epochs
    if faults:
        counters = scenario.emulation.fault_applier.counters()
        assert counters == serial["faults"]
        assert counters["applied"] > 2


def _record_active_sets(monkeypatch):
    """Record the workers named in every epoch command."""
    active = []
    run_epoch = WorkerSupervisor.run_epoch

    def recording(self, payload, mail):
        active.append(sorted(mail))
        return run_epoch(self, payload, mail)

    monkeypatch.setattr(WorkerSupervisor, "run_epoch", recording)
    return active


def test_killing_a_skipped_worker_recovers_with_a_verified_replay(monkeypatch):
    active = _record_active_sets(monkeypatch)
    clean = run_multiprocess(
        _half_ring("multiprocess"), until=UNTIL, workers=2, sanitize=True
    )
    victim = 1
    # First epoch the victim sits out after having taken part in an
    # earlier one (so the replay has something to verify) and before
    # it takes part again (so recovery happens mid-run).
    kill_at = next(
        e
        for e in range(1, len(active))
        if victim not in active[e]
        and any(victim in a for a in active[:e])
        and any(victim in a for a in active[e + 1:])
    )

    import repro.check.sanitize as sanitize_module

    compares = []
    diff = sanitize_module.diff_domain_digests

    def recording_diff(expected, actual):
        bad = diff(expected, actual)
        compares.append((dict(expected), bad))
        return bad

    monkeypatch.setattr(sanitize_module, "diff_domain_digests", recording_diff)
    active.clear()
    chaos = run_multiprocess(
        _half_ring("multiprocess"), until=UNTIL, workers=2, sanitize=True,
        policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0, jitter=0.0),
        chaos_kill=(kill_at, victim),
    )
    assert victim not in active[kill_at]
    assert chaos.workers_restarted == 1
    assert chaos.composed_digest == clean.composed_digest
    assert chaos.events_dispatched == clean.events_dispatched
    assert chaos.messages_routed == clean.messages_routed
    assert chaos.epochs == clean.epochs
    # The replay compared the victim's pre-crash digests and agreed.
    assert len(compares) == 1
    expected, bad = compares[0]
    assert sorted(expected) == [1, 3] and bad == []


@pytest.mark.parametrize("workers", [2, 3])
def test_mail_holders_and_fault_barriers_are_never_skipped(monkeypatch, workers):
    """The skip rules, checked epoch by epoch on the commands actually
    sent: a worker that received mail in the previous epoch's replies
    (local mail included) takes part in the next epoch, and an epoch
    whose barrier reaches a fault occurrence goes to every worker."""
    from repro.engine.sync import fault_barrier

    epochs = []
    run_epoch = WorkerSupervisor.run_epoch

    def recording(self, payload, mail):
        replies = run_epoch(self, payload, mail)
        epochs.append((fault_barrier(payload), set(mail), replies))
        return replies

    monkeypatch.setattr(WorkerSupervisor, "run_epoch", recording)
    scenario = _half_ring("multiprocess", faults=True)
    occurrences = list(scenario.emulation.fault_applier.occurrence_times())
    run_multiprocess(scenario, until=UNTIL, workers=workers)
    everyone = set(range(workers))
    owner = [d % workers for d in range(4)]
    expects_mail = set()
    cursor = 0
    local_mail_seen = skipped = 0
    for barrier, active, replies in epochs:
        assert expects_mail <= active
        if cursor < len(occurrences) and occurrences[cursor] <= barrier:
            assert active == everyone
            while cursor < len(occurrences) and occurrences[cursor] <= barrier:
                cursor += 1
        skipped += len(everyone - active)
        expects_mail = set()
        for w, reply in replies.items():
            if reply[2] is not None:
                for d in reply[2][0]:
                    expects_mail.add(owner[d])
                    local_mail_seen += owner[d] == w
    assert cursor == len(occurrences)
    assert skipped > 0
    if workers == 2:
        # Worker 0 owns both busy domains, so it mails itself.
        assert local_mail_seen > 0
