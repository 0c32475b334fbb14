"""Digest-fold equivalence across kernels and mechanisms.

The digest contract has one byte stream and three producers:

* the sanitizer's :class:`DomainProbe` (the audited yardstick),
* the scalar kernel's observer fold (``enable_digest`` installs the
  probe machinery: per-event hook, callsite recomputed per event),
* the optimized kernels' inline fold (callsite bytes memoized, hash
  fed in joined chunks).

These tests pin all three to the same bytes, on the same workloads,
including partial-wrapped and bound-method callsites and runs ended
by stop(), limit, and a raising callback.
"""

import functools

import pytest

from repro.check.sanitize import DomainProbe, _callsite
from repro.core.kernel import KERNELS
from repro.engine.domain import _callsite_reference
from repro.engine.simulator import Simulator


def _module_fn():
    pass


class _Thing:
    def method(self):
        pass


def _drive(sim):
    """A workload mixing every schedulable shape: anonymous post()
    entries, Event-carrying at()/schedule() entries, cancellations,
    bound methods, and partials."""
    thing = _Thing()
    state = {"hops": 0}

    def hop():
        state["hops"] += 1
        if state["hops"] < 40:
            sim.post(sim.now + 1e-4, hop)

    sim.post(0.0, hop)
    sim.at(1e-3, thing.method)
    sim.at(2e-3, functools.partial(functools.partial(_module_fn)))
    cancelled = sim.at(3e-3, _module_fn)
    cancelled.cancel()
    sim.schedule(4e-3, _module_fn)
    sim.run(until=0.05)


# ----------------------------------------------------------------------
# Callsite encodings
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fn", [
    _module_fn,
    _Thing().method,
    functools.partial(_module_fn),
    functools.partial(functools.partial(_Thing().method)),
    lambda: None,
])
def test_callsite_encoders_agree(fn):
    sim = Simulator()
    expected = _callsite(fn).encode()
    assert _callsite_reference(fn) == expected
    assert sim._callsite_bytes(fn) == expected
    # Second call exercises the memo hit.
    assert sim._callsite_bytes(fn) == expected


# ----------------------------------------------------------------------
# Native digest == sanitizer probe, for every kernel
# ----------------------------------------------------------------------

def _probe_digest(kernel):
    sim = Simulator(kernel=kernel)
    probe = DomainProbe(0, keep_records=False).attach(sim)
    _drive(sim)
    return probe.hexdigest()


def _native_digest(kernel):
    sim = Simulator(kernel=kernel)
    sim.enable_digest()
    _drive(sim)
    return sim.digest_hexdigest()


def test_native_digest_matches_probe_on_every_kernel():
    expected = _probe_digest("scalar")
    for kernel in KERNELS:
        assert _probe_digest(kernel) == expected
        assert _native_digest(kernel) == expected


def test_scalar_observer_does_not_double_fold():
    # If the scalar observer and the step() inline fold both fired,
    # every event would be hashed twice and this equality would break.
    assert _native_digest("scalar") == _native_digest("batched")


# ----------------------------------------------------------------------
# Every exit path flushes the chunked fold
# ----------------------------------------------------------------------

class _Boom(RuntimeError):
    pass


def _interrupted_digest(kernel, events_before_boom):
    sim = Simulator(kernel=kernel)
    count = {"n": 0}

    def tick():
        count["n"] += 1
        if count["n"] == events_before_boom:
            raise _Boom()
        sim.post(sim.now + 1e-5, tick)

    sim.post(0.0, tick)
    sim.enable_digest()
    with pytest.raises(_Boom):
        sim.run()
    return sim.digest_hexdigest()


@pytest.mark.parametrize("events_before_boom", [1, 7, 100])
def test_raising_callback_flushes_identically(events_before_boom):
    digests = {
        k: _interrupted_digest(k, events_before_boom)
        for k in KERNELS
    }
    assert len(set(digests.values())) == 1, digests


def test_stop_flushes_identically():
    def run(kernel):
        sim = Simulator(kernel=kernel)
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] >= 50:
                sim.stop()
            else:
                sim.post(sim.now + 1e-5, tick)

        sim.post(0.0, tick)
        sim.enable_digest()
        sim.run()
        return sim.digest_hexdigest()

    digests = {k: run(k) for k in KERNELS}
    assert len(set(digests.values())) == 1, digests
