"""Worker-kill recovery digest pin: ``chaos_recovery('short',
workers=2)`` SIGKILLs a multiprocess worker at the midpoint epoch of a
churned dumbbell run and checks that the recovered run reproduces the
fault-free baseline. The literal below was recorded before the
multiprocess backend stopped rebuilding workers from the spec; the
baseline and the recovered run must both keep reproducing it, and so
must the committed ``BENCH_chaos_recovery.json`` manifest."""

import json
import pathlib

from repro.bench.scenarios import chaos_recovery

PINNED_DIGEST = (
    "36240ecf604bb83f46f5a3644fdb2cbba559fe53f5eb258a7da905ef5e5aceb0"
)
PINNED_EVENTS = 8127
MANIFEST = pathlib.Path(__file__).parents[2] / "BENCH_chaos_recovery.json"


def test_chaos_recovery_reproduces_the_pinned_digest():
    result = chaos_recovery("short", workers=2)
    assert result.digest == PINNED_DIGEST
    assert result.extras["baseline_events"] == PINNED_EVENTS
    assert result.extras["restarts[w=2]"] >= 1


def test_committed_chaos_manifest_carries_the_pinned_digest():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["digest"] == PINNED_DIGEST
    assert manifest["extras"]["baseline_events"] == PINNED_EVENTS
