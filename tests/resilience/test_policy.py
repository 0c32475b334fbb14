"""Tests for retry policy and budget guards (repro.resilience.policy)."""

import time

import pytest

from repro.resilience import (
    BudgetExceeded,
    BudgetGuard,
    ResilienceConfig,
    RetryPolicy,
    RunAborted,
)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

def test_backoff_is_seeded_and_reproducible():
    a = [RetryPolicy(seed=5).backoff_s(i) for i in (1, 2, 3)]
    b = [RetryPolicy(seed=5).backoff_s(i) for i in (1, 2, 3)]
    assert a == b
    c = [RetryPolicy(seed=6).backoff_s(i) for i in (1, 2, 3)]
    assert a != c


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(
        base_backoff_s=0.1, max_backoff_s=0.5, jitter=0.0, seed=0
    )
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.4)
    assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
    assert policy.backoff_s(10) == pytest.approx(0.5)


def test_jitter_stays_within_band():
    policy = RetryPolicy(
        base_backoff_s=0.1, max_backoff_s=10.0, jitter=0.5, seed=1
    )
    for _ in range(50):
        delay = policy.backoff_s(1)
        assert 0.1 <= delay <= 0.15


def test_max_attempts_must_be_positive():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_sleep_returns_the_delay():
    policy = RetryPolicy(base_backoff_s=0.0, jitter=0.0)
    assert policy.sleep(1) == 0.0


# ----------------------------------------------------------------------
# BudgetGuard
# ----------------------------------------------------------------------

def test_inactive_guard_never_raises():
    guard = BudgetGuard()
    assert not guard.active
    guard.start()
    guard.check(events=10**12)


def test_event_budget_raises_with_reason_and_observed():
    guard = BudgetGuard(max_events=100).start()
    guard.check(events=99)
    with pytest.raises(BudgetExceeded) as info:
        guard.check(events=100)
    assert info.value.reason == "max_events"
    assert info.value.limit == 100
    assert info.value.observed == 100


def test_wall_budget_raises_after_deadline():
    guard = BudgetGuard(max_wall_s=0.01).start()
    time.sleep(0.02)
    with pytest.raises(BudgetExceeded) as info:
        guard.check()
    assert info.value.reason == "max_wall"


def test_rss_budget_sees_this_process():
    guard = BudgetGuard(max_rss_bytes=1).start()
    assert guard.rss_bytes() > 1024  # any real process is bigger than 1 KB
    with pytest.raises(BudgetExceeded) as info:
        guard.check()
    assert info.value.reason == "max_rss"


def test_rss_of_dead_pid_is_zero():
    from repro.resilience.policy import _read_rss_bytes

    # PIDs wrap at /proc/sys/kernel/pid_max; 2**22 is past the default.
    assert _read_rss_bytes(2**22 + 1) == 0


# ----------------------------------------------------------------------
# ResilienceConfig
# ----------------------------------------------------------------------

def test_config_budget_converts_mb_to_bytes():
    config = ResilienceConfig(max_rss_mb=2.0, max_events=7)
    guard = config.budget()
    assert guard.max_rss_bytes == 2 * 1024 * 1024
    assert guard.max_events == 7
    assert guard.max_wall_s is None


def test_config_retry_policy_carries_attempts_and_seed():
    config = ResilienceConfig(max_attempts=5, backoff_base_s=0.01)
    policy = config.retry_policy(seed=3)
    assert policy.max_attempts == 5
    assert policy.base_backoff_s == 0.01
    assert policy.backoff_s(1) == RetryPolicy(
        base_backoff_s=0.01, seed=3
    ).backoff_s(1)


def test_run_aborted_carries_reason_and_report():
    error = RunAborted("max_wall", report={"partial": True}, detail="5s > 2s")
    assert error.reason == "max_wall"
    assert error.report == {"partial": True}
    assert "max_wall" in str(error) and "5s > 2s" in str(error)


def test_call_returns_first_success_without_sleeping():
    policy = RetryPolicy(max_attempts=3, base_backoff_s=10.0)
    start = time.perf_counter()
    assert policy.call(lambda: "done") == "done"
    assert time.perf_counter() - start < 1.0


def test_call_retries_until_success_and_reports_attempts():
    policy = RetryPolicy(max_attempts=3, base_backoff_s=0.0, jitter=0.0)
    attempts = []
    state = {"n": 0}

    def flaky():
        state["n"] += 1
        if state["n"] < 3:
            raise RuntimeError(f"boom {state['n']}")
        return state["n"]

    result = policy.call(
        flaky, on_retry=lambda attempt, exc: attempts.append((attempt, str(exc)))
    )
    assert result == 3
    assert attempts == [(1, "boom 1"), (2, "boom 2")]


def test_call_raises_after_exhausting_attempts():
    policy = RetryPolicy(max_attempts=2, base_backoff_s=0.0, jitter=0.0)
    with pytest.raises(RuntimeError, match="persistent"):
        policy.call(lambda: (_ for _ in ()).throw(RuntimeError("persistent")))


def test_call_only_retries_listed_exception_types():
    policy = RetryPolicy(max_attempts=3, base_backoff_s=0.0, jitter=0.0)
    calls = {"n": 0}

    def raises_key_error():
        calls["n"] += 1
        raise KeyError("not retryable here")

    with pytest.raises(KeyError):
        policy.call(raises_key_error, retryable=(ValueError,))
    assert calls["n"] == 1  # non-retryable exceptions propagate immediately


# ----------------------------------------------------------------------
# Supervision timings
# ----------------------------------------------------------------------

def test_config_accepts_zero_heartbeat_interval():
    assert ResilienceConfig(heartbeat_interval_s=0).heartbeat_interval_s == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"heartbeat_interval_s": -0.5},
        {"epoch_timeout_s": 0.0},
        {"epoch_timeout_s": -3.0},
    ],
)
def test_config_refuses_timings_that_disable_hang_detection(kwargs):
    with pytest.raises(ValueError):
        ResilienceConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"heartbeat_interval": -0.5},
        {"epoch_timeout": 0},
        {"epoch_timeout": -1.0},
    ],
)
def test_scenario_resilience_refuses_bad_timings_and_keeps_its_config(kwargs):
    from repro.api import Scenario
    from repro.topology import dumbbell_topology

    scenario = Scenario.from_topology(dumbbell_topology(2)).resilience(
        epoch_timeout=5.0, heartbeat_interval=0.25
    )
    with pytest.raises(ValueError):
        scenario.resilience(**kwargs)
    assert scenario._resilience.epoch_timeout_s == 5.0
    assert scenario._resilience.heartbeat_interval_s == 0.25
