"""Retry policy and resource-budget guards for supervised runs.

This module is deliberately *outside* the simulation scope
(``SIM_PACKAGES`` in :mod:`repro.check.lint`): everything here reads
wall clocks and process tables on purpose. Nothing in this module may
influence the virtual event stream — budgets and backoff decide *when
to stop or retry*, never *what the simulation computes* — which is why
a budget abort, a worker restart, or a degraded rerun all leave the
composed digest byte-identical to an undisturbed run.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.engine.randomness import RngRegistry

__all__ = [
    "ResilienceError",
    "BudgetExceeded",
    "RunAborted",
    "RetryPolicy",
    "BudgetGuard",
    "ResilienceConfig",
    "check_supervision_timing",
]


class ResilienceError(RuntimeError):
    """Base class for every failure the resilience layer reports."""


class BudgetExceeded(ResilienceError):
    """A resource budget (wall clock, RSS, or event count) ran out.

    ``reason`` is one of ``max_wall`` / ``max_rss`` / ``max_events`` and
    is recorded verbatim in the partial RunReport's ``run.outcome``.
    """

    def __init__(self, reason: str, limit: float, observed: float) -> None:
        self.reason = reason
        self.limit = limit
        self.observed = observed
        super().__init__(
            f"budget exhausted: {reason} (limit {limit:g}, observed {observed:g})"
        )


class RunAborted(ResilienceError):
    """A run stopped before ``until`` but flushed a partial report.

    Raised to the caller of :meth:`repro.api.Scenario.run` so the CLI
    can exit nonzero; ``report`` carries the partial RunReport with
    ``run.outcome`` and the resilience counters already filled in.
    """

    def __init__(self, reason: str, report=None, detail: str = "") -> None:
        self.reason = reason
        self.report = report
        msg = f"run aborted: {reason}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    The jitter stream comes from :class:`RngRegistry` so that two runs
    with the same seed sleep the same (wall-clock) intervals — the
    *schedule* of recovery attempts is reproducible even though the
    failures themselves are not. Backoff never touches virtual time.
    """

    def __init__(
        self,
        max_attempts: int = 2,
        base_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = int(max_attempts)
        self.base_backoff_s = float(base_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.jitter = float(jitter)
        self._rng = RngRegistry(seed).stream("resilience-backoff")

    def backoff_s(self, attempt: int) -> float:
        """Sleep interval before retry ``attempt`` (1-based)."""
        base = self.base_backoff_s * (2.0 ** max(0, attempt - 1))
        jittered = base * (1.0 + self.jitter * self._rng.random())
        return min(jittered, self.max_backoff_s)

    def sleep(self, attempt: int) -> float:
        delay = self.backoff_s(attempt)
        if delay > 0:
            time.sleep(delay)
        return delay

    def call(self, fn, retryable=(Exception,), on_retry=None):
        """Run ``fn()`` under this policy: up to ``max_attempts``
        calls, backing off between them.

        Only exceptions matching ``retryable`` are retried; anything
        else propagates immediately, as does the final failure.
        ``on_retry(attempt, exc)`` fires before each backoff sleep —
        the sweep runner uses it to count retries in run reports.
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retryable as exc:
                if attempt >= self.max_attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleep(attempt)


def _read_rss_bytes(pid: Optional[int] = None) -> int:
    """Resident set size of ``pid`` (default: this process), bytes.

    Prefers ``/proc/<pid>/status`` (current RSS, works for children);
    falls back to ``ru_maxrss`` for the calling process on platforms
    without procfs. Returns 0 for processes that already exited.
    """
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path, "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        if pid is not None:
            return 0
    try:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    except (ValueError, OSError):
        return 0
    # ru_maxrss is KB on Linux, bytes on macOS.
    scale = 1024 if os.uname().sysname == "Linux" else 1
    return int(usage.ru_maxrss) * scale


class BudgetGuard:
    """Aborts a run when wall clock, RSS, or event budgets run out.

    ``check()`` is called at epoch barriers (partitioned backends) or
    virtual-time chunk marks (single-domain runs) — deterministic
    points in the event stream, so a ``max_events`` abort always cuts
    at the same barrier for the same seed. Wall and RSS cutoffs are
    inherently wall-clock dependent; they abort *cleanly* (partial
    report, workers reaped) but not at a reproducible barrier.
    """

    RSS_POLL_INTERVAL_S = 0.2

    def __init__(
        self,
        max_wall_s: Optional[float] = None,
        max_rss_bytes: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.max_wall_s = max_wall_s
        self.max_rss_bytes = max_rss_bytes
        self.max_events = max_events
        self._t0: Optional[float] = None
        self._last_rss_poll = -1e9
        self._last_rss = 0

    @property
    def active(self) -> bool:
        return (
            self.max_wall_s is not None
            or self.max_rss_bytes is not None
            or self.max_events is not None
        )

    def start(self) -> "BudgetGuard":
        self._t0 = time.perf_counter()
        return self

    def wall_s(self) -> float:
        if self._t0 is None:
            return 0.0
        return time.perf_counter() - self._t0

    def rss_bytes(self, pids: Sequence[int] = ()) -> int:
        total = _read_rss_bytes()
        for pid in pids:
            total += _read_rss_bytes(pid)
        return total

    def check(self, events: Optional[int] = None, pids: Sequence[int] = ()) -> None:
        """Raise :class:`BudgetExceeded` if any budget is exhausted."""
        if self.max_events is not None and events is not None:
            if events >= self.max_events:
                raise BudgetExceeded("max_events", self.max_events, events)
        if self.max_wall_s is not None:
            wall = self.wall_s()
            if wall >= self.max_wall_s:
                raise BudgetExceeded("max_wall", self.max_wall_s, wall)
        if self.max_rss_bytes is not None:
            now = time.perf_counter()
            if now - self._last_rss_poll >= self.RSS_POLL_INTERVAL_S:
                self._last_rss_poll = now
                self._last_rss = self.rss_bytes(pids)
            if self._last_rss >= self.max_rss_bytes:
                raise BudgetExceeded(
                    "max_rss", self.max_rss_bytes, self._last_rss
                )


def check_supervision_timing(
    epoch_timeout_s: float, heartbeat_interval_s: float
) -> None:
    """Refuse supervision timings that would silently disable hang
    detection: the epoch timeout must be positive, and the heartbeat
    interval non-negative (0 switches heartbeats off; the supervisor
    then waits for each reply until the epoch timeout)."""
    if not epoch_timeout_s > 0:
        raise ValueError(
            f"epoch timeout must be positive, got {epoch_timeout_s!r}"
        )
    if not heartbeat_interval_s >= 0:
        raise ValueError(
            "heartbeat interval must be >= 0 (0 disables heartbeats), "
            f"got {heartbeat_interval_s!r}"
        )


@dataclass
class ResilienceConfig:
    """Everything `Scenario.resilience()` / the CLI flags can set.

    Parent-side only: none of these knobs enter the ``ScenarioSpec``
    or the workers' builds, so toggling them never changes digests.
    """

    checkpoint_every_s: Optional[float] = None
    checkpoint_path: Optional[str] = None
    max_wall_s: Optional[float] = None
    max_rss_mb: Optional[float] = None
    max_events: Optional[int] = None
    epoch_timeout_s: float = 30.0
    heartbeat_interval_s: float = 0.5
    max_attempts: int = 2
    backoff_base_s: float = 0.05
    degrade: bool = True
    # Deterministic fault-injection hook for tests/benchmarks:
    # (epoch_index, worker_index) to signal just before that epoch.
    chaos_kill: Optional[Tuple[int, int]] = None
    chaos_signal: int = 9  # SIGKILL
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_supervision_timing(self.epoch_timeout_s, self.heartbeat_interval_s)

    def budget(self) -> BudgetGuard:
        rss = None
        if self.max_rss_mb is not None:
            rss = int(self.max_rss_mb * 1024 * 1024)
        return BudgetGuard(
            max_wall_s=self.max_wall_s,
            max_rss_bytes=rss,
            max_events=self.max_events,
        )

    def retry_policy(self, seed: int = 0) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.max_attempts,
            base_backoff_s=self.backoff_base_s,
            seed=seed,
        )
