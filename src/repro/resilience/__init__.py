"""repro.resilience — supervised execution for long-running emulations.

ModelNet's purpose for dynamic faults is to "identify conditions under
which services will fail" (paper §4.3); this package makes sure the
*harness* is not the thing that fails. It provides:

* :class:`~repro.resilience.supervisor.WorkerSupervisor` — heartbeat
  monitoring, typed failure classification (crash / hang / desync),
  and digest-verified deterministic recovery of multiprocess epoch
  workers by fork-and-replay from the parent's never-run emulation;
* :class:`~repro.resilience.policy.RetryPolicy` and graceful
  degradation from the multiprocess backend to serial partitioned
  execution (identical digests by construction);
* :mod:`~repro.resilience.checkpoint` — checkpoint/resume by verified
  deterministic replay (``repro-net run --checkpoint-every/--resume``);
* :class:`~repro.resilience.policy.BudgetGuard` — ``--max-wall`` /
  ``--max-rss`` / ``--max-events`` cutoffs that abort cleanly with a
  partial RunReport (``run.outcome = aborted``).

Nothing in this package runs inside virtual time: supervision,
budgets, and checkpoints observe the event stream at barriers but
never perturb it, so every resilience feature is digest-neutral.
"""

from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointDivergence,
    CheckpointError,
    CheckpointWriter,
    ResumeVerifier,
    load_checkpoint,
    rng_stream_states,
    write_checkpoint,
)
from repro.resilience.policy import (
    BudgetExceeded,
    BudgetGuard,
    ResilienceConfig,
    ResilienceError,
    RetryPolicy,
    RunAborted,
)
from repro.resilience.supervisor import (
    SupervisionEscalation,
    WorkerCrash,
    WorkerDesync,
    WorkerFailure,
    WorkerHandle,
    WorkerHang,
    WorkerSupervisor,
)

__all__ = [
    "BudgetExceeded",
    "BudgetGuard",
    "Checkpoint",
    "CheckpointDivergence",
    "CheckpointError",
    "CheckpointWriter",
    "ResilienceConfig",
    "ResilienceError",
    "ResumeVerifier",
    "RetryPolicy",
    "RunAborted",
    "SupervisionEscalation",
    "WorkerCrash",
    "WorkerDesync",
    "WorkerFailure",
    "WorkerHandle",
    "WorkerHang",
    "WorkerSupervisor",
    "load_checkpoint",
    "rng_stream_states",
    "write_checkpoint",
]
