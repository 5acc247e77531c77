"""``repro.faults`` — fault injection and resilience for the RMA stack.

The reproduction's interconnect is perfect by default; this subsystem
makes it misbehave *on purpose*, deterministically, so the caching layer
can be proven correct and gracefully degrading under failure:

* :class:`FaultPlan` / :class:`FaultRule` — a seeded, declarative
  description of transient get/put failures, flush timeouts, latency
  jitter and cache-storage pressure, keyed by op type, src/dst rank and
  virtual-time window;
* :class:`FaultInjector` — the per-rank evaluator, built automatically by
  :class:`~repro.mpi.simmpi.SimMPI` when a plan is passed to a job;
* :class:`RetryPolicy` — exponential backoff with jitter (charged in
  virtual time) and per-op timeouts, consumed by the
  :class:`~repro.mpi.window.Window` resilience layer.

The chaos harness that runs the applications under these plans sits
above them, in :mod:`repro.verify.chaos` (``python -m repro.verify chaos``).

Typical chaos run::

    from repro.faults import FaultPlan, RetryPolicy
    from repro.mpi import SimMPI

    plan = FaultPlan.transient_gets(0.05, seed=7)
    SimMPI(nprocs=8, faults=plan, retry=RetryPolicy(max_attempts=5)).run(program)

Layering: this package is a leaf — the MPI layer imports it, never the
other way around (the one exception, the ``StorageFault`` raise, is a
lazy import).
"""

from __future__ import annotations

from repro.faults.plan import (
    RULE_OPS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    make_injectors,
)
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "RULE_OPS",
    "RetryPolicy",
    "make_injectors",
]
