"""Retry/backoff policy for transient RMA failures.

All delays are *virtual-time* seconds: a retrying rank charges the backoff
to its simulated clock (through ``SimProcess.advance``), so resilience has
a measurable performance cost in every figure, exactly like the cache's
management costs.  The policy object itself is pure and deterministic —
the jitter term is driven by a uniform draw supplied by the caller (the
per-rank :class:`~repro.faults.plan.FaultInjector` stream), never by wall
clocks or global RNG state.

Single owner: the retry *loop* consuming this policy lives in exactly one
place — the resilience wrapper :mod:`repro.mpi.ops` binds around
both the data and the sync handler.  Nothing else re-issues failed
operations; lint rule ANL003 keeps callers from reaching around it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, plus an optional per-op timeout.

    ``max_attempts`` counts the initial try: ``1`` disables retries
    entirely, so the first injected fault surfaces to the application.
    ``op_timeout`` bounds the virtual time a single RMA operation may
    take (including injected stalls); a transfer that would exceed it
    raises :class:`~repro.mpi.errors.RMATimeoutError` after charging the
    timeout.
    """

    max_attempts: int = 4
    base_delay: float = 2e-6        #: first backoff delay (virtual seconds)
    multiplier: float = 2.0         #: exponential growth per attempt
    max_delay: float = 1e-3         #: backoff cap
    jitter: float = 0.25            #: +/- fraction applied to each delay
    op_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError("op_timeout must be > 0 when set")

    # ------------------------------------------------------------------
    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """No retries: the first fault propagates (chaos-debugging mode)."""
        return cls(max_attempts=1)

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def with_timeout(self, op_timeout: float) -> "RetryPolicy":
        return replace(self, op_timeout=op_timeout)

    def delay(self, attempt: int, u: float = 0.5) -> float:
        """Backoff before retry number ``attempt`` (1-based, deterministic).

        ``u`` is a uniform [0, 1) draw; ``u = 0.5`` gives the undithered
        midpoint.  The delay for attempt ``k`` is
        ``min(base * multiplier**(k-1), max_delay)`` scaled by
        ``1 + jitter * (2u - 1)``.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        d = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter:
            d *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return d


#: Policy used by the window layer when a fault plan is active but no
#: explicit policy was configured.
DEFAULT_RETRY_POLICY = RetryPolicy()
