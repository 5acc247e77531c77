"""Exception hierarchy for the simulated MPI layer."""

from __future__ import annotations


class MPIError(RuntimeError):
    """Base class for all simulated-MPI failures."""


class WindowError(MPIError):
    """Invalid window usage (bad rank, out-of-bounds access, freed window)."""


class EpochError(MPIError):
    """RMA call issued outside an access epoch, or invalid epoch nesting."""


class DatatypeError(MPIError):
    """Malformed datatype construction or use."""


class RMARaceError(MPIError):
    """Conflicting RMA accesses detected by the dynamic sanitizer.

    Raised in :class:`repro.analysis.Sanitizer` *strict* mode at the call
    site of the second of two conflicting operations (put/get, put/put or
    mixed-op accumulate byte-range overlap within one exposure epoch, or a
    cache hit served after a foreign put invalidated the range).  The
    message carries both conflicting op records.
    """


class EpochMisuseError(EpochError):
    """Epoch/completion discipline violation detected by the sanitizer.

    Raised in strict mode for hazards the window layer itself cannot see:
    reuse of a local origin buffer before the get that fills it completed
    (flush), and access epochs still open when the analysis scope closes
    (epoch leaks).
    """


class FaultError(MPIError):
    """Base class for failures raised by the fault-injection subsystem.

    These model *environmental* failures (a flaky interconnect, memory
    pressure) rather than API misuse: they are only ever raised while a
    :class:`repro.faults.FaultInjector` is attached to the job, and the
    transient flavours are retried by the resilience layer before they
    surface to the application.
    """


class TransientNetworkError(FaultError):
    """An injected transient get/put failure (NIC/network-level error).

    Retryable: the MPI window layer re-issues the operation with
    exponential backoff (in virtual time) up to the configured attempt
    budget before letting the error propagate.
    """


class RMATimeoutError(FaultError):
    """An RMA operation or synchronisation exceeded its virtual-time budget.

    Raised for injected flush/unlock failures and for transfers whose
    (jitter-stalled) completion time exceeds the per-op timeout of the
    active :class:`repro.faults.RetryPolicy`.  Retryable, like
    :class:`TransientNetworkError`.
    """


class StorageFault(FaultError):
    """An injected cache-storage allocation failure (memory pressure).

    Not retryable at the MPI layer: the caching engine degrades instead —
    the access falls back to a direct get and, after repeated faults, the
    cache quarantines itself (see ``docs/resilience.md``).
    """


class TargetFailedError(MPIError):
    """An RMA operation targeted a rank that crashed permanently.

    Raised fail-fast by the resilience wrapper of the :mod:`repro.mpi.ops`
    handlers — no time is charged and no retry happens,
    because crash-stop failures (unlike :class:`TransientNetworkError`)
    never heal.  The caching engine may still satisfy reads from
    epoch-consistent entries in ``serve-stale`` recovery mode, in which
    case this error is not raised (see ``docs/resilience.md``).
    """

    def __init__(self, target: int, op: str = "op"):
        super().__init__(
            f"RMA {op} targets rank {target}, which crashed permanently"
        )
        self.target = target
        self.op = op


class WindowRevokedError(WindowError):
    """The window was revoked after a failure; all further ops are refused.

    The simulated analogue of ULFM's ``MPI_Win_revoke`` state: once any
    rank calls :meth:`repro.mpi.window.Window.revoke`, every rank's
    operations on that window raise this error until the survivors
    re-create the window via :meth:`~repro.mpi.window.Window.shrink`.
    """
