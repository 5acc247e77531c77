"""References for the window's op path, kept for differential tests.

``describe_get_into`` is ``repro.mpi.ops.describe_get_into`` as it stood
before the passing checks of a get were folded into one frame (commit
``bd3f316``): one call each to ``_resolve_dtype``, ``_check_alive``,
``_check_rank``, ``_require_epoch`` (now ``_step``, the epoch table's
check), ``_footprint`` and ``Datatype.transfer_size``.  The rewritten
describe must fill the same descriptor fields and raise the same
exception, with the same message, for every argument and window state
(``tests/test_rma_error_parity.py``).

:class:`PendingList` is a rank's clock under the list of posted
operations the window kept before it kept one completion time per target
(``tests/test_mpi_completion.py``).
"""

from __future__ import annotations

from repro.mpi.errors import WindowError
from repro.obs import RMA_GET
from repro.mpi.ops import SYNC_OVERHEAD, OpDescriptor, _footprint


def describe_get_into(
    desc: OpDescriptor,
    window,
    origin,
    target_rank,
    target_disp,
    count,
    datatype,
    *,
    quiet: bool = False,
) -> OpDescriptor:
    dtype, count = window._resolve_dtype(origin, count, datatype)
    window._check_alive()
    window._check_rank(target_rank)
    window._step("get", target_rank)
    if target_disp < 0:
        raise WindowError(f"negative displacement: {target_disp}")
    base, span, blocks = _footprint(window, target_rank, target_disp, count, dtype)
    desc.kind = "get"
    desc.target = target_rank
    desc.disp = target_disp
    desc.count = count
    desc.dtype = dtype
    desc.nbytes = dtype.transfer_size(count)
    desc.base = base
    desc.span = span
    desc.blocks = blocks
    desc.origin = origin
    desc.obuf = None
    desc.fault_site = "get"
    desc.retryable = True
    desc.quiet = quiet
    desc.emit_kind = RMA_GET
    desc.result = 0
    desc.duration = 0.0
    desc.done_at = 0.0
    return desc


class PendingList:
    """One rank's virtual clock under the list of posted operations.

    ``Window._pending`` as it stood at commit ``3af2a10``: every data op
    appended ``(target, issue clock, duration)``, a completing sync
    scanned the list for its targets and advanced to the latest
    completion, and a request's ``wait`` / ``test`` removed its own op.
    Each method charges what the matching window call charged, in the same
    float operations, so the clock must stay bit-identical to a window's.
    An op is ``[target, issue clock, duration, request done]``.
    """

    def __init__(self, clock: float):
        self.clock = clock
        self.pending: list[list] = []

    def post(self, target: int, issue: float, duration: float) -> list:
        """A get, put or accumulate: the issue overhead, then the op."""
        self.clock += issue
        op = [target, self.clock, duration, False]
        self.pending.append(op)
        return op

    def complete(self, targets) -> None:
        """flush / unlock (one target), flush_all / unlock_all / fence /
        PSCW complete (``None``: every target)."""
        done_at = self.clock
        remaining = []
        for op in self.pending:
            if targets is None or op[0] in targets:
                done_at = max(done_at, op[1] + op[2])
            else:
                remaining.append(op)
        self.pending = remaining
        if done_at > self.clock:
            self.clock += done_at - self.clock
        self.clock += SYNC_OVERHEAD

    def _finish(self, op: list) -> None:
        op[3] = True
        self.pending = [o for o in self.pending if o is not op]

    def test(self, op: list) -> None:
        """``Request.test``: done once the clock reached the op's end."""
        if not op[3] and self.clock >= op[1] + op[2]:
            self._finish(op)

    def wait(self, op: list) -> None:
        """``Request.wait``: advance to the op's end, charge the call."""
        if op[3]:
            return
        done_at = op[1] + op[2]
        if done_at > self.clock:
            self.clock += done_at - self.clock
        self.clock += SYNC_OVERHEAD
        self._finish(op)
