"""The helper-chain get description, kept as a differential-test reference.

``repro.mpi.ops.describe_get_into`` as it stood before the passing
checks of a get were folded into one frame (commit ``bd3f316``): one call
each to ``_resolve_dtype``, ``_check_alive``, ``_check_rank``,
``_require_epoch`` (now ``_step``, the epoch table's check), ``_footprint``
and ``Datatype.transfer_size``.  The
rewritten describe must fill the same descriptor fields and raise the same
exception, with the same message, for every argument and window state
(``tests/test_rma_error_parity.py``).
"""

from __future__ import annotations

from repro.mpi.errors import WindowError
from repro.obs import RMA_GET
from repro.mpi.ops import OpDescriptor, _footprint


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
    desc.pending_op = None
    return desc
