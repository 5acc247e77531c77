"""Op descriptors: the one value that flows through the RMA handlers.

Every one-sided operation — data movement (get/put/accumulate) and
synchronisation (flush/unlock/fence/PSCW complete, plus epoch-opening
locks) — is first *described* (validated, datatype-resolved, byte
footprint computed) and then *issued* through the window's bound handler
(:mod:`repro.rma.interceptors`).  The descriptor carries everything the
handler needs so no concern has to reach back into the op-method
arguments:

* the **target footprint** (``base``/``span`` in target-window bytes),
  exactly what the :mod:`repro.analysis` sanitizer interval-checks;
* the **origin identity** (host address + bytes used), for
  origin-buffer-reuse detection;
* the **policy switches** (``fault_site``, ``retryable``,
  ``epoch_close``), which tell each handler step whether it applies.

Describing is deliberately clock-free: validation raises the same
``WindowError``/``EpochError`` a pre-pipeline window raised, in the same
order, before any virtual time is charged — so a batch can validate its
epoch bookkeeping once and still be bit-identical to scalar issues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.mpi.datatypes import Datatype, origin_bytes
from repro.mpi.errors import WindowError
from repro.obs import (
    RMA_ACCUMULATE,
    RMA_FENCE,
    RMA_FLUSH,
    RMA_GET,
    RMA_LOCK,
    RMA_PUT,
    RMA_UNLOCK,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.window import Window, _PendingOp

#: Descriptor kinds that move payload bytes.
DATA_KINDS = frozenset({"get", "put", "accumulate"})
#: Descriptor kinds that complete outstanding operations.
SYNC_KINDS = frozenset(
    {"flush", "flush_all", "unlock", "unlock_all", "fence", "complete"}
)


@dataclass(slots=True)
class OpDescriptor:
    """One RMA operation, fully resolved and ready to issue.

    Data ops (:data:`DATA_KINDS`) fill the footprint block; sync ops fill
    the completion block.  ``emit_attrs`` are the kind-specific attributes
    of the telemetry event the handler publishes (data ops build
    them lazily from the footprint instead).
    """

    kind: str
    target: int | None = None
    # -- data-op footprint --------------------------------------------
    disp: int = 0
    count: int = 0
    dtype: Datatype | None = None
    nbytes: int = 0          #: payload bytes moved (transfer size)
    base: int = 0            #: first byte touched in the target window
    span: int = 0            #: extent of the flattened datatype at the target
    blocks: list | None = None  #: flattened (offset, size) block list, computed once
    origin: np.ndarray | None = None   #: caller's origin array
    obuf: np.ndarray | None = None     #: flat uint8 view of ``origin``
    acc_op: str | None = None          #: accumulate reduction op
    # -- sync-op completion -------------------------------------------
    completes: bool = False            #: complete pending ops (False: locks)
    targets: set[int] | None = None    #: ranks to complete (None = all)
    barrier: bool = False              #: collective barrier after completion
    finalize: Callable[[], None] | None = None  #: epoch-state mutation hook
    epoch_close: bool = False
    close_targets: set[int] | None = None
    # -- policy switches ----------------------------------------------
    fault_site: str | None = None      #: injector site ("get"/"put"/"flush")
    retryable: bool = False            #: wrap in the retry/backoff loop
    quiet: bool = False                #: suppress the per-op obs event (batch)
    # -- obs ----------------------------------------------------------
    emit_kind: str | None = None
    emit_attrs: dict[str, Any] = field(default_factory=dict)
    # -- results ------------------------------------------------------
    result: int = 0                    #: payload bytes moved
    duration: float = 0.0              #: sync: completion extent (clock - t0)
    pending_op: "_PendingOp | None" = None  #: handle for rget/rput requests

    @property
    def is_data(self) -> bool:
        return self.kind in DATA_KINDS

    def footprint(self) -> dict[str, int]:
        """Sanitizer-facing attrs of a data op (one entry of a batch event)."""
        assert self.obuf is not None
        return {
            "target": self.target,
            "disp": self.disp,
            "nbytes": self.nbytes,
            "base": self.base,
            "span": self.span,
            "origin": int(self.obuf.__array_interface__["data"][0]),
            "onbytes": self.nbytes,
        }


def _footprint(
    window: "Window", target: int, disp: int, count: int, dtype: Datatype
) -> tuple[int, int, list]:
    """(base, span, blocks) of the op at the target, in target-window bytes.

    ``(span, blocks)`` is a pure function of ``(dtype, count)``, so it is
    memoized per window — applications issue millions of gets over a
    handful of datatype/count shapes.  The shared block list is read-only
    by contract (the data handler only iterates it).  The memo is
    bounded: cleared wholesale if an adversarial stream of shapes fills it.
    """
    memo = window._fp_memo
    key = (dtype, count)
    fp = memo.get(key)
    if fp is None:
        if len(memo) >= 512:
            memo.clear()
        blocks = dtype.flatten(count)
        span = blocks[-1][0] + blocks[-1][1] if blocks else 0
        fp = memo[key] = (span, blocks)
    return disp * window._group.disp_units[target], fp[0], fp[1]


def describe_get(
    window: "Window",
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
    *,
    quiet: bool = False,
) -> OpDescriptor:
    """Validate and describe one get (checks ordered as the op method did)."""
    return describe_get_into(
        OpDescriptor(kind="get"),
        window,
        origin,
        target_rank,
        target_disp,
        count,
        datatype,
        quiet=quiet,
    )


def describe_get_into(
    desc: OpDescriptor,
    window: "Window",
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
    *,
    quiet: bool = False,
) -> OpDescriptor:
    """:func:`describe_get` into a caller-provided (pooled) descriptor.

    Every field a previous use may have set is re-assigned, so a recycled
    frame is indistinguishable from a fresh ``OpDescriptor(kind="get")``.
    The checks are :meth:`Window._admit_get`'s, and the footprint-memo hit
    of :func:`_footprint` is in line.
    """
    dtype, count = window._admit_get(origin, target_rank, count, datatype)
    if target_disp < 0:
        raise WindowError(f"negative displacement: {target_disp}")
    fp = window._fp_memo.get((dtype, count))
    if fp is None:
        base, span, blocks = _footprint(
            window, target_rank, target_disp, count, dtype
        )
    else:
        span, blocks = fp
        base = target_disp * window._group.disp_units[target_rank]
    desc.kind = "get"
    desc.target = target_rank
    desc.disp = target_disp
    desc.count = count
    desc.dtype = dtype
    desc.nbytes = dtype.size * count  # transfer_size: count >= 0 by now
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


def describe_put(
    window: "Window",
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
) -> OpDescriptor:
    """Validate and describe one put.

    Mirrors the historical check order: origin contiguity and size are
    checked *before* the epoch (a put with a bad origin raised
    ``WindowError`` even outside an epoch).
    """
    dtype, count = window._resolve_dtype(origin, count, datatype)
    nbytes = dtype.transfer_size(count)
    obuf = origin_bytes(origin, nbytes)
    window._check_alive()
    window._check_rank(target_rank)
    window._step("put", target_rank)
    if target_disp < 0:
        raise WindowError(f"negative displacement: {target_disp}")
    base, span, blocks = _footprint(window, target_rank, target_disp, count, dtype)
    return OpDescriptor(
        kind="put",
        target=target_rank,
        disp=target_disp,
        count=count,
        dtype=dtype,
        nbytes=nbytes,
        base=base,
        span=span,
        blocks=blocks,
        origin=origin,
        obuf=obuf,
        fault_site="put",
        retryable=True,
        emit_kind=RMA_PUT,
    )


def describe_accumulate(
    window: "Window",
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    op: str,
    count: int | None,
    datatype: Datatype | None,
) -> OpDescriptor:
    dtype, count = window._resolve_dtype(origin, count, datatype)
    if not dtype.is_contiguous():
        raise WindowError("accumulate requires a contiguous datatype")
    window._check_alive()
    window._check_rank(target_rank)
    window._step("accumulate", target_rank)
    if target_disp < 0:
        raise WindowError(f"negative displacement: {target_disp}")
    nbytes = dtype.transfer_size(count)
    base = target_disp * window._group.disp_units[target_rank]
    return OpDescriptor(
        kind="accumulate",
        target=target_rank,
        disp=target_disp,
        count=count,
        dtype=dtype,
        nbytes=nbytes,
        base=base,
        span=nbytes,
        origin=origin,
        obuf=origin_bytes(origin)[:nbytes],
        acc_op=op,
        # accumulates are atomic at the target in MPI; the fault plan has
        # no site for them, matching the pre-pipeline behaviour
        fault_site=None,
        retryable=False,
        emit_kind=RMA_ACCUMULATE,
    )


def describe_sync(
    window: "Window",
    kind: str,
    *,
    target: int | None = None,
    targets: set[int] | None = None,
    close_targets: set[int] | None = None,
    barrier: bool = False,
    finalize: Callable[[], None] | None = None,
    retryable: bool = True,
    fault_site: str | None = "flush",
    emit_kind: str | None = None,
    emit_attrs: dict[str, Any] | None = None,
) -> OpDescriptor:
    """Describe a synchronisation op (epoch checks stay in the op method,
    whose error messages carry the window's epoch-state summary)."""
    if emit_kind is None:
        emit_kind = {
            "flush": RMA_FLUSH,
            "flush_all": RMA_FLUSH,
            "unlock": RMA_UNLOCK,
            "unlock_all": RMA_UNLOCK,
            "fence": RMA_FENCE,
            "complete": RMA_FLUSH,
        }[kind]
    return OpDescriptor(
        kind=kind,
        target=target,
        completes=True,
        targets=targets,
        barrier=barrier,
        finalize=finalize,
        epoch_close=True,
        close_targets=close_targets,
        fault_site=fault_site,
        retryable=retryable and fault_site is not None,
        emit_kind=emit_kind,
        emit_attrs=dict(emit_attrs or {}),
    )


def describe_lock(
    window: "Window", target: int | None, lock_type: str
) -> OpDescriptor:
    """Describe an epoch-opening lock: telemetry only, nothing completes."""
    return OpDescriptor(
        kind="lock",
        target=target,
        completes=False,
        epoch_close=False,
        fault_site=None,
        retryable=False,
        emit_kind=RMA_LOCK,
        emit_attrs={"target": target, "lock_type": lock_type},
    )


def describe_get_batch(
    window: "Window", requests: Sequence[tuple]
) -> list[OpDescriptor]:
    """Validate and describe a batch of get requests, in request order.

    ``requests`` holds ``(origin, target_rank, target_disp[, count
    [, datatype]])`` tuples.  Liveness is checked up front (an empty batch
    on a freed window still raises); each element's rank and epoch are
    checked before its datatype is resolved, as the batch always did.  All
    checks are clock-free, so the batch stays bit-identical in virtual
    time to N scalar gets.
    """
    window._check_alive()
    descs: list[OpDescriptor] = []
    for req in requests:
        origin, target_rank, target_disp = req[0], req[1], req[2]
        count = req[3] if len(req) > 3 else None
        datatype = req[4] if len(req) > 4 else None
        window._check_rank(target_rank)
        window._step("get", target_rank)
        descs.append(
            describe_get(
                window,
                origin,
                target_rank,
                target_disp,
                count,
                datatype,
                quiet=True,
            )
        )
    return descs
