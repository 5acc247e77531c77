"""CLaMPI's ``get_c`` processing engine (paper Sec. III-B) as one function.

:func:`serve_cached_get` is the whole cached-get flow in statement order::

    sequence accounting (seq, size sum)
    crash check          dead target: pinned serve or deferred failure
    quarantine           enter on a storage-fault streak; degraded direct serve
    consult              cost-charged index lookup, full/partial hit serve
    miss                 remote issue + insert/evict under its flight time
    --
    cache.access emission + fault-counter fold
    probe countdown / re-enable (degraded)  *or*  adaptive-controller check
    deferred failure raise

The second half always runs, in that order: the telemetry contract is
ordered (``cache.access`` precedes the probe's ``cache.degraded``
re-enable event), so a step that must fail the get records the exception
on ``req.failure`` and serves 0 bytes; it is raised last.

The function orchestrates; the structural machinery (cuckoo index,
storage, eviction engine) stays on :class:`repro.core.window.CachedWindow`.

Batched requests (``quiet=True``) serve element-by-element through the
same function — identical classification, cost charges and adaptation
points, hence bit-identical virtual time — but collect their access
records and raw-transfer descriptors into shared sinks so the batch entry
point can emit one ``cache.access_batch`` + one ``rma.get_batch`` event
for the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.mpi.datatypes import Datatype
from repro.obs import CACHE_ACCESS, CACHE_ACCESS_BATCH
from repro.rma.descriptor import OpDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.window import CachedWindow


@dataclass(slots=True)
class CacheGetRequest:
    """One ``get_c`` as :func:`serve_cached_get` sees it."""

    origin: np.ndarray
    target: int
    disp: int
    count: int
    dtype: Datatype
    size: int                #: transfer size in bytes
    #: index key ``(target, disp)``: built once, shared by the lookup, the
    #: candidate-slot memo and the entry a miss creates
    key: tuple[int, int]
    quiet: bool = False      #: batch element: suppress the per-op event
    #: deferred failure: raised after accounting/telemetry ran, so both
    #: stay ordered even for refused gets
    failure: Exception | None = None
    #: batch sinks (shared across one get_batch); None on the scalar path
    access_sink: list[dict[str, Any]] | None = None
    net_sink: list[OpDescriptor] | None = None


def serve_cached_get(cw: "CachedWindow", req: CacheGetRequest) -> int:
    """Serve one ``get_c``; returns payload bytes (order: module docstring)."""
    cw._seq += 1
    cw._size_sum += req.size
    nbytes = None
    degraded = False
    # A world without a crash plan never pays for the failure detector.
    if cw._can_fail:
        cw._observe_failures()
        if req.target in cw._proc.failed_ranks:
            nbytes = cw._serve_failed_target(req)
    if nbytes is None:
        if (
            not cw._quarantined
            and cw._fault_streak >= cw.config.quarantine_threshold
        ):
            cw._enter_quarantine()
        if cw._quarantined:
            degraded = True
            nbytes = cw._serve_degraded(req)
        else:
            nbytes = cw._consult(req)
            if nbytes is None:
                nbytes = cw._serve_miss(req)

    if not req.quiet:
        if cw.obs.wants(CACHE_ACCESS):
            cw._emit_access(req.target, req.disp, req.size)
    elif req.access_sink is not None:
        assert cw.stats.last_access is not None
        req.access_sink.append(
            {
                "access": cw.stats.last_access.value,
                "target": req.target,
                "disp": req.disp,
                "nbytes": req.size,
                "base": req.disp * cw._win._group.disp_units[req.target],
            }
        )
    if cw._has_injector:
        cw._sync_fault_counters()
    if degraded:
        cw._probe_countdown -= 1
        if cw._probe_countdown <= 0:
            cw._leave_quarantine()
    elif cw._controller is not None:
        cw._maybe_adapt()
    if req.failure is not None:
        raise req.failure
    return nbytes


def describe_cached_get(
    cw: "CachedWindow",
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
    *,
    quiet: bool = False,
    access_sink: list[dict[str, Any]] | None = None,
    net_sink: list[OpDescriptor] | None = None,
) -> CacheGetRequest:
    dtype, count = cw._win._resolve_dtype(origin, count, datatype)
    return CacheGetRequest(  # once per get: positional, in field order
        origin,
        target_rank,
        target_disp,
        count,
        dtype,
        dtype.transfer_size(count),
        (target_rank, target_disp),
        quiet,
        None,
        access_sink,
        net_sink,
    )


def serve_write(
    cw: "CachedWindow",
    kind: str,
    origin: np.ndarray,
    target_rank: int,
    target_disp: int,
    count: int | None,
    datatype: Datatype | None,
    acc_op: str = "sum",
) -> int:
    """Write-through for cached puts/accumulates.

    Writes are never cached (paper Sec. II): pass through to the wrapped
    window's pipeline, then drop any cached entries overlapping the
    written range so a later epoch cannot serve stale bytes.
    """
    dtype, count = cw._win._resolve_dtype(origin, count, datatype)
    if kind == "put":
        nbytes = cw._win.put(origin, target_rank, target_disp, count, dtype)
    else:
        nbytes = cw._win.accumulate(
            origin, target_rank, target_disp, acc_op, count, dtype
        )
    du = cw._win._group.disp_units[target_rank]
    start = target_disp * du
    cw._invalidate_overlapping(
        target_rank, start, start + dtype.extent * count
    )
    return nbytes


def emit_cache_batch(
    cw: "CachedWindow", records: list[dict[str, Any]]
) -> None:
    """One ``cache.access_batch`` accounting event for a ``get_batch``."""
    if not records or not cw.obs.wants(CACHE_ACCESS_BATCH):
        return
    cw._emit(
        CACHE_ACCESS_BATCH,
        count=len(records),
        nbytes=sum(r["nbytes"] for r in records),
        ops=records,
    )
