"""The op path: describe an RMA operation once, issue it through one handler.

Every one-sided operation — data movement (get/put/accumulate) and
synchronisation (flush/unlock/fence/PSCW complete, plus epoch-opening
locks) — is first *described* as an :class:`OpDescriptor` (validated,
datatype-resolved, byte footprint computed) and then *issued* through the
window's bound handler.  The descriptor carries everything the handler
needs, so no concern reaches back into the op-method arguments:

* the **target footprint** (``base``/``span`` in target-window bytes),
  exactly what the :mod:`repro.analysis` sanitizer interval-checks;
* the **origin identity** (host address + bytes used), for
  origin-buffer-reuse detection;
* the **policy switches** (``fault_site``, ``retryable``,
  ``epoch_close``), which tell each handler step whether it applies.

Describing is clock-free: validation raises the same ``WindowError`` /
``EpochError`` as the op method would, in the same order, before any
virtual time is charged — so a batch can validate its epoch bookkeeping
once and still be bit-identical to scalar issues.

``build_data_pipeline`` (get/put/accumulate) and ``build_sync_pipeline``
(flush/unlock/fence/complete and epoch-opening locks) each bind one
``attempt(desc)`` closure to a window.  The statement order *is* the
ordering contract (``docs/architecture.md`` §3.1):

* **data**: move the payload bytes → consult the fault injector (a
  transient failure still moved the bytes, so a retry moves the same ones)
  → charge the issue overhead and price the transfer (jitter perturbs the
  priced duration; a stall past the op timeout becomes a retryable
  timeout) → ``net.transfer`` → the per-op event;
* **sync**: consult the fault injector → advance past the selected
  targets' completion times → the per-op event → fire the epoch-close
  hooks, last.

A window keeps one completion time per target (``Window._pending``): a
data op raises its target's entry to its own completion time, a sync
pops the targets it completes and advances the clock to the latest of
them.  Float ``max`` is exact, so this is the same advance as a scan
over every posted op.

Fault blocks are guarded by the bind-time constant ``faults``
(``window._faults`` is never reassigned after ``Window.__init__``), so a
fault-free window pays one ``is not None`` test per block.  Windows that
can see faults or crashes get the one shared resilience wrapper
(:func:`_with_resilience`) bound around ``attempt``: dead-target fail-fast
first and uncharged, then the retry/backoff loop, which replays the whole
attempt (move + pricing).  Everything else gets ``attempt`` bare.

The order of every virtual-time charge, injector draw and telemetry
emission is pinned bit for bit by the golden, obs-parity (fault-free and
faulted) and chaos suites.  A data-plane change (a new transport, a new
charge) is one edit in one handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.mpi.datatypes import COPY_KINDS, Datatype, origin_bytes
from repro.mpi.errors import (
    RMATimeoutError,
    TargetFailedError,
    TransientNetworkError,
    WindowError,
)
from repro.obs import (
    FAULT_INJECTED,
    FAULT_RETRY,
    NET_TRANSFER,
    RMA_ACCUMULATE,
    RMA_FENCE,
    RMA_FLUSH,
    RMA_GET,
    RMA_GET_BATCH,
    RMA_LOCK,
    RMA_PUT,
    RMA_UNLOCK,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.mpi.window import Window

#: Fixed CPU cost of a flush/unlock synchronisation call.
SYNC_OVERHEAD = 50e-9

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
    them lazily from the footprint instead).  The policy switches default
    to a get's, so a get descriptor (the window's pooled one included)
    carries them from construction and a get writes only its per-op
    fields; every other builder sets its own.
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
    #: flat uint8 view of ``origin`` (puts, accumulates, multi-block gets;
    #: a single-block get writes ``origin`` through a memoryview instead)
    obuf: np.ndarray | None = None
    acc_op: str | None = None          #: accumulate reduction op
    # -- sync-op completion -------------------------------------------
    completes: bool = False            #: complete pending ops (False: locks)
    targets: set[int] | None = None    #: ranks to complete (None = all)
    barrier: bool = False              #: collective barrier after completion
    finalize: Callable[[], None] | None = None  #: epoch-state mutation hook
    epoch_close: bool = False
    close_targets: set[int] | None = None
    # -- policy switches ----------------------------------------------
    fault_site: str | None = "get"     #: injector site ("get"/"put"/"flush")
    retryable: bool = True             #: wrap in the retry/backoff loop
    quiet: bool = False                #: suppress the per-op obs event (batch)
    # -- obs ----------------------------------------------------------
    emit_kind: str | None = RMA_GET
    emit_attrs: dict[str, Any] = field(default_factory=dict)
    # -- results ------------------------------------------------------
    result: int = 0                    #: payload bytes moved
    duration: float = 0.0              #: sync: completion extent (clock - t0)
    done_at: float = 0.0               #: data: virtual time the op completes

    @property
    def is_data(self) -> bool:
        return self.kind in DATA_KINDS

    def footprint(self) -> dict[str, int]:
        """Sanitizer-facing attrs of a data op (one entry of a batch event)."""
        assert self.origin is not None
        return {
            "target": self.target,
            "disp": self.disp,
            "nbytes": self.nbytes,
            "base": self.base,
            "span": self.span,
            "origin": int(self.origin.__array_interface__["data"][0]),
            "onbytes": self.nbytes,
        }


def _footprint(
    window: "Window", target: int, disp: int, count: int, dtype: Datatype
) -> tuple[int, int, list]:
    """(base, span, blocks) of the op at the target, in target-window bytes.

    ``(span, blocks)`` is the datatype's memo (:meth:`Datatype.footprint`);
    the shared block list is read-only by contract (the data handler only
    iterates it).
    """
    span, blocks = dtype.footprint(count)
    return disp * window._group.disp_units[target], span, blocks


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
    """:func:`describe_get` into a get descriptor (the window's pooled one).

    Every per-op field a previous get may have set is re-assigned; the
    kind and the policy switches are a get's from construction and no
    handler writes them, so a recycled frame is indistinguishable from a
    fresh ``OpDescriptor(kind="get")``.  The checks are
    :meth:`Window._admit_get`'s, and the footprint-memo hit of
    :meth:`Datatype.footprint` is in line: the memo is keyed by ``count``
    on the datatype itself, so no datatype is hashed per get.
    """
    dtype, count = window._admit_get(origin, target_rank, count, datatype)
    if target_disp < 0:
        raise WindowError(f"negative displacement: {target_disp}")
    fp = dtype._footprints.get(count)
    if fp is None:
        fp = dtype.footprint(count)
    span, blocks = fp
    desc.target = target_rank
    desc.disp = target_disp
    desc.count = count
    desc.dtype = dtype
    desc.nbytes = dtype.size * count  # transfer_size: count >= 0 by now
    desc.base = target_disp * window._group.disp_units[target_rank]
    desc.span = span
    desc.blocks = blocks
    desc.origin = origin
    desc.obuf = None
    desc.quiet = quiet
    desc.result = 0
    desc.done_at = 0.0
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


#: runs one descriptor through a chain; returns the same descriptor
Handler = Callable[[OpDescriptor], OpDescriptor]


class BoundPipeline(NamedTuple):
    """One chain (data or sync) bound to one window at construction time."""

    issue: Handler
    #: no resilience wrapper was bound: ``issue`` is the bare attempt
    fused: bool


# ----------------------------------------------------------------------
# byte movement (zero time; bounds are checked against the target buffer
# before any byte moves)
# ----------------------------------------------------------------------
def _check_bounds(desc: OpDescriptor, tbuf: np.ndarray) -> None:
    if desc.kind == "accumulate":
        if desc.base + desc.nbytes > tbuf.nbytes:
            raise WindowError(
                f"accumulate out of bounds: [{desc.base}, "
                f"{desc.base + desc.nbytes}) > window size {tbuf.nbytes} "
                f"at rank {desc.target}"
            )
    elif desc.base + desc.span > tbuf.nbytes:
        raise WindowError(
            f"{desc.kind} out of bounds: disp {desc.base} + span "
            f"{desc.span} > window size {tbuf.nbytes} at rank {desc.target}"
        )


def _gather(desc: OpDescriptor, tbuf: np.ndarray) -> None:
    blocks = desc.blocks
    base = desc.base
    if len(blocks) == 1:
        off, size = blocks[0]
        payload = tbuf[base + off : base + off + size]
    else:
        parts = [tbuf[base + o : base + o + s] for o, s in blocks]
        payload = np.concatenate(parts) if parts else np.empty(0, np.uint8)
    nbytes = len(payload)
    obuf = origin_bytes(desc.origin, nbytes)
    obuf[:nbytes] = payload
    desc.obuf = obuf
    desc.nbytes = nbytes


def _scatter(desc: OpDescriptor, tbuf: np.ndarray) -> None:
    payload = desc.obuf[: desc.nbytes]
    cursor = 0
    for off, size in desc.blocks:
        tbuf[desc.base + off : desc.base + off + size] = payload[
            cursor : cursor + size
        ]
        cursor += size


def _apply_accumulate(desc: OpDescriptor, tbuf: np.ndarray) -> None:
    np_dtype = desc.origin.dtype
    src = desc.obuf.view(np_dtype)
    dst = tbuf[desc.base : desc.base + desc.nbytes].view(np_dtype)
    op = desc.acc_op
    if op == "sum":
        dst += src
    elif op == "max":
        np.maximum(dst, src, out=dst)
    elif op == "min":
        np.minimum(dst, src, out=dst)
    elif op == "replace":
        dst[:] = src
    else:
        raise WindowError(f"unknown accumulate op: {op}")


# ----------------------------------------------------------------------
# resilience wrapper (shared by both chains)
# ----------------------------------------------------------------------
def _with_resilience(window: "Window", attempt: Handler) -> BoundPipeline:
    """Bind dead-target fail-fast + retry/backoff around ``attempt``.

    Returned bare when the window has no injector and the world cannot
    lose ranks.  Otherwise: data ops and epoch-opening locks towards a
    crashed target raise :class:`TargetFailedError` immediately — no time
    is charged and no retry fires, because a crash-stop failure never
    heals; completion syncs towards dead targets pass through (completion
    is local here, and survivors must be able to close epochs holding
    entries cached from the victim).  Then the single owner of the retry
    loop (policy: :class:`repro.faults.RetryPolicy`) re-issues
    :class:`TransientNetworkError` / :class:`RMATimeoutError` up to the
    attempt budget, charging each backoff from the injector's
    deterministic ``backoff`` stream.
    """
    proc = window._comm.proc
    faults = window._faults
    can_fail = proc.can_fail
    if faults is None and not can_fail:
        return BoundPipeline(attempt, True)
    policy = window._retry
    obs_bus = window._obs

    def guarded(desc: OpDescriptor) -> OpDescriptor:
        if can_fail:
            target = desc.target
            if (
                target is not None
                and (desc.is_data or desc.kind == "lock")
                and target in proc.failed_ranks
            ):
                raise TargetFailedError(target, desc.kind)
        if faults is None or not desc.retryable:
            return attempt(desc)
        n = 1
        while True:
            try:
                return attempt(desc)
            except (TransientNetworkError, RMATimeoutError) as exc:
                if n >= policy.max_attempts:
                    raise
                delay = policy.delay(n, faults.draw("backoff"))
                proc.advance(delay)
                window.retries += 1
                if obs_bus.wants(FAULT_RETRY):
                    window._emit(
                        FAULT_RETRY,
                        op=desc.fault_site,
                        target=desc.target,
                        attempt=n,
                        delay=delay,
                        error=type(exc).__name__,
                    )
                n += 1

    return BoundPipeline(guarded, False)


# ----------------------------------------------------------------------
# the two chains
# ----------------------------------------------------------------------
def build_data_pipeline(window: "Window") -> BoundPipeline:
    """Bind the get/put/accumulate handler (order: module docstring)."""
    comm = window._comm
    proc = comm.proc
    perf = comm.perf
    rank = comm.rank
    group = window._group
    obs_bus = window._obs
    faults = window._faults
    policy = window._retry
    # Per-target price memo: distance, issue overhead and the transfer
    # (alpha, bandwidth) are pure functions of the rank pair, so caching
    # them per window cannot change any charged time.
    links: dict[int, tuple] = {}
    # The group's buffers are fixed at creation: their bytes, bound once.
    views = [memoryview(buf) for buf in group.buffers]
    pending = window._pending  # never rebound: syncs pop and clear it

    def attempt(desc: OpDescriptor) -> OpDescriptor:
        # -- move: bounds check + payload bytes (zero time).  A single-block
        # get in bounds into an at least 1-d origin that a memoryview fills
        # as numpy's byte view does (COPY_KINDS) copies in line; the cast
        # or the slice assignment refuses a non-contiguous, read-only or
        # too-small origin before any byte moves.  Anything else
        # (multi-block, out of bounds, any other origin, puts,
        # accumulates) takes the helpers, which raise in their usual
        # order ----------------------------------------------------------
        target = desc.target
        kind = desc.kind
        tbuf = group.buffers[target]
        blocks = desc.blocks
        moved = False
        if kind == "get" and len(blocks) == 1:
            off, size = blocks[0]
            lo = desc.base + off
            origin = desc.origin
            if (
                lo + size <= tbuf.nbytes
                and origin.ndim
                and origin.dtype.kind in COPY_KINDS
            ):
                try:
                    memoryview(origin).cast("B")[:size] = views[target][lo : lo + size]
                    desc.nbytes = size
                    moved = True
                except (TypeError, ValueError):
                    pass
        if not moved:
            _check_bounds(desc, tbuf)
            if kind == "accumulate":
                _apply_accumulate(desc, tbuf)
            elif kind == "get":
                _gather(desc, tbuf)
            else:
                _scatter(desc, tbuf)
        nbytes = desc.result = desc.nbytes
        # -- fault injection: the bytes moved, the round trip is wasted --
        if faults is not None:
            site = desc.fault_site
            if site is not None and faults.fire(site, target) is not None:
                wasted = perf.issue_time(rank, target, nbytes) + perf.get_time(
                    rank, target, nbytes
                )
                timeout = policy.op_timeout
                if timeout is not None:
                    wasted = min(wasted, timeout)
                proc.advance(wasted)
                window.faults_injected += 1
                if obs_bus.wants(FAULT_INJECTED):
                    window._emit(
                        FAULT_INJECTED,
                        op=site,
                        target=target,
                        nbytes=nbytes,
                        wasted=wasted,
                    )
                raise TransientNetworkError(
                    f"injected transient {site} failure towards rank "
                    f"{target} ({nbytes} B)"
                )
        # -- pricing: charge the network cost model ---------------------
        link = links.get(target)
        if link is None:
            link = links[target] = perf.link(rank, target)
        dist, issue, alpha, bw = link
        proc.advance(issue)
        duration = alpha + nbytes / bw
        if faults is not None:
            stall = faults.stall_for(target, duration)
            if stall > 0.0:
                duration += stall
                if obs_bus.wants(FAULT_INJECTED):
                    window._emit(
                        FAULT_INJECTED, op="jitter", target=target, stall=stall
                    )
                timeout = policy.op_timeout
                if timeout is not None and duration > timeout:
                    proc.advance(timeout)
                    window.faults_injected += 1
                    if obs_bus.wants(FAULT_INJECTED):
                        window._emit(
                            FAULT_INJECTED,
                            op="timeout",
                            target=target,
                            wasted=timeout,
                        )
                    raise RMATimeoutError(
                        f"transfer of {nbytes} B to rank {target} stalled "
                        f"{stall:.3e}s past the {timeout:.3e}s op timeout"
                    )
        # -- completion: the target's entry keeps the latest completion
        # time (clocks are non-negative, so 0.0 stands for "none") -------
        done = desc.done_at = proc.clock + duration
        if done > pending.get(target, 0.0):
            pending[target] = done
        if NET_TRANSFER in obs_bus._wanted:
            window._emit(
                NET_TRANSFER,
                duration=duration,
                target=target,
                nbytes=nbytes,
                distance=dist.name,
                issue=issue,
            )
        # -- obs: one per-op event carrying the sanitizer footprint; batch
        # elements (quiet) are covered by their batch's single event -----
        if not desc.quiet and desc.emit_kind in obs_bus._wanted:
            attrs = {"target": target, "disp": desc.disp, "nbytes": nbytes}
            if kind == "accumulate":
                attrs["op"] = desc.acc_op
            attrs["base"] = desc.base
            attrs["span"] = desc.span
            attrs["origin"] = int(desc.origin.__array_interface__["data"][0])
            attrs["onbytes"] = nbytes
            window._emit(desc.emit_kind, **attrs)
        return desc

    return _with_resilience(window, attempt)


def build_sync_pipeline(window: "Window") -> BoundPipeline:
    """Bind the flush/unlock/fence/complete/lock handler."""
    comm = window._comm
    proc = comm.proc
    obs_bus = window._obs
    faults = window._faults
    policy = window._retry
    pending = window._pending

    def attempt(desc: OpDescriptor) -> OpDescriptor:
        # -- fault injection: fires before completion, wastes the timeout
        if faults is not None:
            site = desc.fault_site
            if site is not None and faults.fire(site, desc.target) is not None:
                wasted = policy.op_timeout or 10 * SYNC_OVERHEAD
                proc.advance(wasted)
                window.faults_injected += 1
                if obs_bus.wants(FAULT_INJECTED):
                    window._emit(
                        FAULT_INJECTED, op=site, target=desc.target, wasted=wasted
                    )
                where = (
                    "all ranks" if desc.target is None else f"rank {desc.target}"
                )
                raise RMATimeoutError(
                    f"injected synchronisation timeout towards {where}"
                )
        # -- completion: advance past the selected targets' completion
        # times (None: every target), charge the call, then the
        # epoch-state finalize hook (lock release, PSCW group reset);
        # locks (completes=False) complete nothing ----------------------
        if desc.completes:
            t0 = done_at = proc.clock
            targets = desc.targets
            if targets is None:
                if pending:
                    done = max(pending.values())
                    if done > done_at:
                        done_at = done
                    pending.clear()
            else:
                for target in targets:
                    done = pending.pop(target, 0.0)
                    if done > done_at:
                        done_at = done
            if done_at > t0:
                proc.advance(done_at - t0)
            proc.advance(SYNC_OVERHEAD)
            if desc.barrier:
                comm.barrier()
            if desc.finalize is not None:
                desc.finalize()
            desc.duration = proc.clock - t0
        # -- obs: the op's pre-built attrs + measured completion extent --
        if not desc.quiet and desc.emit_kind in obs_bus._wanted:
            window._emit(
                desc.emit_kind, duration=desc.duration, **desc.emit_attrs
            )
        # -- epoch close, last: CLaMPI materialisation hooks, bump eph ---
        if desc.epoch_close:
            for hook in window._epoch_close_hooks:
                hook(window, desc.close_targets)
            window.eph += 1
        return desc

    return _with_resilience(window, attempt)


def emit_get_batch(window: "Window", descs: list[OpDescriptor]) -> None:
    """One batched accounting event for a completed ``get_batch``.

    Carries the per-op footprints so the :mod:`repro.analysis` sanitizer
    can interval-check every element of the batch exactly as it does
    scalar gets.
    """
    if not descs or not window._obs.wants(RMA_GET_BATCH):
        return
    window._emit(
        RMA_GET_BATCH,
        count=len(descs),
        nbytes=sum(d.result for d in descs),
        ops=[d.footprint() for d in descs],
    )
