"""The two RMA op handlers: one straight-line closure per chain.

``build_data_pipeline`` (get/put/accumulate) and ``build_sync_pipeline``
(flush/unlock/fence/complete and epoch-opening locks) each bind one
``attempt(desc)`` closure to a window.  The statement order *is* the
ordering contract (``docs/architecture.md`` §3.1):

* **data**: move the payload bytes → consult the fault injector (a
  transient failure still moved the bytes, so a retry moves the same ones)
  → charge the issue overhead and price the transfer (jitter perturbs the
  priced duration; a stall past the op timeout becomes a retryable
  timeout) → ``net.transfer`` → the per-op event;
* **sync**: consult the fault injector → complete the selected pending
  ops → the per-op event → fire the epoch-close hooks, last.

Fault blocks are guarded by the bind-time constant ``faults``
(``window._faults`` is never reassigned after ``Window.__init__``), so a
fault-free window pays one ``is not None`` test per block.  Windows that
can see faults or crashes get the one shared resilience wrapper
(:func:`_with_resilience`) bound around ``attempt``: dead-target fail-fast
first and uncharged, then the retry/backoff loop, which replays the whole
attempt (move + pricing).  Everything else gets ``attempt`` bare.

The order of every virtual-time charge, injector draw and telemetry
emission is pinned bit for bit by the golden, obs-parity (fault-free and
faulted) and chaos suites.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mpi.datatypes import origin_bytes
from repro.mpi.errors import (
    RMATimeoutError,
    TargetFailedError,
    TransientNetworkError,
    WindowError,
)
from repro.obs import FAULT_INJECTED, FAULT_RETRY, NET_TRANSFER, RMA_GET_BATCH
from repro.rma.descriptor import OpDescriptor
from repro.rma.pipeline import BoundPipeline, Handler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mpi.window import Window


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
    from repro.mpi.window import _PendingOp

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

    def attempt(desc: OpDescriptor) -> OpDescriptor:
        # -- move: bounds check + payload bytes (zero time).  A single-block
        # get into a big-enough contiguous origin passes every check of
        # _check_bounds / _gather in line; anything else (multi-block,
        # out of bounds, a bad origin, puts, accumulates) takes the helpers,
        # which raise in their usual order ------------------------------
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
                and origin.flags.c_contiguous
                and origin.nbytes >= size
            ):
                obuf = desc.obuf = origin.view(np.uint8).reshape(-1)
                obuf[:size] = tbuf[lo : lo + size]
                desc.nbytes = size
                moved = True
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
        desc.pending_op = _PendingOp(target, proc.clock, duration)
        window._pending.append(desc.pending_op)
        window._bytes_transferred += nbytes
        bbd = window._bytes_by_distance
        bbd[dist] = bbd.get(dist, 0) + nbytes
        if obs_bus.wants(NET_TRANSFER):
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
        if not desc.quiet and obs_bus.wants(desc.emit_kind):
            attrs = {"target": target, "disp": desc.disp, "nbytes": nbytes}
            if kind == "accumulate":
                attrs["op"] = desc.acc_op
            attrs["base"] = desc.base
            attrs["span"] = desc.span
            attrs["origin"] = int(desc.obuf.__array_interface__["data"][0])
            attrs["onbytes"] = nbytes
            window._emit(desc.emit_kind, **attrs)
        return desc

    return _with_resilience(window, attempt)


def build_sync_pipeline(window: "Window") -> BoundPipeline:
    """Bind the flush/unlock/fence/complete/lock handler."""
    from repro.mpi.window import SYNC_OVERHEAD

    comm = window._comm
    proc = comm.proc
    obs_bus = window._obs
    faults = window._faults
    policy = window._retry

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
        # -- completion: advance past the selected pending ops, then the
        # epoch-state finalize hook (lock release, PSCW group reset);
        # locks (completes=False) complete nothing ----------------------
        if desc.completes:
            t0 = proc.clock
            window._complete(desc.targets)
            if desc.barrier:
                comm.barrier()
            if desc.finalize is not None:
                desc.finalize()
            desc.duration = proc.clock - t0
        # -- obs: the op's pre-built attrs + measured completion extent --
        if not desc.quiet and obs_bus.wants(desc.emit_kind):
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
