"""Caching-enabled windows: the MPI adapter of the CLaMPI cache engine.

A :class:`CachedWindow` wraps a :class:`repro.mpi.Window` and intercepts
``get``; the cache itself — index, storage, eviction, policy, stats, cost
— is a :class:`~repro.core.engine.CacheEngine` (paper Sec. III), reachable
as :attr:`CachedWindow.engine`.  The adapter keeps what needs a window:
the op methods, the raw network get the engine is bound to, the
epoch-close hook, crash disposition, quarantine, the fault-counter fold,
the adaptive trigger and telemetry.

A get_c is :meth:`CachedWindow._serve`, in statement order::

    sequence accounting (seq, size sum)
    crash check          dead target: pinned serve or deferred failure
    quarantine           enter on a storage-fault streak; degraded direct serve
    engine.serve         consult, full/partial hit, or miss under the fetch
    --
    cache.access emission + fault-counter fold
    probe countdown / re-enable (degraded)  *or*  adaptive-controller check
    deferred failure raise

The second half always runs, in that order: the telemetry contract is
ordered (``cache.access`` precedes the probe's ``cache.degraded``
re-enable event), so a step that must fail the get records the exception
on ``req.failure`` and serves 0 bytes; it is raised last.
:meth:`CachedWindow.get_batch` serves N requests through the same method
with one accounting event and one batched event for the miss traffic.

PENDING entries materialise into ``S_w`` when the epoch closes (flush,
unlock, fence — Sec. II): the payload is copied out of the fetching get's
origin buffer, which MPI guarantees untouched until completion.

Operational modes (Sec. III-A): TRANSPARENT invalidates at every epoch
closure (only intra-epoch reuse); ALWAYS_CACHE never invalidates;
USER_DEFINED is ALWAYS_CACHE plus the explicit :meth:`invalidate`
(CLAMPI_Invalidate).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.adaptive import AdaptiveController
from repro.core.config import Config, resolve_config
from repro.core.engine import CacheEngine, CacheGetRequest
from repro.core.stats import AccessType
from repro.mpi.datatypes import BYTE, Datatype
from repro.mpi.errors import TargetFailedError
from repro.mpi.ops import describe_get, emit_get_batch
from repro.mpi.window import Window, WindowProxy
from repro.obs import (
    CACHE_ACCESS,
    CACHE_ACCESS_BATCH,
    CACHE_ADAPT,
    CACHE_ADMIT,
    CACHE_DEGRADED,
    CACHE_EPOCH,
    CACHE_EVICT,
    CACHE_INVALIDATE,
    CACHE_RECOVERED,
    Event,
    EventBus,
    get_bus,
)

_FAILING = AccessType.FAILING
#: the engine's event kinds, as published on the bus
_ENGINE_EVENTS = {"admit": CACHE_ADMIT, "evict": CACHE_EVICT}


class CachedWindow(WindowProxy):
    """A caching layer ``C_w = (I_w, S_w)`` wrapped around an MPI window."""

    def __init__(self, window: Window, config: Config | None = None):
        self._win = window
        # The window's creation-time info keys outrank ``config``.
        cfg = resolve_config(config, info=window.info)
        self.config = cfg
        self.mode = cfg.mode
        #: crash-recovery mode ("invalidate" | "serve-stale")
        self.recovery_mode = cfg.recovery
        #: crashed target ranks whose entries were already dispositioned
        self._observed_failures: set[int] = set()
        #: resolved registry name of the eviction/admission policy
        self.policy_name = cfg.policy
        comm = window.comm
        perf, rank = comm.perf, comm.rank
        # Fixed for the window's lifetime, so read once and not per get
        # (without an injector the window's fault counters never move).
        self._proc = comm.proc
        self._can_fail = self._proc.can_fail
        self._has_injector = window._faults is not None
        injector = getattr(comm, "faults", None)
        self.engine = CacheEngine(
            cfg,
            self._raw_get,
            memory=perf.memory,
            sink=self._proc.advance,
            on_event=self._emit_engine_event,
            # cost-aware policies weigh victims by the virtual-time miss
            # penalty of refetching them from their home rank
            miss_cost=lambda e: perf.get_time(rank, e.trg, e.size),
            fault_hook=injector.storage_hook if injector is not None else None,
            disp_units=window._group.disp_units,
        )
        # Never replaced, not even by an adaptive resize.
        self.stats = self.engine.stats
        self.cost = self.engine.cost
        self._controller = (
            AdaptiveController(cfg.adaptive_params) if cfg.adaptive else None
        )
        # -- graceful degradation (docs/resilience.md) -------------------
        self._quarantined = False
        self._probe_countdown = 0
        #: last observed (faults_injected, retries) of the wrapped window,
        #: folded into the stats snapshot incrementally
        self._win_fault_base = [0, 0]
        #: per-window telemetry bus; forwards to the process-global bus so a
        #: single capture sees every layer (repro.obs design)
        self.obs = EventBus(parent=get_bus())
        #: the one request every scalar get is served through (invariant
        #: 3): the engine keeps none of its fields but the key tuple, which
        #: each get builds anew; a re-entrant get takes a fresh one
        self._scalar_req: CacheGetRequest | None = CacheGetRequest(
            np.empty(0, np.uint8), 0, 0, 0, BYTE, 0, (0, 0)
        )
        window.add_epoch_close_hook(self._on_epoch_close)

    def _emit(self, kind: str, duration: float = 0.0, **attrs: Any) -> None:
        """Publish one telemetry event stamped (rank, virtual time, epoch)."""
        comm = self._win.comm
        self.obs.emit(
            Event(
                kind,
                comm.rank,
                comm.proc.clock,
                self._win.eph,
                self._win.win_id,
                duration=duration,
                attrs=attrs,
            )
        )

    def _emit_engine_event(self, kind: str, **attrs: Any) -> None:
        """The engine's event callback, gated on somebody listening."""
        kind = _ENGINE_EVENTS[kind]
        if self.obs.wants(kind):
            self._emit(kind, **attrs)

    # ------------------------------------------------------------------
    # introspection (the engine's, under the names readers use)
    # ------------------------------------------------------------------
    @property
    def index(self):
        return self.engine.index

    @property
    def storage(self):
        return self.engine.storage

    @property
    def index_entries(self) -> int:
        """Current |I_w|."""
        return self.engine.index_entries

    @property
    def storage_bytes(self) -> int:
        """Current |S_w|."""
        return self.engine.storage_bytes

    @property
    def avg_get_size(self) -> float:
        """``C_w.ags(i)`` — average size of the gets processed so far."""
        return self.engine.avg_get_size

    @property
    def seq_index(self) -> int:
        """Number of gets processed (the current index ``i`` in ``C_w.G``)."""
        return self.engine.seq

    # ------------------------------------------------------------------
    # writes (epochs, syncs and introspection come from WindowProxy)
    # ------------------------------------------------------------------
    def put(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """Puts are never cached (Sec. II); pass straight through.

        As a defensive consistency guard (beyond the paper, which relies on
        the MPI epoch rules alone), any cached entries overlapping the
        written target range are dropped so a later epoch cannot serve
        stale bytes.
        """
        dtype, count = self._win._resolve_dtype(origin, count, datatype)
        nbytes = self._win.put(origin, target_rank, target_disp, count, dtype)
        self._drop_written(target_rank, target_disp, dtype.extent * count)
        return nbytes

    def accumulate(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        op: str = "sum",
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """Accumulates are writes: pass through and drop overlapping entries."""
        dtype, count = self._win._resolve_dtype(origin, count, datatype)
        nbytes = self._win.accumulate(
            origin, target_rank, target_disp, op, count, dtype
        )
        self._drop_written(target_rank, target_disp, dtype.extent * count)
        return nbytes

    def _drop_written(self, target: int, disp: int, extent: int) -> None:
        lo = disp * self._win._group.disp_units[target]
        self.engine.invalidate_span(target, lo, lo + extent)

    # ------------------------------------------------------------------
    # the cached get (get_c)
    # ------------------------------------------------------------------
    def get(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
        bypass_cache: bool = False,
    ) -> int:
        """Cached one-sided get; returns payload bytes.

        Semantically identical to :meth:`repro.mpi.Window.get` — a hit
        passes the wrapped window's liveness, rank and epoch checks
        (:meth:`Window._admit_get`) before the cache is consulted, and
        fails exactly as the plain get would — but served from ``S_w``
        whenever possible.

        ``bypass_cache=True`` is the per-operation escape hatch the paper
        floats as a possible MPI-standard extension (Sec. III-A): the get
        goes straight to the network, is never looked up, never inserted,
        and never counted in the cache statistics.
        """
        if bypass_cache:
            return self._win.get(origin, target_rank, target_disp, count, datatype)
        dtype, count = self._win._admit_get(origin, target_rank, count, datatype)
        req = self._scalar_req
        if req is None:  # re-entrant get (defensive): fall back to a fresh one
            return self._serve(
                CacheGetRequest(
                    origin,
                    target_rank,
                    target_disp,
                    count,
                    dtype,
                    dtype.size * count,
                    (target_rank, target_disp),
                )
            )
        self._scalar_req = None
        try:
            req.origin = origin
            req.target = target_rank
            req.disp = target_disp
            req.count = count
            req.dtype = dtype
            req.size = dtype.size * count  # transfer_size: count >= 0 by now
            req.key = (target_rank, target_disp)
            req.failure = None
            return self._serve(req)
        finally:
            self._scalar_req = req

    def get_batch(self, requests) -> list[int]:
        """Serve a batch of cached gets with one accounting pass.

        ``requests`` holds ``(origin, target_rank, target_disp[, count
        [, datatype]])`` tuples.  Every element is served exactly like a
        scalar :meth:`get` — classification, cost
        charges, quarantine probes and adaptation checks are per-element,
        so virtual time is bit-identical to N scalar gets — but telemetry
        is batched: misses (and degraded/partial-hit refetches) issue
        through the wrapped window's quiet descriptor path and surface as
        one ``rma.get_batch`` event, and the per-get ``cache.access``
        events collapse into one ``cache.access_batch`` event.
        """
        access_sink: list[dict] = []
        net_sink: list = []
        results = []
        for req in requests:
            origin, target, disp = req[0], req[1], req[2]
            dtype, count = self._win._admit_get(
                origin,
                target,
                req[3] if len(req) > 3 else None,
                req[4] if len(req) > 4 else None,
            )
            results.append(
                self._serve(
                    CacheGetRequest(
                        origin,
                        target,
                        disp,
                        count,
                        dtype,
                        dtype.size * count,
                        (target, disp),
                        True,
                        None,
                        access_sink,
                        net_sink,
                    )
                )
            )
        emit_get_batch(self._win, net_sink)
        self._emit_access_batch(access_sink)
        return results

    def _serve(self, req: CacheGetRequest) -> int:
        """Serve one ``get_c``; returns payload bytes (order: module docstring)."""
        engine = self.engine
        engine.seq += 1
        engine.size_sum += req.size
        nbytes = None
        degraded = False
        # A world without a crash plan never pays for the failure detector.
        if self._can_fail:
            self._observe_failures()
            if req.target in self._proc.failed_ranks:
                nbytes = self._serve_failed_target(req)
        if nbytes is None:
            if (
                not self._quarantined
                and engine.fault_streak >= self.config.quarantine_threshold
            ):
                self._enter_quarantine()
            if self._quarantined:
                degraded = True
                nbytes = self._serve_degraded(req)
            else:
                nbytes = engine.serve(req)

        if not req.quiet:
            if self.obs.wants(CACHE_ACCESS):
                self._emit(CACHE_ACCESS, **self._access_record(req))
        elif req.access_sink is not None:
            req.access_sink.append(self._access_record(req))
        if self._has_injector:
            self._sync_fault_counters()
        if degraded:
            self._probe_countdown -= 1
            if self._probe_countdown <= 0:
                self._leave_quarantine()
        elif self._controller is not None:
            self._maybe_adapt()
        if req.failure is not None:
            raise req.failure
        return nbytes

    def _raw_get(self, req: CacheGetRequest) -> int:
        """Issue ``req``'s bytes on the wrapped (uncached) window.

        The engine's ``fetch``.  Scalar requests use the plain op method;
        batch elements issue a quiet descriptor through the window and
        record it for the batch-level ``rma.get_batch`` event.
        """
        if req.net_sink is None:
            return self._win.get(
                req.origin, req.target, req.disp, req.count, req.dtype
            )
        desc = describe_get(
            self._win, req.origin, req.target, req.disp, req.count, req.dtype,
            quiet=True,
        )
        self._win.issue(desc)
        req.net_sink.append(desc)
        return desc.result

    def _access_record(self, req: CacheGetRequest) -> dict[str, Any]:
        """Attributes of the ``cache.access`` event of the get just classified."""
        assert self.stats.last_access is not None
        return {
            "access": self.stats.last_access.value,
            "target": req.target,
            "disp": req.disp,
            "nbytes": req.size,
            "base": req.disp * self._win._group.disp_units[req.target],
        }

    def _emit_access_batch(self, records: list[dict[str, Any]]) -> None:
        """One ``cache.access_batch`` accounting event for a ``get_batch``."""
        if not records or not self.obs.wants(CACHE_ACCESS_BATCH):
            return
        self._emit(
            CACHE_ACCESS_BATCH,
            count=len(records),
            nbytes=sum(r["nbytes"] for r in records),
            ops=records,
        )

    # ------------------------------------------------------------------
    # graceful degradation (fault quarantine)
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while the cache is quarantined and serving gets direct."""
        return self._quarantined

    def _enter_quarantine(self) -> None:
        """Self-disable: drop all content, serve direct until the probe."""
        live = self.engine.purge()
        self._quarantined = True
        self.engine.fault_streak = 0
        self._probe_countdown = self.config.quarantine_probe_interval
        self.stats.record_quarantine()
        if self.obs.wants(CACHE_DEGRADED):
            self._emit(
                CACHE_DEGRADED,
                state="quarantined",
                dropped=live,
                probe_in=self._probe_countdown,
            )

    def _leave_quarantine(self) -> None:
        """Probe: re-enable caching; a new fault streak re-quarantines."""
        self._quarantined = False
        self.engine.fault_streak = 0
        self._probe_countdown = 0
        if self.obs.wants(CACHE_DEGRADED):
            self._emit(CACHE_DEGRADED, state="re-enabled")

    def _serve_degraded(self, req: CacheGetRequest) -> int:
        """Quarantined get: straight to the network, classified FAILING.

        ``_serve`` emits the accounting event and then runs the probe
        countdown, in that (telemetry contract) order.
        """
        nbytes = self._raw_get(req)
        self.stats.record_access(_FAILING)
        self.stats.record_degraded_get()
        self.stats.record_network_bytes(nbytes)
        return nbytes

    def _sync_fault_counters(self) -> None:
        """Fold the wrapped window's fault/retry counters into the stats.

        The resilience layer lives in :class:`repro.mpi.Window`; the stats
        snapshot is the cache's.  Diffing (rather than copying) keeps the
        counters correct across adaptive rebuilds and invalidations.
        """
        fi = self._win.faults_injected
        rt = self._win.retries
        base = self._win_fault_base
        if fi > base[0]:
            self.stats.record_faults(fi - base[0])
            base[0] = fi
        if rt > base[1]:
            self.stats.record_retries(rt - base[1])
            base[1] = rt

    # ------------------------------------------------------------------
    # crash recovery (docs/resilience.md)
    # ------------------------------------------------------------------
    def _observe_failures(self) -> None:
        """Disposition the entries of any newly crashed target ranks.

        ``serve-stale`` pins a dead rank's indexed entries read-only (they
        are epoch-consistent: RMA writes from other ranks would have been
        fenced by the same epochs that admitted the entries) and keeps
        serving exact-match reads from them; ``invalidate`` drops them so
        every later get towards the rank fails fast.  Orphan PENDING
        entries (mid-conflict, out of the index) are unreachable for
        serving and are dropped in both modes.
        """
        new = self._proc.failed_ranks - self._observed_failures
        if not new:
            return
        for rank in sorted(new):
            self._observed_failures.add(rank)
            pinned = dropped = 0
            for e in self.engine.live_entries(rank):
                if e.slot >= 0 and self.recovery_mode == "serve-stale":
                    e.pinned = True
                    pinned += 1
                else:
                    self.engine.drop(e)
                    dropped += 1
            self.stats.record_rank_failure(pinned=pinned, dropped=dropped)
            if self.obs.wants(CACHE_RECOVERED):
                self._emit(
                    CACHE_RECOVERED,
                    rank=rank,
                    mode=self.recovery_mode,
                    pinned=pinned,
                    dropped=dropped,
                )

    def _serve_failed_target(self, req: CacheGetRequest) -> int:
        """A get towards a crashed rank (``_serve``'s crash check).

        ``serve-stale`` serves exact full hits from the rank's pinned
        entries; anything else — and every get in ``invalidate`` mode —
        is classified FAILING and fails with a deferred
        :class:`TargetFailedError` (raised after the accounting events).
        """
        if self.recovery_mode == "serve-stale":
            nbytes = self.engine.serve_hit(req)
            if nbytes is not None:
                self.stats.record_recovered_get()
                return nbytes
        self.stats.record_access(_FAILING)
        self.stats.record_failed_target_get()
        req.failure = TargetFailedError(req.target, "get")
        return 0

    # ------------------------------------------------------------------
    # epoch closure, invalidation, adaptation
    # ------------------------------------------------------------------
    def _on_epoch_close(self, _win: Window, targets: set[int] | None) -> None:
        """Materialise or drop what the closing epoch left PENDING; with
        nothing pending or owed and nobody listening (the flush after a
        hit) this does no work at all."""
        if self._can_fail:
            if self._proc.crashing:
                # This rank is the victim, closing epochs from ``finally:``
                # blocks while its stack unwinds.  The crash may have
                # interrupted a mutation half-way (time is charged between
                # the index and storage updates), and nobody reads a dead
                # rank's cache: leave it alone.
                return
            # Observe any crash that happened inside the closing epoch
            # first, so serve-stale pins land before TRANSPARENT-mode
            # invalidation.
            self._observe_failures()
        engine = self.engine
        if engine.pending or engine.orphan_waiter_bytes:
            engine.close_epoch(targets)
        if self._has_injector:
            self._sync_fault_counters()
        if self.obs.wants(CACHE_EPOCH):
            # The hook runs before ``eph`` is bumped: the stamp names the
            # epoch being closed.
            t = self.stats.total
            self._emit(
                CACHE_EPOCH, eph=self._win.eph, gets=t.gets, hits=t.hits
            )

    def invalidate(self) -> None:
        """CLAMPI_Invalidate: explicitly drop the whole cache content.

        This is the USER_DEFINED-mode call from the paper's Listing 1; any
        same-epoch pending waiters are charged immediately.
        """
        live = self.engine.purge()
        self.stats.record_invalidation()
        if self._has_injector:
            self._sync_fault_counters()
        if self.obs.wants(CACHE_INVALIDATE):
            self._emit(CACHE_INVALIDATE, live=live)

    def check_invariants(self) -> None:
        """Structural audit of the cache (:meth:`CacheEngine.check_invariants`)."""
        self.engine.check_invariants()

    def _maybe_adapt(self) -> None:
        """Adaptive check after a get (only called on an adaptive window)."""
        assert self._controller is not None
        if self.stats.interval.gets < self.config.adaptive_params.check_interval:
            return
        engine = self.engine
        adj = self._controller.evaluate(
            self.stats,
            engine.index_entries,
            engine.storage_bytes,
            engine.storage.free_bytes,
        )
        self.stats.reset_interval()
        if adj is None:
            return
        engine.resize(adj.index_entries, adj.storage_bytes)
        if self.obs.wants(CACHE_ADAPT):
            self._emit(
                CACHE_ADAPT,
                index_entries=adj.index_entries,
                storage_bytes=adj.storage_bytes,
            )
