"""Caching-enabled windows: the CLaMPI get_c processing engine (Sec. III).

A :class:`CachedWindow` wraps a :class:`repro.mpi.Window` and intercepts
``get``:

1. the index ``I_w`` is queried (constant-time cuckoo lookup);
2. a CACHED/PENDING entry that *covers* the request is a **full hit**
   (CACHED → copy from ``S_w``; PENDING → the data was already requested in
   this epoch, the destination is served and the copy charged at epoch
   close);
3. a covering entry that is too small is a **partial hit**: the remote get
   is issued for the whole request and the entry is extended only if
   ``S_w`` has space;
4. otherwise the access is a miss: the remote get is issued (overlapping
   the management work), the entry is inserted into ``I_w`` (a cuckoo
   insertion failure triggers a **conflicting** eviction on the insertion
   path) and storage is allocated (allocation failure triggers at most a
   constant number of **capacity** evictions — weak caching); if space still
   cannot be found the access is **failing** and simply behaves like an
   uncached get.

PENDING entries materialise into ``S_w`` when the epoch closes (flush,
unlock, fence — Sec. II): the payload is copied out of the fetching get's
origin buffer, which MPI guarantees untouched until completion.

Operational modes (Sec. III-A): TRANSPARENT invalidates at every epoch
closure (only intra-epoch reuse); ALWAYS_CACHE never invalidates;
USER_DEFINED is ALWAYS_CACHE plus the explicit :meth:`invalidate`
(CLAMPI_Invalidate).

The get_c flow is orchestrated by
:func:`repro.rma.cache.serve_cached_get` (sequence accounting → crash
check → quarantine → consult → miss, then accounting events and
adaptation); this class keeps the structural machinery (index, storage,
evictor) it drives.  :meth:`CachedWindow.get_batch` serves N requests
through the same function with one accounting event and one batched event
for the miss traffic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain
from operator import attrgetter
from typing import Any

import numpy as np

from repro.core.adaptive import AdaptiveController, Adjustment
from repro.core.config import Config, Mode, resolve_config
from repro.core.costmodel import CostModel
from repro.core.cuckoo import CuckooIndex, InsertResult
from repro.core.entry import CacheEntry
from repro.core.eviction import EvictionEngine
from repro.core.policy import make_policy
from repro.core.states import EntryState
from repro.core.stats import AccessType, CacheStats
from repro.core.storage import Storage
from repro.mpi.datatypes import Datatype
from repro.mpi.errors import StorageFault, TargetFailedError
from repro.mpi.window import Window, WindowProxy
from repro.obs import (
    CACHE_ACCESS,
    CACHE_ADAPT,
    CACHE_ADMIT,
    CACHE_DEGRADED,
    CACHE_EPOCH,
    CACHE_EVICT,
    CACHE_INVALIDATE,
    CACHE_RECOVERED,
    CallbackSink,
    Event,
    EventBus,
    get_bus,
)
from repro.rma.cache import (
    CacheGetRequest,
    describe_cached_get,
    emit_cache_batch,
    serve_cached_get,
    serve_write,
)
from repro.rma.descriptor import _origin_bytes, describe_get
from repro.rma.interceptors import emit_get_batch

# Enum members as module constants: on CPython 3.11 ``EntryState.CACHED`` is
# a Python-level descriptor call (~0.1 us), paid several times per get.
_MISSING = EntryState.MISSING
_PENDING = EntryState.PENDING
_CACHED = EntryState.CACHED
_HIT_FULL = AccessType.HIT_FULL
_HIT_PARTIAL = AccessType.HIT_PARTIAL
_HIT_PENDING = AccessType.HIT_PENDING
_DIRECT = AccessType.DIRECT
_CONFLICTING = AccessType.CONFLICTING
_CAPACITY = AccessType.CAPACITY
_FAILING = AccessType.FAILING
_TRANSPARENT = Mode.TRANSPARENT
_dsp = attrgetter("dsp")
_slot = attrgetter("slot")


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
        self.stats = CacheStats(policy=self.policy_name)
        # Fixed for the window's lifetime, so read once and not per get
        # (without an injector the window's fault counters never move).
        self._proc = window.comm.proc
        self._can_fail = self._proc.can_fail
        self._has_injector = window._faults is not None
        self.cost = CostModel(
            memory=window.comm.perf.memory, sink=self._proc.advance
        )
        self.index_entries = cfg.index_entries  #: current |I_w|
        self.storage_bytes = cfg.storage_bytes  #: current |S_w|
        self._build_structures()
        self._seq = 0        #: i — position in the get sequence C_w.G
        self._size_sum = 0   #: running sum of get sizes (for ags)
        self._pending: list[CacheEntry] = []
        #: live entries per target rank, sorted by (unique) displacement:
        #: what a write or a crash looks at.  An entry joins in
        #: ``_serve_miss`` once it holds slot and storage, leaves in
        #: ``_release``.
        self._by_target: dict[int, list[CacheEntry]] = {}
        #: largest target-side extent any entry has had: how far below a
        #: written range an overlapping entry can start
        self._max_extent = 0
        #: payload bytes promised to same-epoch hits on a PENDING entry,
        #: charged when it closes (few entries ever have any: not a field)
        self._waiter_bytes: dict[CacheEntry, list[int]] = {}
        self._orphan_waiter_bytes: list[int] = []
        self._controller = (
            AdaptiveController(cfg.adaptive_params) if cfg.adaptive else None
        )
        self._cooldown = 0  #: intervals left before the controller may act
        # -- graceful degradation (docs/resilience.md) -------------------
        #: consecutive storage faults since the last successful allocation
        self._fault_streak = 0
        self._quarantined = False
        self._probe_countdown = 0
        #: last observed (faults_injected, retries) of the wrapped window,
        #: folded into the stats snapshot incrementally
        self._win_fault_base = [0, 0]
        #: per-window telemetry bus; forwards to the process-global bus so a
        #: single capture sees every layer (repro.obs design)
        self.obs = EventBus(parent=get_bus())
        #: optional (eph, gets, hits) samples appended at every epoch close.
        #: Fed by the ``cache.epoch`` events of this window's bus — the one
        #: measurement pipeline — via a private CallbackSink.
        self.timeline: list[tuple[int, int, int]] | None = None
        if cfg.record_timeline:
            self.timeline = []
            self.obs.attach(
                CallbackSink(self._timeline_sample, kinds=(CACHE_EPOCH,))
            )
        window.add_epoch_close_hook(self._on_epoch_close)

    def _timeline_sample(self, event: Event) -> None:
        assert self.timeline is not None
        self.timeline.append(
            (event.attrs["eph"], event.attrs["gets"], event.attrs["hits"])
        )

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

    # ------------------------------------------------------------------
    # plumbing / introspection
    # ------------------------------------------------------------------
    @property
    def index(self) -> CuckooIndex:
        return self._index

    @property
    def storage(self) -> Storage:
        return self._storage

    @property
    def avg_get_size(self) -> float:
        """``C_w.ags(i)`` — average size of the gets processed so far."""
        return self._size_sum / self._seq if self._seq else 0.0

    @property
    def seq_index(self) -> int:
        """Number of gets processed (the current index ``i`` in ``C_w.G``)."""
        return self._seq

    def _build_structures(self) -> None:
        cfg = self.config
        self._index = CuckooIndex(
            self.index_entries,
            num_hashes=cfg.num_hashes,
            max_iterations=cfg.max_insert_iterations,
            seed=cfg.seed,
        )
        injector = getattr(self._win.comm, "faults", None)
        self._storage = Storage(
            self.storage_bytes,
            fit=cfg.allocator_fit,
            fault_hook=injector.storage_hook if injector is not None else None,
        )
        perf = self._win.comm.perf
        rank = self._win.comm.rank
        self._evictor = EvictionEngine(
            self._index,
            self._storage,
            make_policy(self.policy_name, seed=cfg.seed + 1),
            cfg.sample_size,
            seed=cfg.seed + 1,
            # cost-aware policies weigh victims by the virtual-time miss
            # penalty of refetching them from their home rank
            miss_cost=lambda e: perf.get_time(rank, e.trg, e.size),
        )

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
        return serve_write(
            self, "put", origin, target_rank, target_disp, count, datatype
        )

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
        return serve_write(
            self,
            "accumulate",
            origin,
            target_rank,
            target_disp,
            count,
            datatype,
            acc_op=op,
        )

    def _invalidate_overlapping(self, trg: int, lo: int, hi: int) -> None:
        """Drop cached/pending entries of ``trg`` overlapping [lo, hi)."""
        victims = self._live_entries(trg, (lo, hi))
        for e in victims:
            self._drop_entry(e)
        if victims:
            self.cost.descriptor_updates(len(victims))

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

        Semantically identical to :meth:`repro.mpi.Window.get` — including
        the epoch rules, which are enforced by the wrapped window — but
        served from ``S_w`` whenever possible.

        ``bypass_cache=True`` is the per-operation escape hatch the paper
        floats as a possible MPI-standard extension (Sec. III-A): the get
        goes straight to the network, is never looked up, never inserted,
        and never counted in the cache statistics.
        """
        if bypass_cache:
            return self._win.get(origin, target_rank, target_disp, count, datatype)
        req = describe_cached_get(
            self, origin, target_rank, target_disp, count, datatype
        )
        return serve_cached_get(self, req)

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
        results = [
            serve_cached_get(
                self,
                describe_cached_get(
                    self,
                    req[0],
                    req[1],
                    req[2],
                    req[3] if len(req) > 3 else None,
                    req[4] if len(req) > 4 else None,
                    quiet=True,
                    access_sink=access_sink,
                    net_sink=net_sink,
                ),
            )
            for req in requests
        ]
        emit_get_batch(self._win, net_sink)
        emit_cache_batch(self, access_sink)
        return results

    def _consult(self, req: CacheGetRequest) -> int | None:
        """Cost-charged index consult; serves full and partial hits."""
        self.cost.lookup()
        entry, _probes = self._index.lookup(req.key)
        if entry is None or not isinstance(entry, CacheEntry):
            return None
        if entry.state is not _CACHED and entry.state is not _PENDING:
            return None
        if entry.covers(req.dtype, req.count, req.size):
            return self._serve_full_hit(entry, req.origin, req.size)
        return self._serve_partial_hit(entry, req)

    def _raw_get(self, req: CacheGetRequest) -> int:
        """Issue ``req``'s bytes on the wrapped (uncached) window.

        Scalar requests use the plain op method; batch elements issue a
        quiet descriptor through the window and record it for
        the batch-level ``rma.get_batch`` event.
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

    def _emit_access(self, target_rank: int, target_disp: int, size: int) -> None:
        """One ``cache.access`` event per classified get_c (the caller
        has checked that somebody wants it)."""
        assert self.stats.last_access is not None
        self._emit(
            CACHE_ACCESS,
            access=self.stats.last_access.value,
            target=target_rank,
            disp=target_disp,
            nbytes=size,
            base=target_disp * self._win._group.disp_units[target_rank],
        )

    # ------------------------------------------------------------------
    def _serve_full_hit(
        self, entry: CacheEntry, origin: np.ndarray, size: int
    ) -> int:
        entry.last = self._seq
        if self._evictor.wants_hit:
            self._evictor.notify_hit(entry, self._seq, self.avg_get_size)
        obuf = _origin_bytes(origin)
        if entry.state is _CACHED:
            obuf[:size] = self._storage.read(entry.desc, size)
            self.cost.copy(size)
            self.stats.record_access(_HIT_FULL)
        else:  # PENDING: same data already in flight from an earlier get
            assert entry.pending_source is not None
            obuf[:size] = entry.pending_source[:size]
            self._waiter_bytes.setdefault(entry, []).append(size)
            self.stats.record_access(_HIT_PENDING)
        self.stats.record_cache_bytes(size)
        return size

    def _serve_partial_hit(self, entry: CacheEntry, req: CacheGetRequest) -> int:
        """Partial hit: refetch everything; extend the entry if space allows."""
        origin, dtype, count, size = req.origin, req.dtype, req.count, req.size
        entry.last = self._seq
        if self._evictor.wants_hit:
            self._evictor.notify_hit(entry, self._seq, self.avg_get_size)
        self.stats.record_access(_HIT_PARTIAL)
        nbytes = self._raw_get(req)
        self.stats.record_network_bytes(nbytes)
        # Extension: allocate the larger region *first* so a failure leaves
        # the existing (smaller but valid) entry untouched.
        new_desc = self._allocate_tracked(size)
        if new_desc is None:
            return nbytes
        was_pending = entry.state is _PENDING
        if entry.desc is not None:
            self._release_tracked(entry)
        entry.desc = new_desc
        new_desc.entry = entry
        entry.relayout(dtype, count)
        self._max_extent = max(self._max_extent, dtype.extent * count)
        entry.pending_source = _origin_bytes(origin)[:size]
        if not was_pending:
            entry.transition(_PENDING)
            self._pending.append(entry)
        self.cost.descriptor_updates(2)
        return nbytes

    def _serve_miss(self, req: CacheGetRequest) -> int:
        origin, dtype, count, size = req.origin, req.dtype, req.count, req.size
        # Issue the remote get immediately: its flight time overlaps all the
        # cache-management work below (Sec. III-B2).
        nbytes = self._raw_get(req)
        self.stats.record_network_bytes(nbytes)

        entry = CacheEntry(req.target, req.disp, dtype, count, req.key)
        entry.last = self._seq
        evictor = self._evictor
        if evictor.wants_miss:
            evictor.notify_miss(req.key, size, self._seq, self.avg_get_size)

        # Oversized requests can never be stored: fail fast, no eviction
        # storm for a sporadically accessed big segment (Sec. III-D2).
        if size > self._storage.capacity:
            self.stats.record_access(_FAILING)
            return nbytes

        # Admission gate: a policy may refuse to cache this miss before
        # any index/storage work is spent on it (e.g. TinyLFU rejecting
        # one-hit wonders).  A rejected miss behaves like a failing
        # access: the data was already fetched, nothing is cached.
        if evictor.wants_admit and not evictor.admit(
            entry, self._seq, self.avg_get_size
        ):
            self.stats.record_access(_FAILING)
            self.stats.record_admission_reject()
            if self.obs.wants(CACHE_ADMIT):
                self._emit(
                    CACHE_ADMIT,
                    admitted=False,
                    policy=self.policy_name,
                    target=req.target,
                    disp=req.disp,
                    nbytes=size,
                )
            return nbytes

        res = self._index.insert(entry)
        self.cost.probes(res.probes)
        conflicted = not res.success
        if conflicted and not self._resolve_conflict(res, entry):
            self.stats.record_access(_FAILING)
            return nbytes

        desc, evicted = self._allocate_with_eviction(size)
        if desc is None:
            self._index.remove(entry)
            self.stats.record_access(_FAILING)
            return nbytes

        entry.desc = desc
        desc.entry = entry
        entry.transition(_PENDING)
        entry.pending_source = _origin_bytes(origin)[:size]
        self._pending.append(entry)
        # The entry is live from here (slot, storage, PENDING) until _release.
        insort(self._by_target.setdefault(req.target, []), entry, key=_dsp)
        self._max_extent = max(self._max_extent, dtype.extent * count)
        self.cost.descriptor_updates(1)
        if evictor.wants_insert:
            evictor.notify_insert(entry, self._seq, self.avg_get_size)

        if conflicted:
            self.stats.record_access(_CONFLICTING)
        elif evicted:
            self.stats.record_access(_CAPACITY)
        else:
            self.stats.record_access(_DIRECT)
        return nbytes

    # ------------------------------------------------------------------
    # eviction machinery
    # ------------------------------------------------------------------
    def _allocate_tracked(self, size: int):
        s0 = self._storage.steps
        try:
            desc = self._storage.allocate(size)
        except StorageFault:
            # Injected memory pressure: behaves like a failed allocation,
            # but a streak of them quarantines the cache (see get()).
            self.cost.avl_steps(self._storage.steps - s0)
            self._note_storage_fault()
            return None
        self.cost.avl_steps(self._storage.steps - s0)
        if desc is not None:
            self._fault_streak = 0
        return desc

    def _release_tracked(self, entry: CacheEntry) -> None:
        assert entry.desc is not None
        s0 = self._storage.steps
        self._storage.release(entry.desc)
        self.cost.avl_steps(self._storage.steps - s0)
        self.cost.descriptor_updates(1)
        entry.desc = None

    def _allocate_with_eviction(self, size: int):
        """Best-fit allocate; on failure run the bounded capacity eviction."""
        desc = self._allocate_tracked(size)
        if desc is not None:
            return desc, False
        evicted_any = False
        for _ in range(self.config.max_capacity_evictions):
            sample = self._evictor.sample_capacity_victim(
                self._seq, self.avg_get_size
            )
            self.cost.eviction_visits(sample.visited)
            if sample.victim is None:
                break
            self.stats.record_eviction(
                sample.visited, sample.nonempty, conflict=False
            )
            if self.obs.wants(CACHE_EVICT):
                self._emit(
                    CACHE_EVICT,
                    reason="capacity",
                    visited=sample.visited,
                    policy=self.policy_name,
                    score=sample.score,
                )
            self._evict(sample.victim)
            evicted_any = True
            desc = self._allocate_tracked(size)
            if desc is not None:
                return desc, True
        return None, evicted_any

    def _evict(self, entry: CacheEntry) -> None:
        """Evict a CACHED entry that is stored in the index."""
        assert entry.state is _CACHED
        self._release(entry, "evicted")

    def _drop_entry(self, entry: CacheEntry) -> None:
        """Remove an entry wherever it is (index, storage, pending list)."""
        if entry.state is _PENDING:
            self._orphan_waiter_bytes.extend(self._waiter_bytes.pop(entry, ()))
            entry.pending_source = None
            try:
                self._pending.remove(entry)
            except ValueError:
                pass  # was not on the list
        self._release(entry, "dropped")

    def _release(self, entry: CacheEntry, reason: str) -> None:
        """The one way out of the cache: give back slot and storage.

        Every departure — eviction, drop, TRANSPARENT epoch close — ends
        here, so index, storage, state and policy cannot disagree about
        whether an entry is still held.  PENDING bookkeeping (waiters,
        source, the pending list) is the caller's: only it knows whether
        the waiters were already charged.
        """
        if entry.slot >= 0:
            self._index.remove(entry)
        if entry.desc is not None:
            self._release_tracked(entry)
        if entry.state is not _MISSING:
            entry.transition(_MISSING)
        members = self._by_target.get(entry.trg)
        if members:  # a miss that failed before going live is not a member
            i = bisect_left(members, entry.dsp, key=_dsp)
            if i < len(members) and members[i] is entry:
                del members[i]
        self._evictor.notify_free(entry, reason)

    def _resolve_conflict(self, res: InsertResult, entry: CacheEntry) -> bool:
        """Handle a cuckoo insertion failure (conflicting access).

        Evicts the lowest-score CACHED entry on the insertion path and
        re-inserts the homeless tail, retrying a bounded number of times.
        Returns True when ``entry`` ends up stored in the index.
        """
        for _ in range(4):
            homeless = res.homeless
            assert isinstance(homeless, CacheEntry)
            victim = self._evictor.select_conflict_victim(
                [e for e in res.path if isinstance(e, CacheEntry)],
                self._seq,
                self.avg_get_size,
                exclude=entry,
            )
            if victim is None:
                # Nothing evictable on the path: drop the homeless tail.
                self._drop_entry(homeless)
                return homeless is not entry
            self.stats.record_eviction(0, 0, conflict=True)
            if self.obs.wants(CACHE_EVICT):
                self._emit(
                    CACHE_EVICT,
                    reason="conflict",
                    visited=0,
                    policy=self.policy_name,
                    score=self._evictor.score(
                        victim, self._seq, self.avg_get_size
                    ),
                )
            if victim is homeless:
                # Already out of the table; just release its resources.
                self._drop_entry(victim)
                return True
            self._evict(victim)
            res2 = self._index.insert(homeless)
            self.cost.probes(res2.probes)
            if res2.success:
                return True
            res = res2
        self._drop_entry(res.homeless)  # give up on the last homeless tail
        return res.homeless is not entry

    # ------------------------------------------------------------------
    # graceful degradation (fault quarantine)
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while the cache is quarantined and serving gets direct."""
        return self._quarantined

    def _note_storage_fault(self) -> None:
        self._fault_streak += 1
        self.stats.record_storage_fault()

    def _enter_quarantine(self) -> None:
        """Self-disable: drop all content, serve direct until the probe."""
        live = self._purge()
        self._quarantined = True
        self._fault_streak = 0
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
        self._fault_streak = 0
        self._probe_countdown = 0
        if self.obs.wants(CACHE_DEGRADED):
            self._emit(CACHE_DEGRADED, state="re-enabled")

    def _serve_degraded(self, req: CacheGetRequest) -> int:
        """Quarantined get: straight to the network, classified FAILING.

        ``serve_cached_get`` emits the accounting event and then runs the
        probe countdown, in that (telemetry contract) order.
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
            for e in self._live_entries(rank):
                if e.slot >= 0 and self.recovery_mode == "serve-stale":
                    e.pinned = True
                    pinned += 1
                else:
                    self._drop_entry(e)
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
        """A get towards a crashed rank (``serve_cached_get``'s crash check).

        ``serve-stale`` serves exact full hits from the rank's pinned
        entries; anything else — and every get in ``invalidate`` mode —
        is classified FAILING and fails with a deferred
        :class:`TargetFailedError` (raised after the accounting events).
        """
        if self.recovery_mode == "serve-stale":
            self.cost.lookup()
            entry, _probes = self._index.lookup(req.key)
            if (
                isinstance(entry, CacheEntry)
                and entry.state in (_CACHED, _PENDING)
                and entry.covers(req.dtype, req.count, req.size)
            ):
                nbytes = self._serve_full_hit(entry, req.origin, req.size)
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

        still_pending: list[CacheEntry] = []
        for e in self._pending:
            if targets is not None and e.trg not in targets:
                still_pending.append(e)
                continue
            for n in self._waiter_bytes.pop(e, ()):
                self.cost.copy(n)
            if self.mode is _TRANSPARENT and not e.pinned:
                # The entry dies at closure anyway: skip the materialisation
                # copy, release its resources.  This is the whole of
                # TRANSPARENT invalidation: in that mode only pinned
                # entries (serve-stale crash survivors — the only remaining
                # copy of a dead rank's data, which can never be refreshed
                # or go stale) are ever materialised, so every other live
                # entry is PENDING and dies right here.
                e.pending_source = None
                self._release(e, "dropped")
            else:
                assert e.pending_source is not None and e.desc is not None
                self._storage.write(e.desc, e.pending_source[: e.size])
                self.cost.copy(e.size)
                e.pending_source = None
                e.transition(_CACHED)
        self._pending = still_pending

        if self._orphan_waiter_bytes:
            self._charge_orphan_waiters()
        if self._has_injector:
            self._sync_fault_counters()
        if self.obs.wants(CACHE_EPOCH):
            # The hook runs before ``eph`` is bumped: the stamp names the
            # epoch being closed, matching the historical timeline samples.
            t = self.stats.total
            self._emit(
                CACHE_EPOCH, eph=self._win.eph, gets=t.gets, hits=t.hits
            )

    def _live_entries(
        self, target: int | None = None, span: tuple[int, int] | None = None
    ) -> list[CacheEntry]:
        """The one enumeration of live entries, in the order they die.

        Indexed entries in slot order, then the PENDING orphans outside
        the index (homeless tails of an unresolved cuckoo conflict) in
        arrival order — optionally only those of ``target`` and, for a
        write, only those whose target bytes overlap ``span = (lo, hi)``.
        Returns a snapshot, so callers may drop entries while walking it.

        Only without ``target`` does this walk the index; a ``span``
        bisects the target's membership, so a write costs
        O(log n + entries near the written range).
        """
        if target is None:
            orphans = [e for e in self._pending if e.slot < 0]
            return [
                e
                for e in chain(self._index.entries(), orphans)
                if isinstance(e, CacheEntry)
            ]
        live = self._by_target.get(target, [])
        if span is not None:
            lo, hi = span
            du = self._win._group.disp_units[target]
            # start < hi, and start > lo - extent >= lo - largest extent
            first = bisect_right(live, (lo - self._max_extent) // du, key=_dsp)
            last = bisect_left(live, -(-hi // du), key=_dsp)
            live = [
                e
                for e in live[first:last]
                if e.dsp * du + e.dtype.extent * e.count > lo
            ]
        indexed = sorted((e for e in live if e.slot >= 0), key=_slot)
        if len(indexed) == len(live):
            return indexed
        return indexed + [e for e in self._pending if e.slot < 0 and e in live]

    def _charge_orphan_waiters(self) -> None:
        """Charge the copies of waiters whose PENDING entry was dropped."""
        for n in self._orphan_waiter_bytes:
            self.cost.copy(n)
        self._orphan_waiter_bytes = []

    def _purge(self) -> int:
        """Drop the whole content; returns how many entries were indexed.

        The common half of explicit invalidation, quarantine and adaptive
        rebuilds: pinned crash survivors and mid-conflict orphans die too,
        any same-epoch pending waiters are charged immediately, and the
        invalidation itself is charged per indexed entry.
        """
        live = len(self._index)
        for e in self._live_entries():
            self._drop_entry(e)
        self._charge_orphan_waiters()
        self.cost.invalidate(live)
        return live

    def invalidate(self) -> None:
        """CLAMPI_Invalidate: explicitly drop the whole cache content.

        This is the USER_DEFINED-mode call from the paper's Listing 1; any
        same-epoch pending waiters are charged immediately.
        """
        live = self._purge()
        self.stats.record_invalidation()
        if self._has_injector:
            self._sync_fault_counters()
        if self.obs.wants(CACHE_INVALIDATE):
            self._emit(CACHE_INVALIDATE, live=live)

    def check_invariants(self) -> None:
        """Structural audit of the whole caching layer (used by tests).

        Verifies the cross-structure invariants that the get_c engine must
        maintain at every quiescent point:

        * every indexed entry is CACHED or PENDING, knows its slot, and its
          key matches its (trg, dsp);
        * every CACHED entry owns a live storage descriptor large enough
          for its payload and back-referencing it;
        * the pending list is exactly the set of PENDING entries, each with
          a materialisation source;
        * storage bookkeeping (descriptor list, free tree, used bytes) is
          internally consistent.
        """
        live = self._live_entries()
        indexed = [e for e in live if e.slot >= 0]
        assert len(indexed) == len(self._index), "indexed entry lost its slot"
        for e in indexed:
            assert e.state in (_CACHED, _PENDING), e
            assert self._index.entry_at(e.slot) is e, e
            assert e.key == (e.trg, e.dsp), e
            assert e.desc is not None and not e.desc.free, e
            assert e.desc.size >= e.size, e
            assert e.desc.entry is e, e
        pending_in_index = {id(e) for e in indexed if e.state is _PENDING}
        pending_list = {id(e) for e in self._pending}
        assert pending_in_index <= pending_list, "indexed PENDING not tracked"
        for e in self._pending:
            assert e.state is _PENDING, e
            assert e.pending_source is not None, e
        members = [e for trg in sorted(self._by_target) for e in self._by_target[trg]]
        assert members == sorted(live, key=lambda e: (e.trg, e.dsp)), (
            "per-target membership is not the live entries by displacement"
        )
        assert all(e.dtype.extent * e.count <= self._max_extent for e in live)
        used = sum(e.desc.size for e in live if e.desc is not None)
        assert used == self._storage.used_bytes, (
            f"storage accounting: entries hold {used}, "
            f"storage says {self._storage.used_bytes}"
        )
        self._storage.check_invariants()

    def _maybe_adapt(self) -> None:
        """Adaptive check after a get (only called on an adaptive window)."""
        assert self._controller is not None
        if self.stats.interval.gets < self.config.adaptive_params.check_interval:
            return
        if self._cooldown > 0:
            self._cooldown -= 1
            self.stats.reset_interval()
            return
        adj = self._controller.evaluate(
            self.stats,
            self.index_entries,
            self.storage_bytes,
            self._storage.free_bytes,
        )
        self.stats.reset_interval()
        if adj is None:
            return
        self._cooldown = self.config.adaptive_params.cooldown_intervals
        self._apply_adjustment(adj)

    def _apply_adjustment(self, adj: Adjustment) -> None:
        """Resize |I_w|/|S_w|: invalidate, rebuild, charge the rebuild."""
        self._purge()
        self.stats.record_invalidation()
        self.index_entries = adj.index_entries
        self.storage_bytes = adj.storage_bytes
        self._pending = []
        self._build_structures()
        self.cost.adjust(adj.index_entries, adj.storage_bytes)
        self.stats.record_adjustment()
        if self.obs.wants(CACHE_ADAPT):
            self._emit(
                CACHE_ADAPT,
                index_entries=adj.index_entries,
                storage_bytes=adj.storage_bytes,
            )
