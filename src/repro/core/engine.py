"""The CLaMPI cache ``C_w = (I_w, S_w)`` and its get_c flow (paper Sec. III).

:class:`CacheEngine` owns every piece of cache state — the cuckoo index
``I_w``, the storage ``S_w`` and its AVL free tree, the eviction/admission
policy with its victim RNG, the get-sequence accounting, the per-target
membership, the PENDING list, :class:`CacheStats` and :class:`CostModel`
— and knows nothing of windows, epochs or ranks.  Serving one get
(:meth:`CacheEngine.serve`):

1. the index is queried (constant-time cuckoo lookup, charged);
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

Victims come from two places (Sec. III-D): the lowest-score entry on a
cuckoo insertion path, or the lowest-score entry of a random circular
sample of ``M`` index slots ("if the sample is empty, the procedure keeps
scanning until at least one non-empty entry is found").  Only CACHED,
unpinned entries are evictable.  Scoring and admission belong to the bound
:class:`~repro.core.policy.CachePolicy`; the sample's randomness to a
per-engine ``Random(seed + 1)``, so co-resident caches never perturb each
other's eviction choices.

Three callables connect the engine to the world, each bound once at
construction: ``fetch(req)`` issues the network get and returns the bytes
it moved; the :class:`CostModel` ``sink`` receives every virtual-time
charge in issue order; ``on_event(kind, **attrs)`` hears of evictions
(``"evict"``) and refused admissions (``"admit"``).  With a plain function
for ``fetch`` and no sink the engine runs standalone: that is how
``tests/test_core_engine_stateful.py`` drives it against a model of remote
memory.  :class:`~repro.core.window.CachedWindow` is the MPI adapter.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.config import Config, Mode
from repro.core.costmodel import CostModel
from repro.core.cuckoo import CuckooIndex, InsertResult
from repro.core.entry import CacheEntry
from repro.core.policy import CachePolicy, PolicyContext, make_policy
from repro.core.states import EntryState
from repro.core.stats import AccessType, CacheStats
from repro.core.storage import Storage
from repro.mpi.datatypes import COPY_KINDS, Datatype, origin_bytes
from repro.mpi.errors import StorageFault
from repro.net.model import MemoryModel

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


@dataclass(slots=True)
class CacheGetRequest:
    """One ``get_c``: what the engine serves and ``fetch`` issues."""

    origin: np.ndarray
    target: int
    disp: int
    count: int
    dtype: Datatype
    size: int                #: transfer size in bytes
    #: index key ``(target, disp)``: built once, shared by the lookup, the
    #: candidate-slot memo and the entry a miss creates
    key: tuple[int, int]
    # -- the adapter's, untouched by the engine ---------------------------
    quiet: bool = False      #: batch element: suppress the per-op event
    #: deferred failure: raised after accounting/telemetry ran, so both
    #: stay ordered even for refused gets
    failure: Exception | None = None
    #: batch sinks (shared across one get_batch); None on the scalar path
    access_sink: list[dict[str, Any]] | None = None
    net_sink: list[Any] | None = None


def _overrides(policy: CachePolicy, hook: str) -> bool:
    """Is ``policy.<hook>`` anything but the inherited ``CachePolicy`` one?"""
    bound = getattr(policy, hook)
    return getattr(bound, "__func__", None) is not getattr(CachePolicy, hook)


def _no_event(kind: str, **attrs: Any) -> None:
    pass


class CacheEngine:
    """The cache ``C_w`` of one window: state, get_c flow and eviction."""

    def __init__(
        self,
        config: Config,
        fetch: Callable[[CacheGetRequest], int],
        *,
        memory: MemoryModel | None = None,
        sink: Callable[[float], None] | None = None,
        on_event: Callable[..., None] | None = None,
        miss_cost: Callable[[CacheEntry], float] | None = None,
        fault_hook: Callable[[int], None] | None = None,
        disp_units: Sequence[int] | None = None,
    ):
        self.config = config
        self.mode = config.mode
        self.policy_name = config.policy
        self.stats = CacheStats(policy=config.policy)
        self.cost = CostModel(memory=memory, sink=sink)
        self._fetch = fetch
        self._on_event = on_event or _no_event
        #: cost-aware policies weigh victims by the refetch penalty
        self._miss_cost = miss_cost
        self._fault_hook = fault_hook
        #: bytes per displacement unit of each target (None: all 1)
        self._disp_units = disp_units
        self.index_entries = config.index_entries  #: current |I_w|
        self.storage_bytes = config.storage_bytes  #: current |S_w|
        self.seq = 0        #: i — position in the get sequence C_w.G
        self.size_sum = 0   #: running sum of get sizes (for ags)
        self.pending: list[CacheEntry] = []
        #: payload bytes promised to same-epoch hits on a PENDING entry,
        #: charged when it closes (few entries ever have any: not a field)
        self._waiter_bytes: dict[CacheEntry, list[int]] = {}
        #: waiters whose PENDING entry was dropped, charged at the next close
        self.orphan_waiter_bytes: list[int] = []
        #: live entries per target rank, sorted by (unique) displacement:
        #: what a write or a crash looks at.  An entry joins in
        #: ``_serve_miss`` once it holds slot and storage, leaves in
        #: ``_release``.
        self._by_target: dict[int, list[CacheEntry]] = {}
        #: largest target-side extent any entry has had: how far below a
        #: written range an overlapping entry can start
        self._max_extent = 0
        #: consecutive storage faults since the last successful allocation
        self.fault_streak = 0
        self._build()

    def _build(self) -> None:
        """(Re)create index, storage and a freshly bound policy."""
        cfg = self.config
        self.index = CuckooIndex(
            self.index_entries,
            num_hashes=cfg.num_hashes,
            max_iterations=cfg.max_insert_iterations,
            seed=cfg.seed,
        )
        self.storage = Storage(
            self.storage_bytes, fit=cfg.allocator_fit, fault_hook=self._fault_hook
        )
        seed = cfg.seed + 1
        self.policy = make_policy(self.policy_name, seed=seed)
        self.policy.bind(self.index_entries, seed)
        self._rng = random.Random(seed)
        # One reusable context: policy hooks fire once or more per get, so
        # a fresh PolicyContext per decision costs millions of throwaway
        # allocations per run (hooks treat it as ephemeral).
        self._ctx = PolicyContext(
            seq_index=0, avg_get_size=0.0, miss_cost=self._miss_cost
        )
        # Decided once, at bind time: a per-get hook still at the
        # ``CachePolicy`` no-op is never called and gets no context —
        # ``clampi-full`` overrides none.  Read from the *bound* attribute,
        # so a hook assigned on the instance counts; ``on_free`` is cheap
        # and stays unconditional.
        policy = self.policy
        self.wants_hit = _overrides(policy, "on_hit")
        self.wants_miss = _overrides(policy, "on_miss")
        self.wants_insert = _overrides(policy, "on_insert")
        self.wants_admit = _overrides(policy, "admit")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def avg_get_size(self) -> float:
        """``C_w.ags(i)`` — average size of the gets processed so far."""
        return self.size_sum / self.seq if self.seq else 0.0

    def _context(self, entry: CacheEntry | None = None) -> PolicyContext:
        ctx = self._ctx
        ctx.seq_index = self.seq
        ctx.avg_get_size = self.avg_get_size
        ctx.adjacent_free = (
            self.storage.adjacent_free(entry.desc)
            if entry is not None and entry.desc
            else 0
        )
        return ctx

    def score(self, entry: CacheEntry) -> float:
        """``entry``'s score under the bound policy (lower = better victim)."""
        return self.policy.victim_score(entry, self._context(entry))

    # ------------------------------------------------------------------
    # the get_c flow
    # ------------------------------------------------------------------
    def serve(self, req: CacheGetRequest) -> int:
        """Cost-charged consult, then a full hit, a partial hit or a miss.

        Sequence accounting (``seq``, ``size_sum``) is the caller's: it
        counts every classified get, including those never served here.

        The full hit is the whole of this frame: the lookup charge, the
        cuckoo probe over the candidate memo, the identity case of
        :meth:`CacheEntry.covers`, the copy and its charge, and the
        counters (each charge one add and one sink call, in this order).
        Helpers run only off that path: a memo miss, another datatype, an
        origin that cannot take the payload (which raises as a plain get
        does), a policy with an ``on_hit`` hook.
        """
        cost = self.cost
        dt = cost.memory.lookup_time  # CostModel.lookup
        cost.total += dt
        cost._sink(dt)
        key = req.key
        index = self.index
        slots = index._slots  # CuckooIndex.lookup
        entry = None
        for slot in index._cand_memo.get(key) or index._candidates(key):
            e = slots[slot]
            if e is not None and e.key == key:
                entry = e
                break
        if entry is None:
            return self._serve_miss(req)
        state = entry.state
        if state is not _CACHED and state is not _PENDING:
            return self._serve_miss(req)
        dtype, count, size = req.dtype, req.count, req.size
        if not (
            count <= entry.count
            if dtype is entry.dtype and size <= entry.size
            else entry.covers(dtype, count, size)
        ):
            return self._serve_partial_hit(entry, req)
        # -- full hit: the copy through a memoryview (invariant 12); the
        # cast refuses a non-contiguous origin and the assignment a
        # read-only or too-small one before any byte moves.  Any other
        # origin takes numpy's idiom, which raises as the plain get's does
        # (a bad origin before the hit is recorded, a read-only one at
        # the copy) -------------------------------------------------------
        if state is _CACHED:
            d = entry.desc
            src = self.storage.view[d.offset : d.offset + size]
        else:  # PENDING: same data already in flight from an earlier get
            assert entry.pending_source is not None
            src = memoryview(entry.pending_source)[:size]
        origin = req.origin
        obuf = None
        if origin.ndim and origin.dtype.kind in COPY_KINDS:
            try:
                memoryview(origin).cast("B")[:size] = src
            except (TypeError, ValueError):
                obuf = origin_bytes(origin, size)
        else:
            obuf = origin_bytes(origin, size)
        entry.last = self.seq
        if self.wants_hit:
            self.policy.on_hit(entry, self._context(entry))
        if obuf is not None:
            obuf[:size] = src
        if state is _CACHED:
            dt = cost._copy_times.get(size)  # CostModel.copy
            if dt is None:
                cost.copy(size)
            else:
                cost.total += dt
                cost._sink(dt)
            access = _HIT_FULL
        else:
            self._waiter_bytes.setdefault(entry, []).append(size)
            access = _HIT_PENDING
        # CacheStats.record_access + record_cache_bytes
        stats = self.stats
        name = access._value_
        for c in (stats.total, stats.interval):
            c.gets += 1
            c.__dict__[name] += 1
            c.bytes_from_cache += size
        stats.last_access = access
        return size

    def serve_hit(self, req: CacheGetRequest) -> int | None:
        """Serve ``req`` if it is a full hit; None (no access recorded) if not.

        A full hit goes through :meth:`serve`, the one hit implementation;
        anything else is charged the lookup only.
        """
        entry = self.index.lookup(req.key)[0]
        if (
            entry is not None
            and entry.state in (_CACHED, _PENDING)
            and entry.covers(req.dtype, req.count, req.size)
        ):
            return self.serve(req)
        self.cost.lookup()
        return None

    def _serve_partial_hit(self, entry: CacheEntry, req: CacheGetRequest) -> int:
        """Partial hit: refetch everything; extend the entry if space allows."""
        origin, dtype, count, size = req.origin, req.dtype, req.count, req.size
        entry.last = self.seq
        if self.wants_hit:
            self.policy.on_hit(entry, self._context(entry))
        self.stats.record_access(_HIT_PARTIAL)
        nbytes = self._fetch(req)
        self.stats.record_network_bytes(nbytes)
        # Extension: allocate the larger region *first* so a failure leaves
        # the existing (smaller but valid) entry untouched.  No eviction:
        # the allocation and its fault accounting are the miss's first
        # attempt.
        storage, cost = self.storage, self.cost
        s0 = storage.steps
        try:
            new_desc = storage.allocate(size)
        except StorageFault:
            cost.avl_steps(storage.steps - s0)
            self.fault_streak += 1
            self.stats.record_storage_fault()
            return nbytes
        cost.avl_steps(storage.steps - s0)
        if new_desc is None:
            return nbytes
        self.fault_streak = 0
        was_pending = entry.state is _PENDING
        if entry.desc is not None:  # _release's storage steps
            s0 = storage.steps
            storage.release(entry.desc)
            cost.avl_steps(storage.steps - s0)
            cost.descriptor_updates(1)
        entry.desc = new_desc
        new_desc.entry = entry
        entry.relayout(dtype, count)
        self._max_extent = max(self._max_extent, dtype.extent * count)
        entry.pending_source = origin_bytes(origin)[:size]
        if not was_pending:
            entry.transition(_PENDING)
            self.pending.append(entry)
        cost.descriptor_updates(2)
        return nbytes

    def _serve_miss(self, req: CacheGetRequest) -> int:
        """A miss: fetch, index, allocate (evicting if need be), go PENDING.

        A direct miss is this one frame besides the structures it touches
        (``fetch``, the cuckoo insert, the allocation, the state check):
        each charge one add and one sink call, in the order the steps run,
        and the counters bumped in line.  The first allocation attempt and
        the capacity evictions after it are one loop.
        """
        origin, size = req.origin, req.size
        # Issue the remote get immediately: its flight time overlaps all the
        # cache-management work below (Sec. III-B2).
        nbytes = self._fetch(req)
        stats = self.stats
        total, interval = stats.total, stats.interval
        total.bytes_from_network += nbytes  # CacheStats.record_network_bytes
        interval.bytes_from_network += nbytes

        entry = CacheEntry(req.target, req.disp, req.dtype, req.count, req.key, size)
        entry.last = self.seq
        if self.wants_miss:
            self.policy.on_miss(req.key, size, self._context())

        # Oversized requests can never be stored: fail fast, no eviction
        # storm for a sporadically accessed big segment (Sec. III-D2).
        # Storage holds aligned regions, so the aligned size must fit.
        storage = self.storage
        align = storage.alignment  # Storage.allocate's rounding
        if ((size if size > 1 else 1) + align - 1) // align * align > storage.capacity:
            stats.record_access(_FAILING)
            return nbytes

        # Admission gate: a policy may refuse to cache this miss before
        # any index/storage work is spent on it (e.g. TinyLFU rejecting
        # one-hit wonders).  A rejected miss behaves like a failing
        # access: the data was already fetched, nothing is cached.
        if self.wants_admit and not self.policy.admit(entry, self._context()):
            stats.record_access(_FAILING)
            stats.record_admission_reject()
            self._on_event(
                "admit",
                admitted=False,
                policy=self.policy_name,
                target=req.target,
                disp=req.disp,
                nbytes=size,
            )
            return nbytes

        cost = self.cost
        memory = cost.memory
        res = self.index.insert(entry)
        dt = res.probes * memory.probe_time  # CostModel.probes
        cost.total += dt
        cost._sink(dt)
        conflicted = not res.success
        if conflicted and not self._resolve_conflict(res, entry):
            stats.record_access(_FAILING)
            return nbytes

        # Allocate; on failure run the bounded capacity eviction (weak
        # caching), retrying after each victim.
        evicted = False
        budget = self.config.max_capacity_evictions
        while True:
            s0 = storage.steps
            try:
                desc = storage.allocate(size)
            except StorageFault:
                # Injected memory pressure: behaves like a failed
                # allocation, but the streak is what quarantines a cache.
                dt = (storage.steps - s0) * memory.avl_step_time
                cost.total += dt
                cost._sink(dt)
                self.fault_streak += 1
                stats.record_storage_fault()
                desc = None
            else:
                dt = (storage.steps - s0) * memory.avl_step_time  # avl_steps
                cost.total += dt
                cost._sink(dt)
                if desc is not None:
                    self.fault_streak = 0
                    break
            if not budget:
                break
            budget -= 1
            victim, visited, nonempty, score = self.sample_capacity_victim()
            dt = visited * memory.eviction_visit_time  # CostModel.eviction_visits
            cost.total += dt
            cost._sink(dt)
            if victim is None:
                break
            for c in (total, interval):  # CacheStats.record_eviction
                c.evictions += 1
                c.capacity_evictions += 1
                c.eviction_visited += visited
                c.eviction_nonempty += nonempty
            self._on_event(
                "evict",
                reason="capacity",
                visited=visited,
                policy=self.policy_name,
                score=score,
            )
            self._release(victim, "evicted")
            evicted = True
        if desc is None:
            self.index.remove(entry)
            access = _FAILING
        else:
            entry.desc = desc
            desc.entry = entry
            entry.transition(_PENDING)
            # The PENDING source: the origin's bytes through a memoryview
            # when the hit's origin test passes and the cast takes it,
            # numpy's view otherwise (origin_bytes raises for an origin
            # that is not C-contiguous).
            src = None
            if origin.ndim and origin.dtype.kind in COPY_KINDS:
                try:
                    src = memoryview(origin).cast("B")[:size]
                except TypeError:
                    pass
            if src is None:
                src = origin_bytes(origin)[:size]
            entry.pending_source = src
            self.pending.append(entry)
            # The entry is live from here (slot, storage, PENDING) until _release.
            insort(self._by_target.setdefault(req.target, []), entry, key=_dsp)
            extent = req.dtype.extent * req.count
            if extent > self._max_extent:
                self._max_extent = extent
            dt = memory.descriptor_update_time  # CostModel.descriptor_updates(1)
            cost.total += dt
            cost._sink(dt)
            if self.wants_insert:
                self.policy.on_insert(entry, self._context(entry))
            access = _CONFLICTING if conflicted else _CAPACITY if evicted else _DIRECT
        name = access._value_  # CacheStats.record_access
        for c in (total, interval):
            c.gets += 1
            c.__dict__[name] += 1
        stats.last_access = access
        return nbytes

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def sample_capacity_victim(self) -> tuple[CacheEntry | None, int, int, float]:
        """``(victim, visited, nonempty, score)`` of one sampling walk.

        Visits ``M`` consecutive slots of ``I_w`` (a circular array) from a
        random start and picks the lowest-score CACHED, unpinned entry; if
        none of them holds an entry it keeps scanning until one does or
        the whole table has been visited.  ``visited`` and ``nonempty``
        are the sparsity signal ``q`` of the adaptive controller
        (Sec. III-E1, Fig. 11).

        The slots are read as one list slice (two at the wrap) and the
        empty ones skipped by C-level iteration (``filter``: an entry is
        truthy, an empty slot is None, and an indexed entry's ``slot`` is
        where it sits), so a sample costs the same interpreter steps however
        sparse the index is; only occupied slots are scored, in visiting
        order, the first lowest score winning.
        """
        slots = self.index._slots
        cap = len(slots)
        start = self._rng._randbelow(cap)  # the one draw randrange(cap) makes
        m = self.config.sample_size
        if m > cap:
            m = cap
        end = start + m
        window = slots[start:end] if end <= cap else slots[start:] + slots[: end - cap]
        visited = m
        nonempty = m - window.count(None)
        if not nonempty:
            if m == cap:
                return None, cap, 0, float("inf")
            # Paper stopping rule: v_i = max(M, k_i) — an empty sample keeps
            # scanning up to the first occupied slot or the whole table.  A
            # sample holding only PENDING (non-evictable) entries yields no
            # victim; the access then fails (weak caching).
            rest = (
                chain(islice(slots, end, None), islice(slots, start))
                if end <= cap
                else islice(slots, end - cap, start)
            )
            entry = next(filter(None, rest), None)
            if entry is None:
                return None, cap, 0, float("inf")
            visited = (entry.slot - start) % cap + 1
            nonempty = 1
            window = (entry,)
        # The context's per-get fields are set once per sample.
        ctx = self._ctx
        seq = ctx.seq_index = self.seq
        ctx.avg_get_size = self.size_sum / seq if seq else 0.0
        adjacent_free = self.storage.adjacent_free
        victim_score = self.policy.victim_score
        best: CacheEntry | None = None
        best_score = float("inf")
        for entry in filter(None, window):
            if entry.state is _CACHED and not entry.pinned:
                desc = entry.desc
                ctx.adjacent_free = adjacent_free(desc) if desc else 0
                s = victim_score(entry, ctx)
                if s < best_score:
                    best_score = s
                    best = entry
        return best, visited, nonempty, best_score

    def select_conflict_victim(
        self, path: list[CacheEntry], exclude: CacheEntry | None = None
    ) -> tuple[CacheEntry | None, float]:
        """Lowest-score evictable entry on a cuckoo insertion path, and its score.

        As in :meth:`sample_capacity_victim`, the context's per-get fields
        and the scoring hook are bound once per eviction.
        """
        best: CacheEntry | None = None
        best_score = float("inf")
        ctx = self._ctx
        seq = ctx.seq_index = self.seq
        ctx.avg_get_size = self.size_sum / seq if seq else 0.0
        adjacent_free = self.storage.adjacent_free
        victim_score = self.policy.victim_score
        for e in path:
            if e is exclude or e.state is not _CACHED or e.pinned:
                continue
            desc = e.desc
            ctx.adjacent_free = adjacent_free(desc) if desc else 0
            s = victim_score(e, ctx)
            if s < best_score:
                best_score = s
                best = e
        return best, best_score

    def _resolve_conflict(self, res: InsertResult, entry: CacheEntry) -> bool:
        """Handle a cuckoo insertion failure (conflicting access).

        Evicts the lowest-score CACHED entry on the insertion path and
        re-inserts the homeless tail, retrying a bounded number of times.
        Returns True when ``entry`` ends up stored in the index.
        """
        for _ in range(4):
            homeless = res.homeless
            assert isinstance(homeless, CacheEntry)
            victim, score = self.select_conflict_victim(res.path, exclude=entry)
            if victim is None:
                # Nothing evictable on the path: drop the homeless tail.
                self.drop(homeless)
                return homeless is not entry
            self.stats.record_eviction(0, 0, conflict=True)
            self._on_event(
                "evict",
                reason="conflict",
                visited=0,
                policy=self.policy_name,
                score=score,
            )
            if victim is homeless:
                # Already out of the table; just release its resources.
                self.drop(victim)
                return True
            self._release(victim, "evicted")
            res = self.index.insert(homeless)
            self.cost.probes(res.probes)
            if res.success:
                return True
        self.drop(res.homeless)  # give up on the last homeless tail
        return res.homeless is not entry

    # ------------------------------------------------------------------
    # departures
    # ------------------------------------------------------------------
    def drop(self, entry: CacheEntry) -> None:
        """Remove an entry wherever it is (index, storage, pending list)."""
        if entry.state is _PENDING:
            self.orphan_waiter_bytes.extend(self._waiter_bytes.pop(entry, ()))
            entry.pending_source = None
            try:
                self.pending.remove(entry)
            except ValueError:
                pass  # was not on the list
        self._release(entry, "dropped")

    def _release(self, entry: CacheEntry, reason: str) -> None:
        """The one way out of the cache: give back slot and storage.

        Every departure — eviction, drop, TRANSPARENT epoch close — ends
        here, so index, storage, state and policy cannot disagree about
        whether an entry is still held; ``on_free`` fires once the entry
        is out of both.  PENDING bookkeeping (waiters, source, the pending
        list) is the caller's: only it knows whether the waiters were
        already charged.  The storage steps are charged, then the
        descriptor update, each in line.
        """
        if entry.slot >= 0:
            self.index.remove(entry)
        desc = entry.desc
        if desc is not None:
            storage, cost = self.storage, self.cost
            s0 = storage.steps
            storage.release(desc)
            dt = (storage.steps - s0) * cost.memory.avl_step_time  # avl_steps
            cost.total += dt
            cost._sink(dt)
            dt = cost.memory.descriptor_update_time  # descriptor_updates(1)
            cost.total += dt
            cost._sink(dt)
            entry.desc = None
        if entry.state is not _MISSING:
            entry.transition(_MISSING)
        members = self._by_target.get(entry.trg)
        if members:  # a miss that failed before going live is not a member
            i = bisect_left(members, entry.dsp, key=_dsp)
            if i < len(members) and members[i] is entry:
                del members[i]
        self.policy.on_free(entry, reason)

    def live_entries(
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
            orphans = [e for e in self.pending if e.slot < 0]
            return [*self.index.entries(), *orphans]
        live = self._by_target.get(target, [])
        if span is not None:
            lo, hi = span
            du = self._disp_units[target] if self._disp_units else 1
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
        return indexed + [e for e in self.pending if e.slot < 0 and e in live]

    def invalidate_span(self, target: int, lo: int, hi: int) -> None:
        """Drop ``target``'s live entries overlapping bytes [lo, hi) (a write)."""
        victims = self.live_entries(target, (lo, hi))
        for e in victims:
            self.drop(e)
        if victims:
            self.cost.descriptor_updates(len(victims))

    def close_epoch(self, targets: set[int] | None = None) -> None:
        """Materialise or drop what the closing epoch left PENDING.

        ``targets`` limits the close to entries of those ranks (a per-target
        flush); None closes everything.  Same-epoch waiters are charged
        their copies here, and so are orphans of dropped entries.
        """
        still_pending: list[CacheEntry] = []
        waiters = self._waiter_bytes
        transparent = self.mode is _TRANSPARENT
        write = self.storage.write
        cost = self.cost
        copy_times = cost._copy_times
        for e in self.pending:
            if targets is not None and e.trg not in targets:
                still_pending.append(e)
                continue
            if waiters:
                for n in waiters.pop(e, ()):
                    cost.copy(n)
            if transparent and not e.pinned:
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
                n = e.size
                write(e.desc, e.pending_source[:n])
                dt = copy_times.get(n)  # CostModel.copy
                if dt is None:
                    cost.copy(n)
                else:
                    cost.total += dt
                    cost._sink(dt)
                e.pending_source = None
                e.transition(_CACHED)
        self.pending = still_pending
        if self.orphan_waiter_bytes:
            self._charge_orphan_waiters()

    def _charge_orphan_waiters(self) -> None:
        for n in self.orphan_waiter_bytes:
            self.cost.copy(n)
        self.orphan_waiter_bytes = []

    def purge(self) -> int:
        """Drop the whole content; returns how many entries were indexed.

        Pinned crash survivors and mid-conflict orphans die too, any
        same-epoch pending waiters are charged immediately, and the
        invalidation itself is charged per indexed entry.
        """
        live = len(self.index)
        for e in self.live_entries():
            self.drop(e)
        self._charge_orphan_waiters()
        self.cost.invalidate(live)
        return live

    def resize(self, index_entries: int, storage_bytes: int) -> None:
        """Adaptive resize of |I_w| / |S_w|: purge, rebuild, charge the rebuild.

        The rebuild re-seeds the index (``seed``), the victim RNG and a new
        policy instance (``seed + 1``), exactly as at construction.
        """
        self.purge()
        self.stats.record_invalidation()
        self.index_entries = index_entries
        self.storage_bytes = storage_bytes
        self.pending = []
        self._build()
        self.cost.adjust(index_entries, storage_bytes)
        self.stats.record_adjustment()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural audit of the whole cache (used by tests).

        Verifies the cross-structure invariants the get_c flow must
        maintain at every quiescent point:

        * every indexed entry is CACHED or PENDING, knows its slot, and its
          key matches its (trg, dsp);
        * every indexed entry owns a live storage descriptor large enough
          for its payload and back-referencing it;
        * the pending list is exactly the set of PENDING entries, each with
          a materialisation source;
        * the per-target membership is exactly the live entries;
        * storage bookkeeping (descriptor list, free tree, used bytes) is
          internally consistent.
        """
        live = self.live_entries()
        indexed = [e for e in live if e.slot >= 0]
        assert len(indexed) == len(self.index), "indexed entry lost its slot"
        for e in indexed:
            assert e.state in (_CACHED, _PENDING), e
            assert self.index.entry_at(e.slot) is e, e
            assert e.key == (e.trg, e.dsp), e
            assert e.desc is not None and not e.desc.free, e
            assert e.desc.size >= e.size, e
            assert e.desc.entry is e, e
        pending_in_index = {id(e) for e in indexed if e.state is _PENDING}
        pending_list = {id(e) for e in self.pending}
        assert pending_in_index <= pending_list, "indexed PENDING not tracked"
        for e in self.pending:
            assert e.state is _PENDING, e
            assert e.pending_source is not None, e
        members = [e for trg in sorted(self._by_target) for e in self._by_target[trg]]
        assert members == sorted(live, key=lambda e: (e.trg, e.dsp)), (
            "per-target membership is not the live entries by displacement"
        )
        assert all(e.dtype.extent * e.count <= self._max_extent for e in live)
        used = sum(e.desc.size for e in live if e.desc is not None)
        assert used == self.storage.used_bytes, (
            f"storage accounting: entries hold {used}, "
            f"storage says {self.storage.used_bytes}"
        )
        self.storage.check_invariants()
