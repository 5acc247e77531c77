"""The cache engine's miss side as it stood before the in-line rewrite.

``ReferenceEngine`` is :class:`~repro.core.engine.CacheEngine` with the
parent commit's (``9006a9b``) miss-side methods kept verbatim: the miss,
the partial hit, ``_allocate`` / ``_allocate_with_eviction``, the victim
sample and the conflict-victim scan, ``_release`` / ``_release_storage``
and ``close_epoch``; its index is ``ParentCuckooIndex`` (that commit's
``CuckooIndex.insert``) and its storage ``ReferenceStorage`` (that
commit's ``Storage.allocate`` over the recursive AVL tree of
``reference_structures``).  The only edit is the oversized-get test of
``_serve_miss``, which compares the aligned size (Sec. III-D2).

Every virtual-time charge, RNG draw, slot, storage region, counter and
event of a run is a function of these methods, so the rewritten engine
must agree with this one call for call
(``tests/test_core_engine_differential.py``).
"""

from __future__ import annotations

from bisect import bisect_left, insort

from reference_structures import RecursiveAVLTree

from repro.core.cuckoo import CuckooIndex, Indexable, InsertResult
from repro.core.engine import (
    _CACHED,
    _CAPACITY,
    _CONFLICTING,
    _DIRECT,
    _FAILING,
    _MISSING,
    _PENDING,
    _TRANSPARENT,
    CacheEngine,
    CacheGetRequest,
    _dsp,
)
from repro.core.entry import CacheEntry
from repro.core.stats import AccessType
from repro.core.storage import Descriptor, Storage
from repro.mpi.datatypes import origin_bytes
from repro.mpi.errors import StorageFault
from repro.util import align_up

_HIT_PARTIAL = AccessType.HIT_PARTIAL


class ParentCuckooIndex(CuckooIndex):
    """``CuckooIndex`` with the single-scan ``insert`` that builds a result
    and a path on every call."""

    def insert(self, entry: Indexable) -> InsertResult:
        """Random-walk insertion; never rehashes.

        On success the entry (and any displaced entries) have valid
        ``slot`` fields.  On failure the table is left *consistent* —
        every stored entry is reachable — and ``homeless`` carries the
        entry that could not be placed (it may be ``entry`` itself or a
        displaced occupant); ``path`` lists the distinct entries visited,
        i.e. the candidates for a conflict eviction.  A key that is already
        stored raises ``ValueError`` before anything moves.
        """
        key = entry.key
        slots = self._slots
        probes = 0
        path: list[Indexable] = []
        current = entry
        last_slot = -1  # slot we were just displaced from (avoid ping-pong)
        for _ in range(self.max_iterations):
            # One scan of the current item's candidate slots finds its
            # first free one and, for the new entry, a duplicate of its key
            # (which can only sit in one of exactly these slots).
            ckey = current.key
            cands = self._cand_memo.get(ckey) or self._candidates(ckey)
            probes += len(cands)
            free = -1
            for s in cands:
                occupant = slots[s]
                if occupant is None:
                    if free < 0:
                        free = s
                elif current is entry and occupant.key == key:
                    raise ValueError(f"duplicate key {key}")
            if free >= 0:
                self._place(current, free)
                self._count += 1  # net effect of the whole walk: one new entry
                return InsertResult(True, probes, path)
            # No free slot: displace a random occupant (not the slot we
            # came from, when avoidable).
            choices = [s for s in cands if s != last_slot] or cands
            slot = choices[self._rng.randrange(len(choices))]
            victim = slots[slot]
            assert victim is not None
            for seen in path:
                if seen is victim:
                    break
            else:
                path.append(victim)
            slots[slot] = None  # pop the victim, then place current
            self._place(current, slot)
            current = victim
            current.slot = -1
            last_slot = slot
        # Cycle detected: undo nothing (table is consistent), report the
        # homeless tail so the caller can evict somebody on ``path``.
        return InsertResult(False, probes, path, homeless=current)


class ReferenceStorage(Storage):
    """``Storage`` with the ``align_up`` allocate and its ``_link_before``,
    over the recursive AVL tree."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._free_tree = RecursiveAVLTree()
        self._free_tree.insert((self._head.size, self._head.offset), self._head)

    def _link_before(self, new: Descriptor, anchor: Descriptor) -> None:
        new.prev = anchor.prev
        new.next = anchor
        if anchor.prev is not None:
            anchor.prev.next = new
        else:
            self._head = new
        anchor.prev = new

    def allocate(self, nbytes: int) -> Descriptor | None:
        """Best-fit allocate ``nbytes`` (rounded up to the alignment).

        Returns the used descriptor, or ``None`` if no free region is large
        enough (external fragmentation or genuine lack of space).
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        want = align_up(max(nbytes, 1), self.alignment)
        if self._fault_hook is not None:
            self._fault_hook(want)  # may raise StorageFault (injected pressure)
        if self.fit == "best":
            key, region, steps = self._free_tree.ceiling(want)
            self.steps += steps
            if key is None:
                return None
        else:  # first fit: offset-order walk of the descriptor list
            region = None
            for d in self.descriptors():
                self.steps += 1
                if d.free and d.size >= want:
                    region = d
                    break
            if region is None:
                return None
            key = (region.size, region.offset)
        assert isinstance(region, Descriptor) and region.free
        self.steps += self._free_tree.remove(key)
        if region.size == want:
            region.free = False
            self.used_bytes += want
            return region
        # Split: the used part sits at the start; the remainder stays free
        # and keeps ``region``'s descriptor (so its list links survive).
        used = Descriptor(region.offset, want, free=False)
        region.offset += want
        region.size -= want
        self._link_before(used, region)
        self.steps += self._free_tree.insert((region.size, region.offset), region)
        self.used_bytes += want
        return used


class ReferenceEngine(CacheEngine):
    """``CacheEngine`` with the parent commit's miss side."""

    def _build(self) -> None:
        super()._build()
        cfg = self.config
        self.index = ParentCuckooIndex(
            self.index_entries,
            num_hashes=cfg.num_hashes,
            max_iterations=cfg.max_insert_iterations,
            seed=cfg.seed,
        )
        self.storage = ReferenceStorage(
            self.storage_bytes, fit=cfg.allocator_fit, fault_hook=self._fault_hook
        )

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
        # the existing (smaller but valid) entry untouched.
        new_desc = self._allocate(size)
        if new_desc is None:
            return nbytes
        was_pending = entry.state is _PENDING
        if entry.desc is not None:
            self._release_storage(entry)
        entry.desc = new_desc
        new_desc.entry = entry
        entry.relayout(dtype, count)
        self._max_extent = max(self._max_extent, dtype.extent * count)
        entry.pending_source = origin_bytes(origin)[:size]
        if not was_pending:
            entry.transition(_PENDING)
            self.pending.append(entry)
        self.cost.descriptor_updates(2)
        return nbytes

    def _serve_miss(self, req: CacheGetRequest) -> int:
        origin, dtype, count, size = req.origin, req.dtype, req.count, req.size
        # Issue the remote get immediately: its flight time overlaps all the
        # cache-management work below (Sec. III-B2).
        nbytes = self._fetch(req)
        self.stats.record_network_bytes(nbytes)

        entry = CacheEntry(req.target, req.disp, dtype, count, req.key)
        entry.last = self.seq
        if self.wants_miss:
            self.policy.on_miss(req.key, size, self._context())

        # Oversized requests can never be stored: fail fast, no eviction
        # storm for a sporadically accessed big segment (Sec. III-D2).
        if align_up(max(size, 1), self.storage.alignment) > self.storage.capacity:
            self.stats.record_access(_FAILING)
            return nbytes

        # Admission gate: a policy may refuse to cache this miss before
        # any index/storage work is spent on it (e.g. TinyLFU rejecting
        # one-hit wonders).  A rejected miss behaves like a failing
        # access: the data was already fetched, nothing is cached.
        if self.wants_admit and not self.policy.admit(entry, self._context()):
            self.stats.record_access(_FAILING)
            self.stats.record_admission_reject()
            self._on_event(
                "admit",
                admitted=False,
                policy=self.policy_name,
                target=req.target,
                disp=req.disp,
                nbytes=size,
            )
            return nbytes

        res = self.index.insert(entry)
        self.cost.probes(res.probes)
        conflicted = not res.success
        if conflicted and not self._resolve_conflict(res, entry):
            self.stats.record_access(_FAILING)
            return nbytes

        desc, evicted = self._allocate_with_eviction(size)
        if desc is None:
            self.index.remove(entry)
            self.stats.record_access(_FAILING)
            return nbytes

        entry.desc = desc
        desc.entry = entry
        entry.transition(_PENDING)
        entry.pending_source = origin_bytes(origin)[:size]
        self.pending.append(entry)
        # The entry is live from here (slot, storage, PENDING) until _release.
        insort(self._by_target.setdefault(req.target, []), entry, key=_dsp)
        self._max_extent = max(self._max_extent, dtype.extent * count)
        self.cost.descriptor_updates(1)
        if self.wants_insert:
            self.policy.on_insert(entry, self._context(entry))

        if conflicted:
            self.stats.record_access(_CONFLICTING)
        elif evicted:
            self.stats.record_access(_CAPACITY)
        else:
            self.stats.record_access(_DIRECT)
        return nbytes

    def _allocate(self, size: int) -> Descriptor | None:
        storage = self.storage
        s0 = storage.steps
        try:
            desc = storage.allocate(size)
        except StorageFault:
            # Injected memory pressure: behaves like a failed allocation,
            # but the streak is what quarantines a cache.
            self.cost.avl_steps(storage.steps - s0)
            self.fault_streak += 1
            self.stats.record_storage_fault()
            return None
        self.cost.avl_steps(storage.steps - s0)
        if desc is not None:
            self.fault_streak = 0
        return desc

    def _release_storage(self, entry: CacheEntry) -> None:
        assert entry.desc is not None
        s0 = self.storage.steps
        self.storage.release(entry.desc)
        self.cost.avl_steps(self.storage.steps - s0)
        self.cost.descriptor_updates(1)
        entry.desc = None

    def _allocate_with_eviction(self, size: int) -> tuple[Descriptor | None, bool]:
        """Best-fit allocate; on failure run the bounded capacity eviction."""
        desc = self._allocate(size)
        if desc is not None:
            return desc, False
        evicted_any = False
        for _ in range(self.config.max_capacity_evictions):
            victim, visited, nonempty, score = self.sample_capacity_victim()
            self.cost.eviction_visits(visited)
            if victim is None:
                break
            self.stats.record_eviction(visited, nonempty, conflict=False)
            self._on_event(
                "evict",
                reason="capacity",
                visited=visited,
                policy=self.policy_name,
                score=score,
            )
            self._release(victim, "evicted")
            evicted_any = True
            desc = self._allocate(size)
            if desc is not None:
                return desc, True
        return None, evicted_any

    def sample_capacity_victim(self) -> tuple[CacheEntry | None, int, int, float]:
        """``(victim, visited, nonempty, score)`` of one sampling walk.

        Visits ``M`` consecutive slots of ``I_w`` (a circular array) from a
        random start and picks the lowest-score CACHED, unpinned entry; if
        none of them holds an entry it keeps scanning until one does or
        the whole table has been visited.  ``visited`` and ``nonempty``
        are the sparsity signal ``q`` of the adaptive controller
        (Sec. III-E1, Fig. 11).
        """
        cap = self.index.capacity
        start = self._rng.randrange(cap)
        visited = 0
        nonempty = 0
        best: CacheEntry | None = None
        best_score = float("inf")
        # ~M slots per victim: everything that is the same for each of them
        # is looked up once, and the context's per-get fields are set once.
        entry_at = self.index.entry_at
        adjacent_free = self.storage.adjacent_free
        victim_score = self.policy.victim_score
        ctx = self._context()
        sample_size = self.config.sample_size
        i = start
        while visited < cap:
            entry = entry_at(i)
            visited += 1
            if entry is not None:
                nonempty += 1
                if entry.state is _CACHED and not entry.pinned:
                    ctx.adjacent_free = (
                        adjacent_free(entry.desc) if entry.desc else 0
                    )
                    s = victim_score(entry, ctx)
                    if s < best_score:
                        best_score = s
                        best = entry
            i = (i + 1) % cap
            # Paper stopping rule: v_i = max(M, k_i) — visit M entries, and
            # keep scanning only while the sample is still empty.  A sample
            # containing only PENDING (non-evictable) entries yields no
            # victim; the access then fails (weak caching).
            if visited >= sample_size and nonempty > 0:
                break
        return best, visited, nonempty, best_score

    def select_conflict_victim(
        self, path: list[CacheEntry], exclude: CacheEntry | None = None
    ) -> tuple[CacheEntry | None, float]:
        """Lowest-score evictable entry on a cuckoo insertion path, and its score."""
        best: CacheEntry | None = None
        best_score = float("inf")
        for e in path:
            if e is exclude or e.state is not _CACHED or e.pinned:
                continue
            s = self.score(e)
            if s < best_score:
                best_score = s
                best = e
        return best, best_score

    def _release(self, entry: CacheEntry, reason: str) -> None:
        """The one way out of the cache: give back slot and storage.

        Every departure — eviction, drop, TRANSPARENT epoch close — ends
        here, so index, storage, state and policy cannot disagree about
        whether an entry is still held; ``on_free`` fires once the entry
        is out of both.  PENDING bookkeeping (waiters, source, the pending
        list) is the caller's: only it knows whether the waiters were
        already charged.
        """
        if entry.slot >= 0:
            self.index.remove(entry)
        if entry.desc is not None:
            self._release_storage(entry)
        if entry.state is not _MISSING:
            entry.transition(_MISSING)
        members = self._by_target.get(entry.trg)
        if members:  # a miss that failed before going live is not a member
            i = bisect_left(members, entry.dsp, key=_dsp)
            if i < len(members) and members[i] is entry:
                del members[i]
        self.policy.on_free(entry, reason)

    def close_epoch(self, targets: set[int] | None = None) -> None:
        """Materialise or drop what the closing epoch left PENDING.

        ``targets`` limits the close to entries of those ranks (a per-target
        flush); None closes everything.  Same-epoch waiters are charged
        their copies here, and so are orphans of dropped entries.
        """
        still_pending: list[CacheEntry] = []
        for e in self.pending:
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
                self.storage.write(e.desc, e.pending_source[: e.size])
                self.cost.copy(e.size)
                e.pending_source = None
                e.transition(_CACHED)
        self.pending = still_pending
        if self.orphan_waiter_bytes:
            self._charge_orphan_waiters()
