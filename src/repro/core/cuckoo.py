"""The index ``I_w``: a cuckoo hash table (paper Sec. III-C1).

Entries are keyed by ``(target_rank, displacement)`` — the paper defines a
hit as ``x.trg == i.trg and x.dsp == i.dsp``, which is what makes the index
a constant-lookup-time structure (as opposed to overlap queries on interval
trees).

Collision resolution follows Fotakis et al. ("space efficient hash tables
with worst case constant access time"): ``p`` universal hash functions give
each key ``p`` candidate slots; insertion performs a random walk displacing
occupants; the walk is bounded to detect cycles.  CLaMPI's twist: instead of
rehashing on insertion failure, the failure is surfaced as a *conflicting
access* and one of the entries on the **insertion path** is evicted
(Sec. III-D).

The table never grows by itself — resizing is the adaptive controller's job
and implies a full invalidation (Sec. III-E1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Protocol

_PRIME = (1 << 61) - 1  # Mersenne prime for universal hashing


class Indexable(Protocol):
    """What the index needs from an entry: a key and a writable slot."""

    key: tuple[int, int]
    slot: int


def _mix_key(key: tuple[int, int]) -> int:
    """Map an (trg, dsp) key to a well-spread 64-bit integer."""
    trg, dsp = key
    x = (trg * 0x9E3779B97F4A7C15 + dsp * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return x


@dataclass(slots=True)
class InsertResult:
    """Outcome of one insertion attempt.

    A placement that displaced nobody returns the index's one shared
    ``placed`` result (read-only: ``path`` is an empty tuple); only a walk
    builds its own.
    """

    success: bool
    probes: int = 0
    #: entries visited along the insertion path (for conflict eviction)
    path: list | tuple = field(default_factory=list)
    #: the entry left homeless on failure (the displaced chain's tail)
    homeless: object | None = None


class CuckooIndex:
    """Fixed-capacity cuckoo hash table over cache entries."""

    def __init__(
        self,
        capacity: int,
        num_hashes: int = 4,
        max_iterations: int = 32,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_hashes < 2:
            raise ValueError("need at least 2 hash functions")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.capacity = capacity
        self.num_hashes = num_hashes
        self.max_iterations = max_iterations
        self._rng = random.Random(seed)
        # Universal hashing: h_i(x) = ((a_i * x + b_i) mod P) mod capacity
        self._coeffs = [
            (self._rng.randrange(1, _PRIME), self._rng.randrange(0, _PRIME))
            for _ in range(num_hashes)
        ]
        self._slots: list[Indexable | None] = [None] * capacity
        self._count = 0
        # Candidate-slot memo: h_1..h_p are pure functions of the key (the
        # coefficients and capacity are fixed for the table's lifetime), and
        # workloads re-probe the same (trg, dsp) keys millions of times, so
        # mixing + p modular hashes are computed once per distinct key.  The
        # memo is bounded (cleared wholesale when full) so adversarial key
        # streams cannot grow it without limit.
        self._cand_memo: dict[tuple[int, int], tuple[int, ...]] = {}
        self._memo_limit = max(1024, 8 * capacity)
        #: the result of every insert that found a free candidate slot at
        #: once: it always probed the key's p candidates, so one immutable
        #: result serves them all and a direct miss allocates nothing
        self.placed = InsertResult(True, num_hashes, ())

    # ------------------------------------------------------------------
    def _candidates(self, key: tuple[int, int]) -> tuple[int, ...]:
        """All p candidate slots of ``key``, memoized."""
        c = self._cand_memo.get(key)
        if c is None:
            if len(self._cand_memo) >= self._memo_limit:
                self._cand_memo.clear()
            mix = _mix_key(key)
            cap = self.capacity
            cands = []
            for a, b in self._coeffs:
                cands.append(((a * mix + b) % _PRIME) % cap)
            c = self._cand_memo[key] = tuple(cands)
        return c

    def candidate_slots(self, key: tuple[int, int]) -> list[int]:
        """The p candidate slot indices of ``key`` (may contain repeats)."""
        return list(self._candidates(key))

    # ------------------------------------------------------------------
    def lookup(self, key: tuple[int, int]) -> tuple[Indexable | None, int]:
        """Return ``(entry, probes)``; entry is None on miss.

        Worst-case constant time: at most ``p`` probes.
        :meth:`CacheEngine.serve` runs the same probe in line.
        """
        probes = 0
        slots = self._slots
        for slot in self._cand_memo.get(key) or self._candidates(key):
            probes += 1
            e = slots[slot]
            if e is not None and e.key == key:
                return e, probes
        return None, probes

    def insert(self, entry: Indexable) -> InsertResult:
        """Random-walk insertion; never rehashes.

        On success the entry (and any displaced entries) have valid
        ``slot`` fields.  An entry that finds a free candidate slot at once
        gets the shared :attr:`placed` result: no result and no ``path``
        are built unless the walk displaces an occupant.  On failure the
        table is left *consistent* — every stored entry is reachable — and
        ``homeless`` carries the entry that could not be placed (it may be
        ``entry`` itself or a displaced occupant); ``path`` lists the
        distinct entries visited, i.e. the candidates for a conflict
        eviction.  A key that is already stored raises ``ValueError``
        before anything moves.
        """
        key = entry.key
        slots = self._slots
        # The first step, for the new entry: one scan of its candidate
        # slots finds the first free one and a duplicate of its key (which
        # can only sit in one of exactly these slots).
        cands = self._cand_memo.get(key) or self._candidates(key)
        free = -1
        for s in cands:
            occupant = slots[s]
            if occupant is None:
                if free < 0:
                    free = s
            elif occupant.key == key:
                raise ValueError(f"duplicate key {key}")
        if free >= 0:
            slots[free] = entry  # _place
            entry.slot = free
            self._count += 1
            return self.placed
        # Every candidate is taken: the random walk, from the scan above.
        probes = len(cands)
        path: list[Indexable] = []
        current = entry
        last_slot = -1  # slot we were just displaced from (avoid ping-pong)
        for step in range(self.max_iterations):
            if step:  # the displaced occupant's turn to find a free slot
                ckey = current.key
                cands = self._cand_memo.get(ckey) or self._candidates(ckey)
                probes += len(cands)
                for s in cands:
                    if slots[s] is None:
                        self._place(current, s)
                        self._count += 1  # net effect of the walk: one new entry
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

    def remove(self, entry: Indexable) -> None:
        """Remove a stored entry in O(1) via its slot."""
        slot = entry.slot
        if slot < 0 or slot >= self.capacity or self._slots[slot] is not entry:
            raise KeyError(f"entry {entry.key} not stored in this index")
        self._slots[slot] = None
        entry.slot = -1
        self._count -= 1

    def _place(self, entry: Indexable, slot: int) -> None:
        """Store ``entry`` at ``slot``; count bookkeeping is the caller's.

        During the random walk a placement always pairs with a displacement
        (net zero), so ``_count`` is only bumped on a successful walk (one
        genuinely new entry) and on :meth:`remove`.  On a *failed* walk the
        new entry is stored but one displaced occupant ends up homeless, so
        the net count change is likewise zero.
        """
        self._slots[slot] = entry
        entry.slot = slot

    # ------------------------------------------------------------------
    def entry_at(self, slot: int) -> Indexable | None:
        """Direct slot access (the structural audit reads slots this way)."""
        return self._slots[slot]

    def __len__(self) -> int:
        return self._count

    @property
    def load_factor(self) -> float:
        return len(self) / self.capacity

    def entries(self) -> Iterator[Indexable]:
        for s in self._slots:
            if s is not None:
                yield s

    def clear(self) -> None:
        for i, e in enumerate(self._slots):
            if e is not None:
                e.slot = -1
            self._slots[i] = None
        self._count = 0
