"""The storage ``S_w``: contiguous cache memory with best-fit allocation.

Implements paper Sec. III-C2/3 and Fig. 6:

* cache entries are stored **contiguously** in one memory buffer (hardware
  prefetching helps the hit-path copy);
* allocation granularity is the CPU cache-line size;
* free regions are indexed by an AVL tree keyed on size → **best-fit**
  allocations in O(log N);
* cache-entry and free-region descriptors form a doubly linked list sorted
  by offset, which makes insertion/removal O(1) and gives O(1) access to
  ``d_c`` — the total free memory adjacent to an entry — needed by the
  positional score;
* freeing coalesces with free neighbours, enlarging the adjacent region
  ("if c is adjacent to a free region f, then f is enlarged").

The allocator returns ``None`` when nothing fits: deciding to evict is the
cache's job, not the allocator's (weak caching, Sec. III-D2).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.core.avl import AVLTree
from repro.util import CACHE_LINE


class Descriptor:
    """One region of ``S_w``: either a cache entry's bytes or a free hole."""

    __slots__ = ("offset", "size", "free", "prev", "next", "entry")

    def __init__(self, offset: int, size: int, free: bool):
        self.offset = offset
        self.size = size
        self.free = free
        self.prev: Descriptor | None = None
        self.next: Descriptor | None = None
        self.entry: Any = None  # back-reference to the owning cache entry

    @property
    def end(self) -> int:
        return self.offset + self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "free" if self.free else "used"
        return f"Desc({kind} [{self.offset}, {self.end}))"


class Storage:
    """Contiguous, cache-line-aligned storage buffer.

    ``fit`` selects the allocation policy: ``"best"`` (the paper's choice —
    AVL-indexed best fit, O(log N)) or ``"first"`` (first fit by walking the
    descriptor list, O(N) — kept as an ablation of the design decision).

    ``fault_hook``, when given, is consulted with the (aligned) request
    size before every allocation and may raise
    :class:`~repro.mpi.errors.StorageFault` to simulate memory pressure —
    the integration point of the :mod:`repro.faults` chaos machinery.  The
    storage itself stays policy-free: deciding how to *react* to the fault
    (degrade, quarantine) is the caching engine's job, mirroring how the
    ``None`` return leaves eviction decisions to the cache.
    """

    def __init__(
        self,
        capacity: int,
        alignment: int = CACHE_LINE,
        fit: str = "best",
        fault_hook: Callable[[int], None] | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if alignment < 1:
            raise ValueError("alignment must be >= 1")
        if fit not in ("best", "first"):
            raise ValueError(f"unknown fit policy: {fit}")
        self.fit = fit
        self.capacity = capacity
        self.alignment = alignment
        self._fault_hook = fault_hook
        self.data = np.zeros(capacity, dtype=np.uint8)
        #: ``data``'s bytes, bound once: the hit and materialisation copies
        #: slice it, which costs a fraction of a numpy slice and setitem
        self.view = memoryview(self.data)
        self._free_tree = AVLTree()
        head = Descriptor(0, capacity, free=True)
        self._head: Descriptor = head
        self._free_tree.insert((head.size, head.offset), head)
        self.used_bytes = 0
        self.steps = 0  #: cumulative AVL steps (consumed by the cost model)

    # ------------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def num_free_regions(self) -> int:
        return len(self._free_tree)

    def largest_free(self) -> int:
        """Size of the largest free region (0 when storage is full)."""
        best = 0
        for (size, _off), _d in self._free_tree.items():
            best = max(best, size)
        return best

    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> Descriptor | None:
        """Best-fit allocate ``nbytes`` (rounded up to the alignment).

        Returns the used descriptor, or ``None`` if no free region is large
        enough (external fragmentation or genuine lack of space).
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        a = self.alignment  # align_up(max(nbytes, 1), a)
        want = ((nbytes if nbytes > 1 else 1) + a - 1) // a * a
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
        prev = used.prev = region.prev  # link ``used`` in before ``region``
        used.next = region
        if prev is not None:
            prev.next = used
        else:
            self._head = used
        region.prev = used
        self.steps += self._free_tree.insert((region.size, region.offset), region)
        self.used_bytes += want
        return used

    def release(self, desc: Descriptor) -> None:
        """Free a used descriptor, coalescing with free neighbours."""
        if desc.free:
            raise ValueError(f"double free of {desc!r}")
        self.used_bytes -= desc.size
        desc.free = True
        desc.entry = None
        merged = desc
        prev = merged.prev
        if prev is not None and prev.free:
            self.steps += self._free_tree.remove((prev.size, prev.offset))
            prev.size += merged.size
            self._unlink(merged)
            merged = prev
        nxt = merged.next
        if nxt is not None and nxt.free:
            self.steps += self._free_tree.remove((nxt.size, nxt.offset))
            merged.size += nxt.size
            self._unlink(nxt)
        self.steps += self._free_tree.insert((merged.size, merged.offset), merged)

    # ------------------------------------------------------------------
    def adjacent_free(self, desc: Descriptor) -> int:
        """``d_c``: total free memory adjacent to an entry's region (O(1))."""
        total = 0
        if desc.prev is not None and desc.prev.free:
            total += desc.prev.size
        if desc.next is not None and desc.next.free:
            total += desc.next.size
        return total

    # ------------------------------------------------------------------
    def write(self, desc: Descriptor, payload: np.ndarray) -> None:
        """Copy a C-contiguous payload's bytes into the descriptor's region."""
        if desc.free:
            raise ValueError("write into a free region")
        src = memoryview(payload).cast("B")
        n = src.nbytes
        if n > desc.size:
            raise ValueError(f"payload {n} B exceeds region {desc.size} B")
        self.view[desc.offset : desc.offset + n] = src

    def read(self, desc: Descriptor, nbytes: int) -> np.ndarray:
        """View of the first ``nbytes`` cached bytes of the region."""
        if desc.free:
            raise ValueError("read from a free region")
        if nbytes > desc.size:
            raise ValueError(f"read {nbytes} B exceeds region {desc.size} B")
        return self.data[desc.offset : desc.offset + nbytes]

    # ------------------------------------------------------------------
    def descriptors(self) -> Iterator[Descriptor]:
        """Walk the descriptor list in offset order."""
        d: Descriptor | None = self._head
        while d is not None:
            yield d
            d = d.next

    def _unlink(self, desc: Descriptor) -> None:
        if desc.prev is not None:
            desc.prev.next = desc.next
        else:
            assert self._head is desc
            self._head = desc.next if desc.next is not None else desc
        if desc.next is not None:
            desc.next.prev = desc.prev
        desc.prev = desc.next = None

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural audit used by unit/property tests."""
        descs = list(self.descriptors())
        assert descs[0].offset == 0, "list must start at offset 0"
        total = 0
        used = 0
        prev: Descriptor | None = None
        free_keys = set()
        for d in descs:
            assert d.size > 0, f"empty descriptor {d!r}"
            if prev is not None:
                assert prev.end == d.offset, f"gap/overlap at {d!r}"
                assert d.prev is prev and prev.next is d, "broken links"
                assert not (prev.free and d.free), "uncoalesced free regions"
            total += d.size
            if d.free:
                free_keys.add((d.size, d.offset))
            else:
                used += d.size
            prev = d
        assert total == self.capacity, f"covered {total} != {self.capacity}"
        assert used == self.used_bytes, "used_bytes out of sync"
        tree_keys = {k for k, _v in self._free_tree.items()}
        assert tree_keys == free_keys, "AVL tree out of sync with list"
        self._free_tree.check_invariants()
