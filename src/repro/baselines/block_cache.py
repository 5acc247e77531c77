"""Block-based direct-mapped software cache ("native" baseline).

This is the traditional vertical-caching design the paper contrasts CLaMPI
with (Sec. II and V): reads are rounded to fixed-size blocks, each block
maps to exactly one cache slot (direct mapping), and a miss blocks until
the whole containing block has been fetched.

Consequences measured in the paper and reproduced here:

* **internal fragmentation** — a 100-byte get occupies a whole block;
* **conflict misses tied to memory size** — with direct mapping the number
  of conflicts is "strictly related to the available memory size"
  (Fig. 12: native improves from ~820 us to ~400 us when its memory grows
  from 1 MiB to 4 MiB);
* **no overlap** — each miss performs a blocking get+flush.

Only contiguous requests are cached; derived-datatype requests fall through
to the raw window (the UPC cache had the same restriction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costmodel import CostModel
from repro.mpi.datatypes import Datatype, origin_bytes
from repro.mpi.window import Window, WindowProxy


@dataclass
class BlockCacheStats:
    """Hit/miss accounting of the native cache."""

    gets: int = 0
    block_hits: int = 0
    block_misses: int = 0
    bytes_from_cache: int = 0
    bytes_fetched: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.block_hits + self.block_misses
        return self.block_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


class BlockCachedWindow(WindowProxy):
    """Direct-mapped block cache layered over a plain RMA window."""

    def __init__(self, window: Window, block_size: int = 1024, memory_bytes: int = 1 << 20):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if memory_bytes < block_size:
            raise ValueError("memory_bytes must hold at least one block")
        if any(du != 1 for du in window._group.disp_units):
            raise ValueError("BlockCachedWindow requires byte-addressed windows (disp_unit=1)")
        self._win = window
        self.block_size = block_size
        self.nblocks = memory_bytes // block_size
        self._data = np.zeros((self.nblocks, block_size), dtype=np.uint8)
        self._tag_target = np.full(self.nblocks, -1, dtype=np.int64)
        self._tag_block = np.full(self.nblocks, -1, dtype=np.int64)
        self._valid_bytes = np.zeros(self.nblocks, dtype=np.int64)
        self.stats = BlockCacheStats()
        self.cost = CostModel(
            memory=window.comm.perf.memory, sink=window.comm.proc.advance
        )
        self._fetch_buf = np.empty(block_size, dtype=np.uint8)

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached block."""
        self._tag_target.fill(-1)
        self._tag_block.fill(-1)
        self._valid_bytes.fill(0)
        self.stats.invalidations += 1
        self.cost.invalidate(self.nblocks)

    def put(self, origin, target_rank, target_disp, count=None, datatype=None) -> int:
        return self._win.put(origin, target_rank, target_disp, count, datatype)

    # ------------------------------------------------------------------
    def get(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """Block-cached get of a contiguous byte range."""
        dtype, count = self._win._resolve_dtype(origin, count, datatype)
        if not dtype.is_contiguous():
            # Derived layouts bypass the block cache entirely.
            return self._win.get(origin, target_rank, target_disp, count, dtype)
        nbytes = dtype.transfer_size(count)
        self.stats.gets += 1
        if nbytes == 0:
            return 0
        obuf = origin_bytes(origin)
        du = self._win._group.disp_units[target_rank]
        start = target_disp * du
        end = start + nbytes
        win_size = self._win.size_of(target_rank)
        if end > win_size:
            raise ValueError(
                f"get out of bounds: [{start}, {end}) > window {win_size}"
            )
        B = self.block_size
        for blk in range(start // B, (end - 1) // B + 1):
            blo = blk * B
            bhi = min(blo + B, win_size)
            # intersection of the request with this block
            rlo = max(start, blo)
            rhi = min(end, bhi)
            part = rhi - rlo
            slot = self._slot(target_rank, blk)
            self.cost.probes(1)
            hit = (
                self._tag_target[slot] == target_rank
                and self._tag_block[slot] == blk
                and self._valid_bytes[slot] >= (rhi - blo)
            )
            if hit:
                self.stats.block_hits += 1
            else:
                self._fetch_block(target_rank, blk, blo, bhi, slot)
                self.stats.block_misses += 1
            src = self._data[slot, rlo - blo : rhi - blo]
            obuf[rlo - start : rhi - start] = src
            self.cost.copy(part)
            self.stats.bytes_from_cache += part
        return nbytes

    def get_batch(self, requests) -> list[int]:
        """Element-wise batch: block granularity already amortises fetches.

        The block cache's whole point is that misses fetch aligned blocks
        (blocking, so a block is reusable immediately); there is nothing
        further to pipeline, and serving elements in order keeps its stats
        and eviction behaviour identical to scalar gets.
        """
        return [self.get(*req) for req in requests]

    # ------------------------------------------------------------------
    def _slot(self, target: int, blk: int) -> int:
        # Direct mapping: a cheap multiplicative hash of (target, block).
        x = (target * 0x9E3779B9 + blk * 0x85EBCA6B) & 0xFFFFFFFF
        return x % self.nblocks

    def _fetch_block(self, target: int, blk: int, blo: int, bhi: int, slot: int) -> None:
        """Blocking fetch of one whole block into its slot (no overlap)."""
        n = bhi - blo
        buf = self._fetch_buf[:n]
        self._win.get(buf, target, blo, count=n)
        self._win.flush(target)
        self._data[slot, :n] = buf
        self.cost.copy(n)
        self._tag_target[slot] = target
        self._tag_block[slot] = blk
        self._valid_bytes[slot] = n
        self.stats.bytes_fetched += n
