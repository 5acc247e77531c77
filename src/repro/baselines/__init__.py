"""The caches the paper compares CLaMPI against.

* :class:`~repro.baselines.block_cache.BlockCachedWindow` — the *native*
  comparator of Figs. 12/14: a traditional block-based, direct-mapped
  software cache in the style of the UPC runtime cache shipped with the
  Larkins et al. Barnes-Hut code.  Fixed block size ⇒ internal
  fragmentation; direct mapping ⇒ conflict misses tied to memory size
  (exactly the sensitivity Fig. 12 shows); blocking per-miss fetches ⇒ no
  overlap.
* the *foMPI* baseline is simply a plain :class:`repro.mpi.Window` (no
  caching layer at all).
"""

from repro.baselines.block_cache import BlockCachedWindow, BlockCacheStats

__all__ = ["BlockCachedWindow", "BlockCacheStats"]
