"""CLaMPI — the paper's contribution: a caching layer for RMA gets.

Subpackage map (paper section in brackets):

* :mod:`repro.core.states` — cache-entry state machine (Fig. 5).
* :mod:`repro.core.cuckoo` — the index ``I_w``: cuckoo hash table with p=4
  universal hash functions and insertion-path tracking (Sec. III-C1).
* :mod:`repro.core.avl` — size-keyed AVL tree over free regions (Sec. III-C2).
* :mod:`repro.core.storage` — the storage ``S_w``: contiguous buffer,
  cache-line-aligned best-fit allocation, descriptor list, ``d_c``
  bookkeeping (Sec. III-C2/3, Fig. 6).
* :mod:`repro.core.scores` — positional/temporal/full entry scores
  (Sec. III-C2, III-D1).
* :mod:`repro.core.policy` — pluggable eviction/admission policies and
  the name registry (the paper's score engine is the default policy).
* :mod:`repro.core.adaptive` — runtime parameter tuning (Sec. III-E).
* :mod:`repro.core.stats` — access-type accounting (Figs. 13/16/18).
* :mod:`repro.core.costmodel` — virtual-time charges for cache management.
* :mod:`repro.core.engine` — :class:`CacheEngine`, the cache ``C_w`` and
  its get_c flow with victim selection (Sec. III-B/D); no MPI under it.
* :mod:`repro.core.window` — :class:`CachedWindow`, the MPI adapter:
  op methods, epoch closure, operational modes, crash and fault handling
  (Sec. III-A).

The user-facing facade lives in :mod:`repro.clampi`.  Import the
submodules directly; the package itself loads nothing, so importing the
engine does not load the MPI adapter.
"""
