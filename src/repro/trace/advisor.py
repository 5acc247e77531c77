"""Parameter sizing advisor based on the working-set constraints.

Sec. III-E of the paper relates CLaMPI's two parameters to the Denning
working set of the get stream::

    |gamma(t, tau)| <= |I_w|        sum_{g in gamma} size(g) <= |S_w|

Given a get stream, :func:`recommend_parameters` computes the peak
working-set cardinality and footprint over a sliding window and turns them
into concrete `|I_w|` / `|S_w|` values:

* the index is over-provisioned by the cuckoo load-factor margin (p=4
  sustains ~97% utilisation, we size for ~85% plus the user headroom);
* the storage is padded for cache-line alignment and the user headroom.

Useful both as an offline tool (compute or capture the stream, then run
with a right-sized fixed cache) and as ground truth in tests of the
adaptive controller (which should converge near the recommendation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.analysis import key_runs, working_set_bytes, working_set_sizes
from repro.trace.stream import GetStream
from repro.util import CACHE_LINE

#: target cuckoo load factor used when sizing |I_w|
_TARGET_LOAD = 0.85


@dataclass(frozen=True)
class Recommendation:
    """Suggested fixed cache parameters for a get stream."""

    index_entries: int
    storage_bytes: int
    tau: int
    peak_working_set: int      #: max distinct gets in any tau-window
    peak_footprint: int        #: max distinct bytes in any tau-window


def recommend_parameters(
    stream: GetStream,
    tau: int | None = None,
    headroom: float = 1.25,
    min_index: int = 64,
    min_storage: int = 64 * 1024,
) -> Recommendation:
    """Size |I_w| and |S_w| for a get stream.

    ``tau`` defaults to the full stream length (size for *all* reuse, the
    right choice for always-cache workloads); pass a smaller window for
    phase-structured applications.
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1")
    if not len(stream):
        return Recommendation(min_index, min_storage, 0, 0, 0)
    if tau is None:
        tau = len(stream)
    peak_ws = int(working_set_sizes(stream, tau).max())
    peak_bytes = int(working_set_bytes(stream, tau).max())
    # cache-line alignment overhead of |S_w|: every distinct get at its
    # largest size, a close, cheap upper bound on the peak window's
    order, first = key_runs(stream)
    largest = np.maximum.reduceat(stream.nbytes[order], np.flatnonzero(first))
    aligned_bytes = int((-(-largest // CACHE_LINE) * CACHE_LINE).sum())
    index = max(min_index, int(peak_ws * headroom / _TARGET_LOAD))
    storage = max(min_storage, int(max(peak_bytes, aligned_bytes) * headroom))
    return Recommendation(index, storage, tau, peak_ws, peak_bytes)
