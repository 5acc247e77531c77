"""The tuple-loop trace analyses, kept as a reference for the numpy ones.

``repro.trace.analysis`` and ``repro.trace.advisor`` as they stood when a
trace was a list of one frozen ``GetRecord`` per get: a ``Counter`` or a
dict per analysis and one loop step per get.  The numpy versions key the
same ``(trg, dsp)`` identities with a sort and must return the same
values (``tests/test_trace_reference.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.trace import GetStream, Recommendation
from repro.util import CACHE_LINE, align_up


@dataclass(frozen=True)
class GetRecord:
    """One recorded get: identity (trg, dsp) plus payload size in bytes."""

    trg: int
    dsp: int
    size: int


def records_of(stream: GetStream) -> list[GetRecord]:
    """The stream as one record per get."""
    return list(
        map(GetRecord, stream.target.tolist(), stream.disp.tolist(), stream.nbytes.tolist())
    )


#: target cuckoo load factor used when sizing |I_w|
_TARGET_LOAD = 0.85

def reuse_histogram(records: Iterable[GetRecord]) -> dict[int, int]:
    """Fig. 2: how many distinct gets are repeated ``y`` times.

    Returns ``{repeat_count: number_of_distinct_gets_with_that_count}``.
    A value like ``{1: 900, 2: 50, 3500: 1}`` reads: 900 gets were issued
    once, 50 twice, and one get was repeated 3,500 times.
    """
    per_key = Counter((r.trg, r.dsp) for r in records)
    hist: Counter[int] = Counter(per_key.values())
    return dict(sorted(hist.items()))


def size_distribution(
    records: Iterable[GetRecord], bin_edges: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 3: histogram of get payload sizes.

    Returns ``(edges, counts)`` with ``len(edges) == len(counts) + 1``.
    Default bins are powers of two from 8 B to 1 MiB.
    """
    sizes = np.array([r.size for r in records], dtype=np.int64)
    if bin_edges is None:
        bin_edges = [0] + [2**i for i in range(3, 21)]
    edges = np.asarray(bin_edges, dtype=np.int64)
    counts, _ = np.histogram(sizes, bins=edges)
    return edges, counts


def reuse_fraction(records: Sequence[GetRecord]) -> float:
    """Fraction of gets that re-access already-seen (trg, dsp) data."""
    if not records:
        return 0.0
    seen: set[tuple[int, int]] = set()
    repeats = 0
    for r in records:
        key = (r.trg, r.dsp)
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / len(records)


def working_set_sizes(records: Sequence[GetRecord], tau: int) -> np.ndarray:
    """Denning working sets ``|W(t, tau)|`` along the trace (Sec. III-E).

    ``W(t, tau)`` is the set of distinct gets issued in ``[t - tau, t]``;
    returns one value per position ``t`` in the trace.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    out = np.zeros(len(records), dtype=np.int64)
    window: Counter[tuple[int, int]] = Counter()
    for t, r in enumerate(records):
        window[(r.trg, r.dsp)] += 1
        if t >= tau:
            old = records[t - tau]
            okey = (old.trg, old.dsp)
            window[okey] -= 1
            if window[okey] == 0:
                del window[okey]
        out[t] = len(window)
    return out


def working_set_bytes(records: Sequence[GetRecord], tau: int) -> np.ndarray:
    """Total distinct bytes in the working set at each trace position.

    The quantity bounded by |S_w| in the paper's constraint
    ``sum_{g in gamma(t,tau)} size(g) <= |S_w|``.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    out = np.zeros(len(records), dtype=np.int64)
    window: Counter[tuple[int, int]] = Counter()
    sizes: dict[tuple[int, int], int] = {}
    total = 0
    for t, r in enumerate(records):
        key = (r.trg, r.dsp)
        if window[key] == 0:
            sizes[key] = r.size
            total += r.size
        else:
            # keep the largest size seen for the key
            if r.size > sizes[key]:
                total += r.size - sizes[key]
                sizes[key] = r.size
        window[key] += 1
        if t >= tau:
            old = records[t - tau]
            okey = (old.trg, old.dsp)
            window[okey] -= 1
            if window[okey] == 0:
                total -= sizes.pop(okey)
                del window[okey]
        out[t] = total
    return out


def recommend_parameters(
    records: Sequence[GetRecord],
    tau: int | None = None,
    headroom: float = 1.25,
    min_index: int = 64,
    min_storage: int = 64 * 1024,
) -> Recommendation:
    """Size |I_w| and |S_w| for a recorded get trace.

    ``tau`` defaults to the full trace length (size for *all* reuse, the
    right choice for always-cache workloads); pass a smaller window for
    phase-structured applications.
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1")
    if not records:
        return Recommendation(min_index, min_storage, 0, 0, 0)
    if tau is None:
        tau = len(records)
    peak_ws = int(working_set_sizes(records, tau).max())
    peak_bytes = int(working_set_bytes(records, tau).max())
    aligned_bytes = sum(
        align_up(s, CACHE_LINE)
        for s in _distinct_peak_sizes(records, tau)
    )
    index = max(min_index, int(peak_ws * headroom / _TARGET_LOAD))
    storage = max(min_storage, int(max(peak_bytes, aligned_bytes) * headroom))
    return Recommendation(index, storage, tau, peak_ws, peak_bytes)


def _distinct_peak_sizes(records: Sequence[GetRecord], tau: int) -> list[int]:
    """Sizes of the distinct gets in the window ending at the peak position.

    Used to account for cache-line alignment overhead in |S_w|; a simple
    full-trace distinct set is a close, cheap upper bound.
    """
    best: dict[tuple[int, int], int] = {}
    for r in records:
        key = (r.trg, r.dsp)
        if r.size > best.get(key, -1):
            best[key] = r.size
    return list(best.values())
