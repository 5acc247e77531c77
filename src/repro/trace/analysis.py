"""Locality analyses over a get stream.

A get's identity is its ``(target, disp)`` key.  Each analysis sorts the
stream by key (stably, so a key's gets stay in issue order) and works on
the key runs in numpy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.trace.stream import GetStream


def key_runs(stream: GetStream) -> tuple[np.ndarray, np.ndarray]:
    """``(order, first)``: the stream's positions sorted by key, then by
    issue, and a mask over ``order`` marking each key's first get."""
    order = np.lexsort((stream.disp, stream.target))
    target, disp = stream.target[order], stream.disp[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (target[1:] != target[:-1]) | (disp[1:] != disp[:-1])
    return order, first


def reuse_histogram(stream: GetStream) -> dict[int, int]:
    """Fig. 2: how many distinct gets are repeated ``y`` times.

    Returns ``{repeat_count: number_of_distinct_gets_with_that_count}``.
    A value like ``{1: 900, 2: 50, 3500: 1}`` reads: 900 gets were issued
    once, 50 twice, and one get was repeated 3,500 times.
    """
    order, first = key_runs(stream)
    per_key = np.diff(np.append(np.flatnonzero(first), order.size))
    repeats, keys = np.unique(per_key, return_counts=True)
    return dict(zip(repeats.tolist(), keys.tolist()))


def size_distribution(
    stream: GetStream, bin_edges: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Fig. 3: histogram of get payload sizes.

    Returns ``(edges, counts)`` with ``len(edges) == len(counts) + 1``.
    Default bins are powers of two from 8 B to 1 MiB.
    """
    if bin_edges is None:
        bin_edges = [0] + [2**i for i in range(3, 21)]
    edges = np.asarray(bin_edges, dtype=np.int64)
    counts, _ = np.histogram(stream.nbytes, bins=edges)
    return edges, counts


def reuse_fraction(stream: GetStream) -> float:
    """Fraction of gets that re-access already-seen (trg, dsp) data."""
    if not len(stream):
        return 0.0
    _, first = key_runs(stream)
    return int(first.size - np.count_nonzero(first)) / len(stream)


def _window_spans(stream: GetStream, tau: int):
    """Per get, over the key-sorted ``order``: ``end``, the first position
    at which the get no longer stands for its key in ``W(t, tau)`` (the
    key's next get, or ``tau`` later), and ``enters``, whether the key was
    absent from the window when the get came."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    order, first = key_runs(stream)
    nxt = np.full(order.size, order.size)
    nxt[:-1] = np.where(first[1:], order.size, order[1:])
    enters = first.copy()
    enters[1:] |= order[1:] - order[:-1] > tau
    return order, np.minimum(nxt, order + tau), enters


def _along_the_trace(order, end, values) -> np.ndarray:
    """Sum, at each position ``t``, of ``values[i]`` over the gets ``i``
    with ``order[i] <= t < end[i]``."""
    diff = np.zeros(order.size + 1, dtype=np.int64)
    diff[order] = values
    np.subtract.at(diff, end, values)
    return np.cumsum(diff[:-1])


def working_set_sizes(stream: GetStream, tau: int) -> np.ndarray:
    """Denning working sets ``|W(t, tau)|`` along the trace (Sec. III-E).

    ``W(t, tau)`` is the set of distinct gets issued in ``(t - tau, t]``;
    returns one value per position ``t`` in the trace.
    """
    order, end, _ = _window_spans(stream, tau)
    return _along_the_trace(order, end, 1)


def working_set_bytes(stream: GetStream, tau: int) -> np.ndarray:
    """Total distinct bytes in the working set at each trace position.

    The quantity bounded by |S_w| in the paper's constraint
    ``sum_{g in gamma(t,tau)} size(g) <= |S_w|``.  A key counts with the
    largest size it was fetched at since it last entered the window.
    """
    order, end, enters = _window_spans(stream, tau)
    # running max per stay: stays are numbered, sizes ranked, and one
    # maximum.accumulate over stay * nranks + rank restarts at every stay
    stay = np.cumsum(enters) - 1
    sizes, rank = np.unique(stream.nbytes[order], return_inverse=True)
    offset = stay * sizes.size
    largest = sizes[np.maximum.accumulate(offset + rank.reshape(-1)) - offset]
    return _along_the_trace(order, end, largest)
