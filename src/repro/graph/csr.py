"""Compressed-sparse-row adjacency structure.

The canonical static-graph layout: ``offsets`` (n+1 int64) and ``adjacency``
(m int64, neighbour ids sorted per vertex).  Sorted, duplicate-free
adjacencies make the LCC triangle count of a vertex pair a linear merge
(the step count the simulation charges); :meth:`local_clustering` is the
single-node reference.
"""

from __future__ import annotations

import numpy as np


class CSRGraph:
    """Immutable CSR graph over vertices ``0..n-1``."""

    def __init__(self, offsets: np.ndarray, adjacency: np.ndarray):
        offsets = np.asarray(offsets, dtype=np.int64)
        adjacency = np.asarray(adjacency, dtype=np.int64)
        if offsets.ndim != 1 or adjacency.ndim != 1:
            raise ValueError("offsets/adjacency must be 1-D")
        if offsets[0] != 0 or offsets[-1] != adjacency.size:
            raise ValueError("offsets must start at 0 and end at len(adjacency)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self.offsets = offsets
        self.adjacency = adjacency

    @classmethod
    def from_edges(cls, src: np.ndarray, dst: np.ndarray, nvertices: int) -> "CSRGraph":
        """Build from a directed edge list (each (u,v) becomes v in adj(u))."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src/dst length mismatch")
        if src.size and (src.min() < 0 or src.max() >= nvertices):
            raise ValueError("source vertex out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= nvertices):
            raise ValueError("destination vertex out of range")
        order = np.lexsort((dst, src))
        src_s, dst_s = src[order], dst[order]
        degrees = np.bincount(src_s, minlength=nvertices)
        offsets = np.zeros(nvertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        return cls(offsets, dst_s)

    # ------------------------------------------------------------------
    @property
    def nvertices(self) -> int:
        return self.offsets.size - 1

    @property
    def nedges(self) -> int:
        return int(self.adjacency.size)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (a view, do not mutate)."""
        return self.adjacency[self.offsets[v] : self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        adj = self.neighbors(u)
        i = np.searchsorted(adj, v)
        return bool(i < adj.size and adj[i] == v)

    def local_clustering(self, v: int) -> float:
        """Reference (single-node) LCC of ``v`` — the paper's formula."""
        adj = self.neighbors(v)
        deg = adj.size
        if deg < 2:
            return 0.0
        links = 0
        adj_set = adj  # sorted
        for u in adj:
            links += np.intersect1d(adj_set, self.neighbors(int(u))).size
        # each triangle edge counted twice in the loop above
        return links / (deg * (deg - 1))
