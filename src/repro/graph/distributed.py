"""Distributed CSR graph over RMA windows.

Layout (per the paper's LCC setup): vertices are 1-D block-partitioned;
each rank exposes the adjacency array of its own vertex block through an
RMA window.  The CSR index (offsets/degrees) is *replicated* on every rank
at build time — a standard trick that lets a single one-sided get fetch a
whole remote adjacency list (the get size equals the vertex degree, which
is what produces the variable-size distribution of Fig. 3).

The window itself is created by a caller-supplied factory so the same graph
can run over a plain window (foMPI baseline), a CLaMPI
:class:`~repro.core.window.CachedWindow`, or the block-cache baseline.
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import BlockPartition
from repro.mpi.comm import Communicator

ITEM = np.dtype(np.int64)


class GetWindow(Protocol):
    """The window sub-protocol the graph needs (satisfied by Window,
    CachedWindow and BlockCachedWindow)."""

    def lock_all(self) -> None: ...
    def unlock_all(self) -> None: ...
    def flush(self, rank: int) -> None: ...
    def flush_all(self) -> None: ...
    def get(self, origin, target_rank, target_disp, count=None, datatype=None) -> int: ...
    def get_batch(self, requests) -> list[int]: ...


WindowFactory = Callable[[Communicator, np.ndarray], GetWindow]


class DistributedGraph:
    """A block-partitioned CSR graph whose adjacency lives in RMA windows."""

    def __init__(
        self,
        comm: Communicator,
        csr: CSRGraph,
        partition: BlockPartition,
        window: GetWindow,
    ):
        self.comm = comm
        self.csr = csr  #: replicated index (offsets) + local correctness oracle
        self.partition = partition
        self.window = window
        self.lo, self.hi = partition.range_of(comm.rank)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        comm: Communicator,
        src: np.ndarray,
        dst: np.ndarray,
        nvertices: int,
        window_factory: WindowFactory,
        csr: CSRGraph | None = None,
    ) -> "DistributedGraph":
        """Collectively build the distributed graph from a shared edge list.

        Every rank passes the same (deterministically generated) edge list;
        each keeps the replicated CSR index and exposes only its own block's
        adjacency through the window.  Passing a prebuilt ``csr`` (shared
        across simulated ranks) avoids rebuilding the index per rank.
        """
        if csr is None:
            csr = CSRGraph.from_edges(src, dst, nvertices)
        part = BlockPartition(nvertices, comm.size)
        lo, hi = part.range_of(comm.rank)
        local_adj = np.ascontiguousarray(
            csr.adjacency[csr.offsets[lo] : csr.offsets[hi]]
        )
        window = window_factory(comm, local_adj.view(np.uint8))
        return cls(comm, csr, part, window)

    # ------------------------------------------------------------------
    @property
    def nvertices(self) -> int:
        return self.csr.nvertices

    @property
    def local_vertices(self) -> range:
        """The vertex block owned by this rank."""
        return range(self.lo, self.hi)

    def owner(self, v: int) -> int:
        return self.partition.owner(v)

    def degree(self, v: int) -> int:
        return self.csr.degree(v)

    def remote_location(self, v: int) -> tuple[int, int, int]:
        """``(owner, byte_displacement, element_count)`` of adj(v)."""
        owner = self.partition.owner(v)
        olo, _ohi = self.partition.range_of(owner)
        disp = int(self.csr.offsets[v] - self.csr.offsets[olo]) * ITEM.itemsize
        return owner, disp, self.csr.degree(v)

    def locate(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`remote_location`: int64 arrays ``(owners,
        byte_displacements, element_counts)``, one element per vertex."""
        offsets = self.csr.offsets
        v = np.asarray(vertices, dtype=np.int64)
        owners = self.partition.owners(v)
        starts = offsets[v]
        disps = (starts - offsets[owners * self.partition.block]) * ITEM.itemsize
        return owners, disps, offsets[v + 1] - starts

    def local_adjacency(self, v: int) -> np.ndarray:
        """adj(v) for a locally-owned vertex (plain memory access)."""
        if not self.lo <= v < self.hi:
            raise ValueError(f"vertex {v} not owned by rank {self.comm.rank}")
        return self.csr.neighbors(v)

    def fetch_adjacency(self, v: int, out: np.ndarray) -> tuple[int, int]:
        """Issue a (possibly cached) one-sided get of adj(v) into ``out``.

        Returns ``(owner, count)``.  The caller flushes; for locally owned
        vertices the data is copied immediately and no get is issued.
        """
        owner, disp, count = self.remote_location(v)
        if owner == self.comm.rank:
            out[:count] = self.local_adjacency(v)
            return owner, count
        self.window.get(out[:count], owner, disp)
        return owner, count

    def fetch_adjacencies(self, vertices) -> list[np.ndarray]:
        """Batched adjacency fetch with flush-pipelined completion.

        All remote gets are issued through one ``window.get_batch`` call —
        one validation pass and one batched accounting event — and
        each distinct remote owner is flushed exactly once afterwards, so
        the transfer latencies overlap instead of being paid serially as
        the get+flush-per-neighbour pattern of :meth:`fetch_adjacency`
        does.  Locally owned vertices are copied directly.  Returns one
        int64 adjacency buffer per requested vertex, in request order.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        owners, disps, counts = self.locate(vertices)
        bufs: list[np.ndarray] = []
        requests: list[tuple] = []
        for v, owner, disp, count in zip(
            vertices.tolist(), owners.tolist(), disps.tolist(), counts.tolist()
        ):
            buf = np.empty(count, dtype=ITEM)
            bufs.append(buf)
            if owner == self.comm.rank:
                buf[:] = self.csr.neighbors(v)
            else:
                requests.append((buf, owner, disp))
        if requests:
            self.window.get_batch(requests)
            for owner in sorted(set(owners.tolist()) - {self.comm.rank}):
                self.window.flush(owner)
        return bufs
