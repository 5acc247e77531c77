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

from itertools import groupby
from operator import itemgetter
from typing import Callable, Protocol

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.partition import BlockPartition
from repro.mpi.comm import Communicator
from repro.mpi.errors import TargetFailedError

ITEM = np.dtype(np.int64)


def locate(
    csr: CSRGraph, partition: BlockPartition, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :meth:`DistributedGraph.remote_location`: int64 arrays
    ``(owners, byte_displacements, element_counts)``, one per vertex."""
    offsets = csr.offsets
    v = np.asarray(vertices, dtype=np.int64)
    owners = partition.owners(v)
    starts = offsets[v]
    disps = (starts - offsets[owners * partition.block]) * ITEM.itemsize
    return owners, disps, offsets[v + 1] - starts


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

        The remote gets are issued through one ``window.get_batch`` call
        per owner (requests sorted by vertex keep each owner's gets
        together), and each distinct remote owner is flushed exactly once
        afterwards, so the transfer latencies overlap instead of being
        paid serially as the get+flush-per-neighbour pattern of
        :meth:`fetch_adjacency` does.  A batch adds no charge of its own,
        so virtual time is that of the same gets in one batch.  Locally
        owned vertices are copied directly.  Returns one int64 adjacency
        buffer per requested vertex, in request order.

        A list whose owner crashed and that the window cannot serve comes
        back filled with -1, as in the serial loop; every other list of
        that owner (one a ``serve-stale`` cache still holds) is kept.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        owners, disps, counts = locate(self.csr, self.partition, vertices)
        bufs: list[np.ndarray] = []
        requests: list[tuple] = []
        for v, owner, disp, count in zip(
            vertices.tolist(), owners.tolist(), disps.tolist(), counts.tolist()
        ):
            if owner == self.comm.rank:
                bufs.append(self.csr.neighbors(v).copy())
            else:
                # -1 until served: no vertex id is negative
                buf = np.full(count, -1, dtype=ITEM)
                bufs.append(buf)
                requests.append((buf, owner, disp))
        for _owner, run in groupby(requests, key=itemgetter(1)):
            run = list(run)
            while run:
                try:
                    self.window.get_batch(run)
                    break
                except TargetFailedError:
                    # The owner crashed: the batch stopped at the first get
                    # it could not serve, the first list still all -1.
                    # That one is lost; issue the rest again.
                    failed = next(
                        (i for i, r in enumerate(run) if r[0].size and r[0][0] < 0),
                        None,
                    )
                    if failed is None:
                        raise
                    run = run[failed + 1 :]
        for owner in sorted({owner for _buf, owner, _disp in requests}):
            self.window.flush(owner)
        return bufs
