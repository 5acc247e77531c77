"""Distributed multi-source BFS over RMA windows (extension application).

Not from the paper's evaluation, but squarely in its motivation: an
irregular graph traversal whose remote accesses are data-dependent gets of
adjacency lists.  A *single* BFS touches each vertex once (little reuse);
running BFS from many sources — the standard kernel behind betweenness
centrality and all-pairs distance sketches — re-fetches the same adjacency
lists once per source, which an *always-cache* CLaMPI window converts into
local hits after the first traversal.

Implementation: level-synchronous top-down BFS.  Each rank owns a vertex
block (same 1-D partition as LCC) and expands the frontier vertices it
owns; discovered remote-owned vertices are exchanged via an allgather at
each level barrier (the frontier exchange is collective metadata, the
adjacency fetches are the one-sided traffic being studied).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.cachespec import CacheSpec, PerRankStats, cache_stats_of
from repro.graph import CSRGraph, DistributedGraph, rmat_graph
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.net import PerfModel

#: CPU cost of scanning one adjacency entry during frontier expansion.
SCAN_STEP_TIME = 1.5e-9
#: Fixed per-level bookkeeping cost.
LEVEL_OVERHEAD_TIME = 400e-9


@dataclass
class BFSRunResult(PerRankStats):
    """Outcome of one multi-source BFS run."""

    nprocs: int
    label: str
    elapsed: float
    rank_times: list[float]
    distances: np.ndarray          #: (nsources, nvertices) hop counts, -1 unreached
    cache_stats: list[dict] = field(default_factory=list)


class BFSApp:
    """Multi-source BFS on one R-MAT instance."""

    def __init__(self, scale: int, edge_factor: int = 16, seed: int = 1):
        if scale < 2:
            raise ValueError("scale must be >= 2")
        self.scale = scale
        self.nvertices = 1 << scale
        src, dst = rmat_graph(scale, edge_factor * self.nvertices, seed=seed)
        self.csr = CSRGraph.from_edges(src, dst, self.nvertices)
        self._edges = (src, dst)

    def reference_bfs(self, source: int) -> np.ndarray:
        """Sequential BFS distances (ground truth)."""
        dist = np.full(self.nvertices, -1, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                for u in self.csr.neighbors(v):
                    if dist[u] < 0:
                        dist[u] = level
                        nxt.append(int(u))
            frontier = nxt
        return dist

    def run(
        self,
        nprocs: int,
        sources: list[int],
        spec: CacheSpec | None = None,
        perf: PerfModel | None = None,
        batch: bool = False,
    ) -> BFSRunResult:
        """Run BFS from every source in sequence on ``nprocs`` ranks.

        ``batch=True`` prefetches each level's remote-owned discoveries
        through one ``get_batch`` + one flush per distinct owner instead
        of a serial get+flush per vertex.  Distances are identical;
        virtual times differ (transfers overlap).
        """
        spec = spec or CacheSpec.fompi()
        for s in sources:
            if not 0 <= s < self.nvertices:
                raise ValueError(f"source {s} out of range")
        src, dst = self._edges
        mpi = SimMPI(nprocs=nprocs, perf=perf or PerfModel.spread(nprocs))
        results = mpi.run(
            _bfs_rank_program, self.csr, src, dst, list(sources), spec, batch
        )
        distances = results[0][0]  # replicated result, identical on all ranks
        rank_times = [r[1] for r in results]
        return BFSRunResult(
            nprocs=nprocs,
            label=spec.label,
            elapsed=max(rank_times),
            rank_times=rank_times,
            distances=distances,
            cache_stats=[r[2] for r in results],
        )


def _bfs_rank_program(
    mpi: MPIProcess,
    csr: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    sources: list[int],
    spec: CacheSpec,
    batch: bool = False,
):
    graph = DistributedGraph.build(
        mpi.comm_world, src, dst, csr.nvertices, spec.make_window, csr=csr
    )
    win = graph.window
    comm = mpi.comm_world
    n = csr.nvertices
    mpi.comm_world.barrier()

    t0 = mpi.time
    all_dist = np.full((len(sources), n), -1, dtype=np.int64)
    win.lock_all()
    for si, source in enumerate(sources):
        dist = all_dist[si]
        dist[source] = 0
        frontier = [source] if graph.lo <= source < graph.hi else []
        level = 0
        while True:
            level += 1
            mpi.compute(LEVEL_OVERHEAD_TIME)
            discovered: list[int] = []
            for v in frontier:
                # adjacency of an owned frontier vertex: one (cached) get if
                # it was fetched before from a remote owner — here v is
                # local, so the interesting gets are the neighbours' lists
                # pulled when checking two-hop candidates below
                adj = graph.local_adjacency(v)
                mpi.compute(adj.size * SCAN_STEP_TIME)
                for u in adj:
                    u = int(u)
                    if dist[u] < 0:
                        dist[u] = level
                        discovered.append(u)
            # Vertices discovered this level but owned elsewhere must reach
            # their owner; vertices we own join our next frontier.  The
            # remote-owned ones additionally need their adjacency prefetched
            # (the one-sided traffic): fetch it now so the owner-side expand
            # is accounted — this is the get stream CLaMPI caches.
            next_frontier = []
            remote_fetches: list[int] = []
            for u in discovered:
                if graph.lo <= u < graph.hi:
                    next_frontier.append(u)
                else:
                    deg = graph.degree(u)
                    if deg:
                        if batch:
                            remote_fetches.append(u)
                            continue
                        buf = np.empty(deg, np.int64)
                        owner, _ = graph.fetch_adjacency(u, buf)
                        win.flush(owner)
            if remote_fetches:
                # Frontier expansion, batched: one get_batch for the whole
                # level's remote discoveries, one flush per distinct owner.
                graph.fetch_adjacencies(remote_fetches)
            # level-synchronous exchange of discoveries
            gathered = comm.allgather(
                [(u, int(dist[u])) for u in discovered], nbytes=8 * len(discovered)
            )
            for lst in gathered:
                if lst is None:
                    continue
                for u, d in lst:
                    if dist[u] < 0 or d < dist[u]:
                        dist[u] = d
                        if graph.lo <= u < graph.hi and u not in next_frontier:
                            next_frontier.append(u)
            frontier = sorted(set(next_frontier))
            done = comm.allreduce(len(frontier)) == 0
            if done:
                break
    win.unlock_all()
    phase_time = mpi.time - t0
    return all_dist, phase_time, cache_stats_of(win)
