"""Distributed Local Clustering Coefficient (paper Sec. IV-C).

For every locally owned vertex ``v`` the process retrieves ``adj(u)`` of
every neighbour ``u`` — a one-sided get when ``u`` lives on another rank —
and counts how many of ``v``'s neighbour pairs are actually connected:

    LCC(v) = 2 * |{(u, w) : u, w in adj(v), (u, w) in E}|
             / (deg(v) * (deg(v) - 1))

Data reuse: ``adj(u)`` is fetched once per appearance of ``u`` in a local
adjacency list, i.e. ``deg(u)`` times globally — hub vertices of the
scale-free R-MAT graphs are fetched over and over, which is exactly the
locality CLaMPI converts into hits (the window is read-only, so the cache
runs in *always-cache* mode).

Implementation notes
--------------------
* The R-MAT edge list / CSR index is built **once** and shared by all
  simulated ranks (single address space) — on a real machine each rank
  would hold the replicated index; sharing it here only saves host RAM,
  the RMA traffic is identical.
* The traversal completes (flushes) each remote get before the merge step
  that consumes it — the latency-bound pattern of the paper's LCC, which
  is what a cache hit short-circuits.  Every get keeps a private origin
  buffer until its flush (MPI forbids touching origin buffers earlier):
  the next slice of one per-vertex arena.
* Host work is per neighbourhood (docs/performance.md invariant 10): one
  vectorised location lookup and one triangle count per vertex.  Virtual
  time is charged from merge step counts, not from how the host counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import recovery
from repro.apps.cachespec import CacheSpec, PerRankStats, cache_stats_of
from repro.graph import BlockPartition, CSRGraph, DistributedGraph, rmat_graph
from repro.graph.distributed import ITEM, locate
from repro.mpi.errors import TargetFailedError
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.net import PerfModel
from repro.trace import GetStream, per_rank

#: CPU cost of one element-comparison step of the sorted-merge intersection.
MERGE_STEP_TIME = 2e-9
#: Fixed per-vertex bookkeeping cost.
VERTEX_OVERHEAD_TIME = 150e-9


@dataclass
class LCCRunResult(PerRankStats):
    """Outcome of one distributed LCC run."""

    nprocs: int
    label: str
    elapsed: float                       #: virtual makespan (seconds)
    rank_times: list[float]              #: per-rank phase time
    vertex_time: float                   #: elapsed / max local vertices
    lcc: np.ndarray                      #: LCC value per vertex (global)
    cache_stats: list[dict] = field(default_factory=list)
    #: absolute virtual makespan incl. setup (window creation, barrier);
    #: chaos crash plans anchor their death times to this
    makespan: float = 0.0


class LCCApp:
    """One R-MAT instance, runnable under any cache configuration."""

    def __init__(
        self,
        scale: int,
        edge_factor: int = 16,
        seed: int = 1,
    ):
        if scale < 2:
            raise ValueError("scale must be >= 2")
        self.scale = scale
        self.nvertices = 1 << scale
        src, dst = rmat_graph(scale, edge_factor * self.nvertices, seed=seed)
        self.csr = CSRGraph.from_edges(src, dst, self.nvertices)
        self._edges = (src, dst)

    # ------------------------------------------------------------------
    def reference_lcc(self) -> np.ndarray:
        """Single-node ground truth for correctness checks."""
        return np.array(
            [self.csr.local_clustering(v) for v in range(self.nvertices)]
        )

    def stream(self, nprocs: int) -> list[GetStream]:
        """Each rank's remote gets on ``nprocs`` ranks, serial or batched
        alike: for every local vertex of degree >= 2, each neighbour's
        adjacency in adjacency order, if another rank owns it."""
        part = BlockPartition(self.nvertices, nprocs)
        degrees = self.csr.degrees()
        issuer = part.owners(np.repeat(np.arange(self.nvertices), degrees))
        owners, disps, counts = locate(self.csr, part, self.csr.adjacency)
        get = (owners != issuer) & np.repeat(degrees >= 2, degrees)
        return per_rank(nprocs, issuer[get], owners[get], disps[get], counts[get] * ITEM.itemsize)

    # ------------------------------------------------------------------
    def run(
        self,
        nprocs: int,
        spec: CacheSpec | None = None,
        perf: PerfModel | None = None,
        faults=None,
        retry=None,
        batch: bool = False,
    ) -> LCCRunResult:
        """Execute the distributed LCC computation on ``nprocs`` ranks.

        ``faults`` (a :class:`repro.faults.FaultPlan`) and ``retry`` (a
        :class:`repro.faults.RetryPolicy`) are forwarded to the simulated
        MPI world for chaos runs; the result must stay bit-identical.

        ``batch=True`` fetches each vertex's neighbour lists through one
        ``get_batch`` and one flush per distinct owner instead of the
        paper's serial get+flush-per-neighbour pattern.  LCC values are
        identical; virtual times differ (transfers overlap), so the
        figure reproductions keep the default.
        """
        spec = spec or CacheSpec.fompi()
        src, dst = self._edges
        mpi = SimMPI(
            nprocs=nprocs,
            perf=perf or PerfModel.spread(nprocs),
            faults=faults,
            retry=retry,
        )
        results = mpi.run(_lcc_rank_program, self.csr, src, dst, spec, batch)

        lcc = np.zeros(self.nvertices)
        rank_times: list[float] = []
        stats: list[dict] = []
        max_local = 1
        for r in results:
            if r is None:
                # Rank crashed mid-run (chaos crash scenario): its vertex
                # range stays zero, the survivors' results stand.
                continue
            lo, hi, values, phase_time, st = r
            lcc[lo:hi] = values
            rank_times.append(phase_time)
            stats.append(st)
            max_local = max(max_local, hi - lo)
        return LCCRunResult(
            nprocs=nprocs,
            label=spec.label,
            elapsed=max(rank_times),
            rank_times=rank_times,
            vertex_time=max(rank_times) / max_local,
            lcc=lcc,
            cache_stats=stats,
            makespan=mpi.elapsed,
        )


def count_links(mark: np.ndarray, adj_v: np.ndarray, arena: np.ndarray) -> int:
    """How many elements of ``arena`` (neighbour lists back to back, -1
    where one was lost) are in ``adj_v``: for sorted, duplicate-free lists
    the sum of ``|adj(v) ∩ adj(u)|``.  ``mark`` is an all-False bool table
    of ``nvertices + 1`` slots (the last takes the -1s), restored on return."""
    mark[adj_v] = True
    links = np.count_nonzero(mark[arena])
    mark[adj_v] = False
    return links


def _lcc_rank_program(
    mpi: MPIProcess,
    csr: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    spec: CacheSpec,
    batch: bool = False,
):
    graph = DistributedGraph.build(
        mpi.comm_world, src, dst, csr.nvertices, spec.make_window, csr=csr
    )
    win = graph.window
    recovery.barrier(mpi.comm_world)

    t0 = mpi.time
    win.lock_all()
    lo, hi = graph.lo, graph.hi
    rank = mpi.rank
    local = graph.csr.adjacency[graph.csr.offsets[lo] : graph.csr.offsets[hi]]
    mark = np.zeros(graph.nvertices + 1, dtype=bool)
    values = np.zeros(hi - lo)
    for v in range(lo, hi):
        adj_v = graph.local_adjacency(v)
        deg = adj_v.size
        mpi.compute(VERTEX_OVERHEAD_TIME)
        if deg < 2:
            continue
        # Retrieve every neighbour's adjacency.  The serial traversal is
        # the natural latency-bound pattern of the paper's LCC: each remote
        # adjacency list is needed before the merge step that consumes it,
        # so the get is completed (flushed) as soon as it is issued.  The
        # batched variant issues the neighbourhood through one get_batch
        # per owner and flushes each owner once, overlapping the misses.
        lost = []
        if batch:
            arena = np.concatenate(graph.fetch_adjacencies(adj_v))
            # a list lost to a crashed owner comes back as -1s
            lost_count = int(np.count_nonzero(arena < 0))
        else:
            lost_count = 0
            owners, disps, counts = locate(csr, graph.partition, adj_v)
            ends = np.cumsum(counts)
            arena = np.empty(int(ends[-1]), dtype=np.int64)
            start = 0
            for owner, disp, end in zip(owners.tolist(), disps.tolist(), ends.tolist()):
                if owner == rank:
                    disp >>= 3
                    arena[start:end] = local[disp : disp + end - start]
                else:
                    try:
                        win.get(arena[start:end], owner, disp)
                        win.flush(owner)
                    except TargetFailedError:
                        # The owner crashed and its adjacency is
                        # unrecoverable (or not cached under serve-stale):
                        # count only the links still visible.
                        lost.append((start, end))
                start = end
        fetched = arena.size - lost_count
        for start, end in lost:
            arena[start:end] = -1
            fetched -= end - start
        links = count_links(mark, adj_v, arena)
        mpi.compute((deg * deg + fetched) * MERGE_STEP_TIME)
        values[v - lo] = links / (deg * (deg - 1))
    win.unlock_all()
    phase_time = mpi.time - t0

    return lo, hi, values, phase_time, cache_stats_of(win)
