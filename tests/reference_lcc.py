"""The per-neighbour LCC rank program, kept as a differential-test reference.

``repro.apps.lcc._lcc_rank_program`` as it stood before its host loop went
per neighbourhood (commit ``c96db37``): one ``np.empty``, one scalar
location lookup and one ``np.intersect1d`` per fetched neighbour, and the
batched fetch through the scalar ``remote_location``.  The rewritten loop
must issue the same get stream, charge the same virtual time and compute
the same values (``tests/test_apps_lcc_differential.py``).
"""

from __future__ import annotations

import numpy as np

from repro import recovery
from repro.apps.cachespec import cache_stats_of
from repro.apps.lcc import MERGE_STEP_TIME, VERTEX_OVERHEAD_TIME
from repro.graph import DistributedGraph
from repro.mpi.errors import TargetFailedError


def fetch_adjacencies(graph: DistributedGraph, vertices) -> list[np.ndarray]:
    """The batched fetch, one ``remote_location`` per vertex."""
    bufs: list[np.ndarray] = []
    requests: list[tuple] = []
    owners: set[int] = set()
    for v in vertices:
        v = int(v)
        owner, disp, count = graph.remote_location(v)
        buf = np.empty(count, dtype=np.int64)
        bufs.append(buf)
        if owner == graph.comm.rank:
            buf[:count] = graph.local_adjacency(v)
        else:
            requests.append((buf, owner, disp))
            owners.add(owner)
    if requests:
        graph.window.get_batch(requests)
        for owner in sorted(owners):
            graph.window.flush(owner)
    return bufs


def lcc_rank_program(mpi, csr, src, dst, spec, batch=False):
    graph = DistributedGraph.build(
        mpi.comm_world,
        src,
        dst,
        csr.nvertices,
        lambda comm, buf: spec.make_window(comm, buf),
        csr=csr,
    )
    win = graph.window
    recovery.barrier(mpi.comm_world)

    t0 = mpi.time
    win.lock_all()
    lo, hi = graph.lo, graph.hi
    values = np.zeros(hi - lo)
    for v in range(lo, hi):
        adj_v = graph.local_adjacency(v)
        deg = adj_v.size
        mpi.compute(VERTEX_OVERHEAD_TIME)
        if deg < 2:
            continue
        if batch:
            bufs = fetch_adjacencies(graph, adj_v)
        else:
            bufs = []
            for u in adj_v:
                du = graph.degree(int(u))
                buf = np.empty(du, dtype=np.int64)
                try:
                    owner, _ = graph.fetch_adjacency(int(u), buf)
                    if owner != mpi.rank:
                        win.flush(owner)
                except TargetFailedError:
                    buf = np.empty(0, dtype=np.int64)
                bufs.append(buf)
        links = 0
        steps = 0
        for u, adj_u in zip(adj_v, bufs):
            links += np.intersect1d(adj_v, adj_u, assume_unique=True).size
            steps += deg + adj_u.size
        mpi.compute(steps * MERGE_STEP_TIME)
        values[v - lo] = links / (deg * (deg - 1))
    win.unlock_all()
    phase_time = mpi.time - t0

    return lo, hi, values, phase_time, cache_stats_of(win)
