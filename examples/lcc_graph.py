#!/usr/bin/env python3
"""Distributed Local Clustering Coefficient over an R-MAT graph.

Reproduces the paper's Sec. IV-C experiment at laptop scale: the graph is
1-D partitioned, every rank exposes its adjacency block through an RMA
window, and computing LCC(v) fetches the adjacency list of each neighbour
of v — repeatedly for scale-free hubs, which is the reuse CLaMPI caches
(*always-cache* mode: the graph is immutable).

Run with:  python examples/lcc_graph.py [scale] [nprocs]
"""

import sys

import numpy as np

from repro.apps import LCCApp
from repro.apps.cachespec import CacheSpec
from repro.core.stats import snapshot_hits
from repro.util import format_bytes, format_table, format_time


def main():
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    nprocs = int(sys.argv[2]) if len(sys.argv) > 2 else 8

    app = LCCApp(scale=scale, edge_factor=16, seed=3)
    adj_bytes = app.csr.nedges * 8
    print(
        f"R-MAT: 2^{scale} = {app.nvertices} vertices, {app.csr.nedges} "
        f"directed edges ({format_bytes(adj_bytes)} adjacency), P={nprocs}\n"
    )

    from repro import clampi

    specs = [
        CacheSpec.fompi(),
        CacheSpec.clampi_fixed(4 * app.nvertices, adj_bytes),
        CacheSpec.clampi_adaptive(
            256,
            adj_bytes // 16,
            adaptive_params=clampi.AdaptiveParams(check_interval=256),
        ),
    ]
    rows = []
    runs = []
    for spec in specs:
        run = app.run(nprocs, spec)
        runs.append(run)
        st = run.merged_stats()
        gets = st.get("gets", 0)
        hits = snapshot_hits(st)
        rows.append(
            [
                run.label,
                format_time(run.vertex_time),
                f"{hits / gets:.1%}" if gets else "-",
                format_bytes(st.get("bytes_from_network", 0)) if st else "-",
            ]
        )
    print(
        format_table(
            ["configuration", "time/vertex", "hit ratio", "network bytes"], rows
        )
    )

    # Transparency: cached and uncached runs produce identical coefficients,
    # and they match the sequential single-node reference.
    for run in runs[1:]:
        assert np.array_equal(run.lcc, runs[0].lcc), run.label
    ref = app.reference_lcc()
    assert np.allclose(runs[0].lcc, ref)
    print("\nall configurations computed identical LCC values")
    print(f"verified against the sequential reference (max LCC = {ref.max():.3f})")
    print(
        f"CLaMPI speedup over the uncached run: "
        f"{runs[0].elapsed / min(r.elapsed for r in runs[1:]):.1f}x"
    )


if __name__ == "__main__":
    main()
