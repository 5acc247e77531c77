#!/usr/bin/env python3
"""Barnes-Hut N-body force computation under four cache configurations.

Reproduces the paper's Sec. IV-B experiment at laptop scale: the octree is
distributed over the ranks' RMA windows and the force phase fetches tree
nodes with one-sided gets.  CLaMPI runs in *user-defined* mode (read-only
force phase, invalidate afterwards — paper Listing 1).

The script verifies that all variants compute identical forces, and that
those forces match a direct O(N^2) summation.

Run with:  python examples/barnes_hut_sim.py [nbodies] [nprocs]
"""

import sys

import numpy as np

from repro.apps import BarnesHutApp
from repro.apps.cachespec import CacheSpec
from repro.core.stats import snapshot_hits
from repro.util import KiB, format_bytes, format_table, format_time


def main():
    nbodies = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    nprocs = int(sys.argv[2]) if len(sys.argv) > 2 else 4

    app = BarnesHutApp(nbodies=nbodies, seed=42, theta=0.5)
    tree_bytes = app.tree.nnodes * 128
    print(
        f"N={nbodies} bodies on P={nprocs} ranks; "
        f"octree: {app.tree.nnodes} nodes ({format_bytes(tree_bytes)})\n"
    )

    specs = [
        CacheSpec.fompi(),
        CacheSpec.native(memory_bytes=max(tree_bytes // 2, 64 * KiB), block_size=128),
        CacheSpec.clampi_fixed(8192, tree_bytes),
        CacheSpec.clampi_adaptive(1024, tree_bytes // 4),
    ]
    rows = []
    runs = []
    for spec in specs:
        run = app.run(nprocs, spec)
        runs.append(run)
        st = run.merged_stats()
        if "block_hits" in st:  # native block cache counts per block
            hits = st["block_hits"]
            gets = st["block_hits"] + st["block_misses"]
        else:
            hits = snapshot_hits(st)
            gets = st.get("gets", 0)
        rows.append(
            [
                run.label,
                format_time(run.time_per_body),
                f"{hits / gets:.1%}" if gets else "-",
                int(run.max_stat("adjustments")) if run.cache_stats else 0,
            ]
        )
    print(format_table(["configuration", "time/body", "hit ratio", "adjustments"], rows))

    # All variants must agree bit-for-bit (the cache is transparent) ...
    for run in runs[1:]:
        assert np.allclose(run.forces, runs[0].forces, rtol=0, atol=0), run.label
    # ... and match the brute-force ground truth within the theta error.
    ref = app.reference_forces()
    rel_err = np.abs(runs[0].forces - ref).max() / np.abs(ref).max()
    print(f"\nall configurations computed identical forces")
    print(f"max relative error vs O(N^2) reference: {rel_err:.2e} (theta={app.theta})")
    base = runs[0].time_per_body
    best = min(r.time_per_body for r in runs[2:])
    print(f"CLaMPI speedup over the uncached run: {base / best:.1f}x")


if __name__ == "__main__":
    main()
