"""Command-line runner for the paper's applications.

Examples::

    python -m repro.apps lcc --scale 11 --procs 8 --cache clampi
    python -m repro.apps lcc --scale 11 --procs 8 --cache adaptive --trace
    python -m repro.apps bh  --bodies 1500 --procs 8 --cache native
    python -m repro.apps bh  --bodies 1500 --procs 8 --cache none

``--cache`` selects the paper's configurations: ``none`` (foMPI baseline),
``clampi`` (fixed parameters), ``adaptive`` or ``native`` (direct-mapped
block cache).
"""

from __future__ import annotations

import argparse

from repro import clampi
from repro.apps import BarnesHutApp, LCCApp
from repro.apps.cachespec import CacheSpec
from repro.core.stats import snapshot_hits
from repro.trace import capture, concat, recommend_parameters, reuse_histogram
from repro.util import KiB, format_bytes, format_table, format_time


def _spec(args, footprint: int, index_hint: int, mode) -> CacheSpec:
    index = args.index_entries or index_hint
    storage = args.storage_kib * KiB if args.storage_kib else footprint
    if args.cache == "none":
        return CacheSpec.fompi()
    if args.cache == "native":
        return CacheSpec.native(memory_bytes=storage, block_size=args.block_size)
    if args.cache == "adaptive":
        return CacheSpec.clampi_adaptive(index, storage, mode=mode)
    return CacheSpec.clampi_fixed(index, storage, mode=mode)


def _print_outcome(label: str, time_per_item: float, item: str, stats: dict) -> None:
    rows = [["configuration", label], [f"time/{item}", format_time(time_per_item)]]
    if stats:
        if "block_hits" in stats:  # native block cache
            total = stats["block_hits"] + stats["block_misses"]
            rows.append(["block accesses", total])
            if total:
                rows.append(["block hit ratio", f"{stats['block_hits'] / total:.1%}"])
            rows.append(["bytes fetched", format_bytes(stats.get("bytes_fetched", 0))])
        elif stats.get("gets", 0):
            gets = stats["gets"]
            rows.append(["gets", gets])
            rows.append(["hit ratio", f"{snapshot_hits(stats) / gets:.1%}"])
            rows.append(
                ["network bytes", format_bytes(stats.get("bytes_from_network", 0))]
            )
    print(format_table(["metric", "value"], rows))


def _trace_summary(streams) -> None:
    gets = concat(streams)
    if not len(gets):
        print("\n(no remote gets were traced)")
        return
    hist = reuse_histogram(gets)
    rec = recommend_parameters(gets)
    print(
        f"\ntrace: {len(gets)} remote gets, {sum(hist.values())} distinct, "
        f"hottest repeated {max(hist)}x"
    )
    print(
        f"advisor recommendation: |I_w| = {rec.index_entries}, "
        f"|S_w| = {format_bytes(rec.storage_bytes)}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.apps", description=__doc__)
    sub = parser.add_subparsers(dest="app", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--procs", type=int, default=8, help="number of ranks")
    common.add_argument(
        "--cache",
        choices=["none", "clampi", "adaptive", "native"],
        default="clampi",
    )
    common.add_argument("--index-entries", type=int, default=None, help="|I_w|")
    common.add_argument("--storage-kib", type=int, default=None, help="|S_w| in KiB")
    common.add_argument("--block-size", type=int, default=1024, help="native block")
    common.add_argument("--trace", action="store_true", help="record + analyse gets")
    common.add_argument("--seed", type=int, default=1)

    p_lcc = sub.add_parser("lcc", parents=[common], help="clustering coefficients")
    p_lcc.add_argument("--scale", type=int, default=10, help="log2 vertices")
    p_lcc.add_argument("--edge-factor", type=int, default=16)

    p_bh = sub.add_parser("bh", parents=[common], help="Barnes-Hut force phase")
    p_bh.add_argument("--bodies", type=int, default=1000)
    p_bh.add_argument("--theta", type=float, default=0.5)

    p_bfs = sub.add_parser("bfs", parents=[common], help="multi-source BFS")
    p_bfs.add_argument("--scale", type=int, default=9, help="log2 vertices")
    p_bfs.add_argument("--edge-factor", type=int, default=8)
    p_bfs.add_argument("--sources", type=int, default=4, help="number of BFS sources")

    args = parser.parse_args(argv)

    if args.app == "bfs":
        import numpy as np

        from repro.apps import BFSApp

        app = BFSApp(scale=args.scale, edge_factor=args.edge_factor, seed=args.seed)
        footprint = app.csr.nedges * 8
        spec = _spec(args, footprint, 2 * app.nvertices, clampi.Mode.ALWAYS_CACHE)
        candidates = np.argsort(app.csr.degrees())[-max(64, args.sources):]
        rng = np.random.default_rng(args.seed)
        sources = rng.choice(candidates, size=args.sources, replace=False).tolist()
        print(
            f"BFS: 2^{args.scale} vertices, {app.csr.nedges} edges, "
            f"{args.sources} sources, P={args.procs}, {spec.label}\n"
        )
        run = app.run(args.procs, sources, spec)
        _print_outcome(
            run.label, run.elapsed / max(len(sources), 1), "source", run.merged_stats()
        )
        if args.trace:
            # BFS has no stream producer: capture a plain run, which sees
            # every get (a cached window forwards only its misses)
            with capture(args.procs) as streams:
                app.run(args.procs, sources)
            _trace_summary(streams)
    elif args.app == "lcc":
        app = LCCApp(scale=args.scale, edge_factor=args.edge_factor, seed=args.seed)
        footprint = app.csr.nedges * 8
        spec = _spec(args, footprint, 2 * app.nvertices, clampi.Mode.ALWAYS_CACHE)
        print(
            f"LCC: 2^{args.scale} vertices, {app.csr.nedges} edges, "
            f"P={args.procs}, {spec.label}\n"
        )
        run = app.run(args.procs, spec)
        _print_outcome(run.label, run.vertex_time, "vertex", run.merged_stats())
        if args.trace:
            _trace_summary(app.stream(args.procs))
    else:
        app = BarnesHutApp(nbodies=args.bodies, seed=args.seed, theta=args.theta)
        footprint = app.tree.nnodes * 128
        spec = _spec(args, footprint, 8192, clampi.Mode.USER_DEFINED)
        if args.block_size == 1024:
            args.block_size = 128  # node-granular default for BH
        print(
            f"Barnes-Hut: N={args.bodies}, theta={args.theta}, "
            f"tree {format_bytes(footprint)}, P={args.procs}, {spec.label}\n"
        )
        run = app.run(args.procs, spec)
        _print_outcome(run.label, run.time_per_body, "body", run.merged_stats())
        if args.trace:
            _trace_summary(app.stream(args.procs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
