#!/usr/bin/env python3
"""Locality analysis of RMA get traces (the paper's Figs. 2 and 3).

Takes the get stream of a Barnes-Hut and an LCC run (computed by the apps
from the problem, no simulated run needed), then computes the two locality
measures that motivate RMA caching:

* the reuse histogram — how many times the same (target, displacement)
  is fetched (temporal locality, Fig. 2);
* the size distribution — how variable the payload sizes are, i.e. why a
  fixed block size fragments internally (Fig. 3);

plus the Denning working-set profile used to reason about |I_w|/|S_w|
(Sec. III-E).

Run with:  python examples/locality_analysis.py
"""

import numpy as np

from repro.apps import BarnesHutApp, LCCApp
from repro.trace import (
    concat,
    reuse_fraction,
    reuse_histogram,
    size_distribution,
    working_set_bytes,
    working_set_sizes,
)
from repro.util import format_bytes, format_table


def main():
    print("--- Barnes-Hut (N=600 bodies, P=4): temporal locality ---\n")
    bh = BarnesHutApp(nbodies=600, seed=9)
    gets = concat(bh.stream(4))
    hist = reuse_histogram(gets)
    rows = []
    for lo, hi in [(1, 1), (2, 9), (10, 99), (100, 999), (1000, 10**9)]:
        n = sum(k for rep, k in hist.items() if lo <= rep <= hi)
        if n:
            label = f"{lo}" if lo == hi else f"{lo}-{hi if hi < 10**9 else '...'}"
            rows.append([label, n])
    print(format_table(["times repeated", "distinct gets"], rows))
    print(
        f"\nreuse fraction: {reuse_fraction(gets):.1%} of all gets re-fetch"
        f" data already seen; hottest get repeated {max(hist)} times\n"
    )

    print("--- LCC (R-MAT 2^10, P=8): size variability ---\n")
    lcc = LCCApp(scale=10, edge_factor=16, seed=9)
    streams = lcc.stream(8)
    gets = concat(streams)
    edges, counts = size_distribution(gets)
    rows = [
        [f"{format_bytes(int(lo))}..{format_bytes(int(hi))}", int(c)]
        for lo, hi, c in zip(edges[:-1], edges[1:], counts)
        if c
    ]
    print(format_table(["get size", "count"], rows))
    sizes = gets.nbytes
    print(
        f"\nsizes span {sizes.min()}..{sizes.max()} B "
        f"(median {int(np.median(sizes))} B) -> fixed-size blocks would "
        "fragment internally\n"
    )

    print("--- working-set profile of the LCC trace (one rank) ---\n")
    one_rank = streams[0]
    for tau in (100, 1000, 5000):
        ws = working_set_sizes(one_rank, tau)
        wb = working_set_bytes(one_rank, tau)
        print(
            f"tau={tau:>5}: mean |W(t,tau)| = {ws.mean():8.1f} gets, "
            f"mean footprint = {format_bytes(int(wb.mean()))}"
        )
    print(
        "\n|I_w| bounds the working-set cardinality, |S_w| its footprint "
        "(Sec. III-E constraints)."
    )


if __name__ == "__main__":
    main()
