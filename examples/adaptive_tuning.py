#!/usr/bin/env python3
"""Watching the adaptive controller resize |I_w| and |S_w| at runtime.

Starts a cache with deliberately bad parameters (tiny index, tiny storage)
and runs the paper's micro-benchmark workload through it.  The controller
(Sec. III-E1) observes conflicting and capacity/failed access ratios per
interval and grows the structures — every adjustment invalidates the cache,
which is why the paper annotates adjustment counts on its plots.

Run with:  python examples/adaptive_tuning.py
"""

from repro import clampi
from repro.apps.cachespec import CacheSpec
from repro.bench import make_micro_workload, run_micro
from repro.core.stats import snapshot_hits
from repro.util import KiB, format_bytes, format_table, format_time


def main():
    wl = make_micro_workload(n_distinct=800, z=12_000, seed=1)
    print(
        f"workload: {wl.n_distinct} distinct gets "
        f"({format_bytes(wl.window_bytes)} of remote data), "
        f"{wl.length} accesses\n"
    )

    start_index, start_storage = 64, 64 * KiB
    rows = []
    for label, spec in [
        (
            "fixed (bad parameters)",
            CacheSpec.clampi_fixed(start_index, start_storage),
        ),
        (
            "adaptive (same start)",
            CacheSpec.clampi_adaptive(
                start_index,
                start_storage,
                adaptive_params=clampi.AdaptiveParams(check_interval=256),
            ),
        ),
        (
            "fixed (oracle parameters)",
            CacheSpec.clampi_fixed(4 * wl.n_distinct, 2 * wl.window_bytes),
        ),
    ]:
        res = run_micro(wl, spec)
        s = res.stats
        hits = snapshot_hits(s)
        rows.append(
            [
                label,
                format_time(res.completion_time),
                f"{hits / s['gets']:.1%}",
                s["conflicting"],
                s["capacity"] + s["failing"],
                s["adjustments"],
                f"{res.final_index_entries} / {format_bytes(res.final_storage_bytes)}",
            ]
        )

    print(
        format_table(
            [
                "strategy",
                "completion",
                "hit ratio",
                "conflicting",
                "capacity+failed",
                "adjustments",
                "final |I_w| / |S_w|",
            ],
            rows,
        )
    )
    print(
        "\nThe adaptive run starts from the same bad parameters as the first"
        "\nrow but converges towards the oracle configuration by itself."
    )


if __name__ == "__main__":
    main()
