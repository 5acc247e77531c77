"""Ablation studies of CLaMPI's design choices.

The paper motivates several design decisions without dedicated plots; these
ablations make each one measurable on the simulated substrate:

* **A1 — cuckoo hash functions (p)**: Sec. III-C1 picks p=4 ("up to 97%
  space utilization").  Sweep p and measure conflicting accesses.
* **A2 — victim sample size (M)**: Sec. III-D selects victims from an
  M-entry sample (M=16 in the paper's experiments).  Sweep M: larger
  samples pick better victims but cost more visits per eviction.
* **A3 — weak caching (bounded evictions)**: Sec. III-D2 argues for
  evicting a constant number of entries per miss instead of evicting until
  the new entry fits.  Sweep the eviction budget.
* **A4 — best-fit allocation**: Sec. III-C2 serves allocations best-fit
  from the AVL tree.  Compare against first-fit.
* **A5 — block size of the native baseline**: Fig. 3's argument — fixed
  blocks either fragment internally (big blocks) or multiply requests
  (small blocks).  Sweep the block size on the LCC workload.
* **A6 — eviction/admission policy**: Sec. III-D1 evaluates one score
  family.  Run every registered policy (:mod:`repro.core.policy`) on
  three tight-cache workloads; defined in :mod:`repro.bench.policies`.
"""

from __future__ import annotations

from repro import clampi
from repro.apps import LCCApp
from repro.apps.cachespec import CacheSpec
from repro.bench.micro import make_micro_workload, run_micro
from repro.bench.policies import ablation_policy_matrix
from repro.bench.reporting import FigureResult
from repro.core.stats import snapshot_hits
from repro.util import format_bytes


def ablation_cuckoo_hashes(
    n_distinct: int = 800, z: int = 8000, ps: list[int] | None = None
) -> FigureResult:
    """A1: number of cuckoo hash functions vs conflicting accesses."""
    ps = ps or [2, 3, 4, 8]
    wl = make_micro_workload(n_distinct=n_distinct, z=z, seed=3)
    # index sized right at the working set: utilisation is what p buys
    index_entries = n_distinct
    fig = FigureResult(
        "Ablation A1",
        f"cuckoo hash functions p vs conflicts (|I_w|={index_entries}, Z={z})",
        ["p", "conflicting", "conflict ratio", "hit ratio", "completion (ms)"],
    )
    conflicts = {}
    completion = {}
    for p in ps:
        spec = CacheSpec.clampi_fixed(
            index_entries, 4 * wl.window_bytes, num_hashes=p
        )
        res = run_micro(wl, spec)
        s = res.stats
        conflicts[p] = s["conflicting"]
        completion[p] = res.completion_time
        fig.rows.append(
            [
                p,
                s["conflicting"],
                round(s["conflicting"] / s["gets"], 4),
                round(snapshot_hits(s) / s["gets"], 3),
                round(res.completion_time * 1e3, 3),
            ]
        )
    fig.add_claim(
        "p=4 (the paper's choice) suffers far fewer conflicts than p=2",
        conflicts[4] < 0.5 * max(conflicts[2], 1),
    )
    fig.add_claim(
        "returns diminish beyond p=4: completion improves < 5% going to p=8",
        completion[8] > 0.95 * completion[4],
    )
    return fig


def ablation_sample_size(
    n_distinct: int = 800, z: int = 10_000, ms: list[int] | None = None
) -> FigureResult:
    """A2: victim sample size M vs hit quality and eviction cost."""
    ms = ms or [1, 4, 16, 64]
    wl = make_micro_workload(n_distinct=n_distinct, z=z, seed=3)
    storage = wl.window_bytes // 3  # force capacity evictions
    fig = FigureResult(
        "Ablation A2",
        f"victim sample size M (|S_w|={format_bytes(storage)}, Z={z})",
        ["M", "hits", "visited/evict", "completion (ms)"],
    )
    hits = {}
    for m in ms:
        spec = CacheSpec.clampi_fixed(
            2 * n_distinct, storage, sample_size=m
        )
        res = run_micro(wl, spec)
        s = res.stats
        hits[m] = snapshot_hits(s)
        ev = max(s["capacity_evictions"], 1)
        fig.rows.append(
            [
                m,
                hits[m],
                round(s["eviction_visited"] / ev, 1),
                round(res.completion_time * 1e3, 3),
            ]
        )
    fig.add_claim(
        "larger samples do not hurt hit quality (M=16 >= M=1 - 3%)",
        hits[16] >= hits[1] - int(0.03 * z),
    )
    fig.add_claim(
        "eviction cost grows with M (visited entries increase)",
        fig.rows[-1][2] > fig.rows[0][2],
    )
    return fig


def ablation_weak_caching(
    n_distinct: int = 800, z: int = 10_000, budgets: list[int] | None = None
) -> FigureResult:
    """A3: eviction budget per miss (weak caching, Sec. III-D2)."""
    budgets = budgets if budgets is not None else [0, 1, 4, 16]
    wl = make_micro_workload(n_distinct=n_distinct, z=z, seed=3)
    storage = wl.window_bytes // 3
    fig = FigureResult(
        "Ablation A3",
        f"capacity-eviction budget per miss (|S_w|={format_bytes(storage)})",
        ["budget", "hits", "failing", "evictions", "completion (ms)"],
    )
    hits = {}
    for b in budgets:
        spec = CacheSpec.clampi_fixed(
            2 * n_distinct, storage, max_capacity_evictions=b
        )
        res = run_micro(wl, spec)
        s = res.stats
        hits[b] = snapshot_hits(s)
        fig.rows.append(
            [
                b,
                hits[b],
                s["failing"],
                s["evictions"],
                round(res.completion_time * 1e3, 3),
            ]
        )
    fig.add_claim(
        "no evictions at all (budget 0) loses hits once the buffer fills",
        hits[0] < hits[1],
    )
    fig.add_claim(
        "one eviction per miss (the paper's weak caching) already captures "
        "most of the benefit of a large budget",
        hits[1] >= 0.9 * hits[16],
    )
    return fig


def ablation_allocator_fit(
    n_distinct: int = 800, z: int = 10_000
) -> FigureResult:
    """A4: best-fit (paper) vs first-fit allocation."""
    wl = make_micro_workload(n_distinct=n_distinct, z=z, seed=3)
    storage = wl.window_bytes // 3
    fig = FigureResult(
        "Ablation A4",
        f"allocation policy (|S_w|={format_bytes(storage)}, Z={z})",
        ["policy", "hits", "failing", "mean occupancy", "completion (ms)"],
    )
    stats = {}
    for fit in ("best", "first"):
        spec = CacheSpec.clampi_fixed(
            2 * n_distinct, storage, allocator_fit=fit
        )
        res = run_micro(wl, spec, record_occupancy=True)
        s = res.stats
        hits = snapshot_hits(s)
        occ = float(res.occupancy[z // 4 :].mean())
        stats[fit] = (hits, s["failing"], occ, res.completion_time)
        fig.rows.append(
            [fit, hits, s["failing"], round(occ, 3), round(res.completion_time * 1e3, 3)]
        )
    fig.add_claim(
        "best fit sustains at least the occupancy of first fit",
        stats["best"][2] >= stats["first"][2] - 0.02,
    )
    fig.add_claim(
        "best fit serves at least as many hits",
        stats["best"][0] >= 0.97 * stats["first"][0],
    )
    return fig


def ablation_native_block_size(
    scale: int = 10,
    nprocs: int = 8,
    block_sizes: list[int] | None = None,
) -> FigureResult:
    """A5: the native cache's block size on the LCC workload (Fig. 3 story)."""
    block_sizes = block_sizes or [128, 512, 2048, 8192]
    app = LCCApp(scale=scale, edge_factor=16, seed=4)
    memory = app.csr.nedges * 8 // 4  # fixed budget, 25% of the adjacency
    fig = FigureResult(
        "Ablation A5",
        f"native block size under a fixed {format_bytes(memory)} budget "
        f"(LCC 2^{scale}, P={nprocs})",
        ["block size", "vertex time (us)", "bytes fetched", "block hit ratio"],
    )
    fetched = {}
    times = {}
    for bs in block_sizes:
        run = app.run(nprocs, CacheSpec.native(memory_bytes=memory, block_size=bs))
        st = run.merged_stats()
        fetched[bs] = st["bytes_fetched"]
        times[bs] = run.vertex_time
        ratio = st["block_hits"] / max(st["block_hits"] + st["block_misses"], 1)
        fig.rows.append(
            [
                format_bytes(bs),
                round(run.vertex_time * 1e6, 2),
                format_bytes(int(st["bytes_fetched"])),
                round(ratio, 3),
            ]
        )
    fig.add_claim(
        "big blocks move more bytes than small blocks (internal fragmentation)",
        fetched[block_sizes[-1]] > fetched[block_sizes[0]],
    )
    fig.add_claim(
        "no block size wins everywhere: the best block size is in the "
        "interior or the extremes differ by >= 20% (the variable-size "
        "motivation of Fig. 3)",
        (min(times, key=times.get) not in (block_sizes[0], block_sizes[-1]))
        or abs(times[block_sizes[0]] - times[block_sizes[-1]])
        > 0.2 * min(times.values()),
    )
    return fig


ALL_ABLATIONS = {
    "a1_cuckoo_hashes": ablation_cuckoo_hashes,
    "a2_sample_size": ablation_sample_size,
    "a3_weak_caching": ablation_weak_caching,
    "a4_allocator_fit": ablation_allocator_fit,
    "a5_native_block_size": ablation_native_block_size,
    "a6_policy_matrix": ablation_policy_matrix,
}
