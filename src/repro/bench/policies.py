"""Ablation A6 — the eviction/admission policy matrix.

Runs every registered eviction/admission policy (``repro.core.policy``)
over three workloads with deliberately tight cache sizing — so the
victim/admission decisions, not the cache capacity, dominate the hit
rate — and tabulates hit rate, virtual time and admission rejects per
(workload, policy):

* ``fig02-reuse`` — the Barnes-Hut get trace of Fig. 2 (recorded once
  from an uncached run) replayed through a two-rank cached window: the
  paper's headline reuse pattern, isolated from computation;
* ``lcc`` — the LCC application on a small R-MAT graph (variable get
  sizes, scale-free hub reuse);
* ``bh`` — the Barnes-Hut force phase itself (USER_DEFINED epochs).

Registered as ``a6_policy_matrix`` in
:data:`repro.bench.ablations.ALL_ABLATIONS`, so ``python -m repro.bench
a6_policy_matrix`` runs, renders and claim-checks it like every other
figure.  That the default policy's virtual times stay bit-identical on
these workloads is pinned in tier-1
(``tests/test_virtual_time_golden.py``).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.apps import BarnesHutApp, LCCApp
from repro.apps.barnes_hut import NODE_BYTES
from repro.apps.cachespec import CacheSpec
from repro.bench.reporting import FigureResult
from repro.core.policy import available_policies
from repro.core.stats import snapshot_hits
from repro.graph.partition import BlockPartition
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.net import PerfModel
from repro.trace import GetRecord
from repro.util import KiB, align_up

#: Fraction of the distinct working set the replay cache can hold —
#: small enough that eviction/admission quality decides the hit rate
#: (at this sizing the frequency-aware policies clearly separate from
#: the recency-only ones on the skewed Fig. 2 reuse pattern).
REPLAY_STORAGE_FRACTION = 0.25
REPLAY_INDEX_ENTRIES = 256


# ---------------------------------------------------------------------------
# fig02-reuse: record the BH trace once, replay it per policy
# ---------------------------------------------------------------------------
def record_bh_trace(nbodies: int, nprocs: int = 4) -> list[GetRecord]:
    """The Fig. 2 get trace: every remote get of an uncached BH run.

    Rank by rank, in issue order, as a traced run on ``nprocs`` ranks
    records them; taken from the app's visit sets, so no world runs.
    """
    app = BarnesHutApp(nbodies=nbodies, seed=11)
    walk = app.visits()
    blk = BlockPartition(app.tree.nnodes, nprocs).block
    owner, disp = np.divmod(walk.order[walk.positions], blk)
    bodies = BlockPartition(nbodies, nprocs)
    records: list[GetRecord] = []
    for rank in range(nprocs):
        lo, hi = bodies.range_of(rank)
        sl = slice(walk.offsets[lo], walk.offsets[hi])
        far = owner[sl] != rank
        targets, disps = owner[sl][far].tolist(), (disp[sl][far] * NODE_BYTES).tolist()
        records += map(GetRecord, targets, disps, [NODE_BYTES] * len(targets))
    return records


def _flatten_trace(
    records: list[GetRecord],
) -> tuple[list[tuple[int, int]], int]:
    """Map (trg, dsp) identities onto one target rank's address space.

    Each source rank gets a disjoint, aligned base offset so distinct
    (trg, dsp) keys stay distinct after the collapse onto rank 1.
    Returns ``[(dsp, size), ...]`` plus the window size that fits them.
    """
    span: dict[int, int] = {}
    for r in records:
        span[r.trg] = max(span.get(r.trg, 0), r.dsp + r.size)
    base: dict[int, int] = {}
    offset = 0
    for trg in sorted(span):
        base[trg] = offset
        offset += align_up(span[trg])
    return [(base[r.trg] + r.dsp, r.size) for r in records], max(offset, 1)


def _replay_program(
    mpi: MPIProcess,
    gets: list[tuple[int, int]],
    window_bytes: int,
    spec: CacheSpec,
):
    local = np.zeros(window_bytes, dtype=np.uint8)
    if mpi.rank == 1:
        local[:] = (np.arange(window_bytes) % 251).astype(np.uint8)
    win = spec.make_window(mpi.comm_world, local)
    mpi.comm_world.barrier()
    if mpi.rank == 1:
        return None
    bufs = {s: np.empty(s, np.uint8) for _, s in gets}
    with win.lock_all_epoch():
        for dsp, size in gets:
            buf = bufs[size]
            win.get(buf, 1, dsp)
            win.flush(1)
            expected = (np.arange(dsp, dsp + size) % 251).astype(np.uint8)
            if not np.array_equal(buf, expected):
                raise AssertionError(
                    f"replay returned wrong data at dsp={dsp}"
                )
    return win.stats.snapshot()


def replay_trace(
    records: list[GetRecord], policy: str
) -> tuple[dict[str, Any], float]:
    """Replay the trace through a tight two-rank cache under ``policy``.

    Returns the getting rank's stats snapshot and the run's makespan.
    """
    gets, window_bytes = _flatten_trace(records)
    distinct_bytes = sum(
        size for (dsp, size) in dict.fromkeys(gets)  # first occurrence per key
    )
    spec = CacheSpec.clampi_fixed(
        REPLAY_INDEX_ENTRIES,
        max(int(distinct_bytes * REPLAY_STORAGE_FRACTION), 2 * KiB),
        policy=policy,
    )
    mpi = SimMPI(nprocs=2, perf=PerfModel.spread(2))
    results = mpi.run(_replay_program, gets, window_bytes, spec)
    return results[0], mpi.elapsed


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------
def policy_workloads(
    nbodies: int, lcc_scale: int
) -> dict[str, Callable[[str], tuple[dict[str, Any], float]]]:
    """The three workloads, each a ``policy -> (stats, virtual s)`` run.

    ``stats`` is the merged counter snapshot and the virtual time is that
    run's own makespan, so a cell never depends on what ran before it.
    """
    bh_trace = record_bh_trace(nbodies)
    lcc_app = LCCApp(scale=lcc_scale, edge_factor=8, seed=5)
    bh_app = BarnesHutApp(nbodies=nbodies, seed=11)

    # Tight app-run caches: a fraction of what the generous figure specs
    # use, so policy quality shows up as hit-rate spread.
    def app_run(app, storage_bytes: int):
        def run(policy: str):
            spec = CacheSpec.clampi_fixed(1 << 7, storage_bytes, policy=policy)
            result = app.run(4, spec)
            return result.merged_stats(), result.makespan

        return run

    return {
        "fig02-reuse": lambda policy: replay_trace(bh_trace, policy),
        "lcc": app_run(lcc_app, lcc_app.csr.nedges * 2),
        "bh": app_run(bh_app, max(nbodies * 48, 2 * KiB)),
    }


def ablation_policy_matrix(
    nbodies: int = 400,
    lcc_scale: int = 8,
    policies: list[str] | None = None,
) -> FigureResult:
    """A6: every registered eviction/admission policy on tight caches."""
    policies = policies or available_policies()
    fig = FigureResult(
        "Ablation A6",
        f"eviction/admission policies on tight caches (BH N={nbodies}, "
        f"LCC 2^{lcc_scale})",
        ["workload", "policy", "hit rate", "virtual time (ms)", "admission rejects"],
    )
    workloads = policy_workloads(nbodies, lcc_scale)
    hit: dict[tuple[str, str], float] = {}
    virtual: dict[tuple[str, str], float] = {}
    for w, run in workloads.items():
        for pol in policies:
            stats, virtual[w, pol] = run(pol)
            hit[w, pol] = snapshot_hits(stats) / max(stats["gets"], 1)
            fig.rows.append(
                [
                    w,
                    pol,
                    round(hit[w, pol], 3),
                    round(virtual[w, pol] * 1e3, 3),
                    stats["admission_rejects"],
                ]
            )
        best = max(policies, key=lambda pol: hit[w, pol])
        fig.notes.append(f"best hit rate on {w}: {best} ({hit[w, best]:.3f})")
    # Each claim names built-in policies; a ``policies`` subset that
    # leaves one out skips the claim rather than failing it.
    if {"lru", "clampi-temporal"} <= set(policies):
        fig.add_claim(
            "lru and clampi-temporal order victims identically (same hit "
            "rate and virtual time on every workload)",
            all(
                hit[w, "lru"] == hit[w, "clampi-temporal"]
                and virtual[w, "lru"] == virtual[w, "clampi-temporal"]
                for w in workloads
            ),
        )
    if {"lru", "slru", "tinylfu"} <= set(policies):
        fig.add_claim(
            "frequency-aware slru and tinylfu beat recency-only lru on the "
            "Fig. 2 reuse trace and on Barnes-Hut",
            all(
                min(hit[w, "slru"], hit[w, "tinylfu"]) > hit[w, "lru"]
                for w in ("fig02-reuse", "bh")
            ),
        )
    return fig
