"""Everything printed is derived here, from raw worker records only.

``end_to_end`` turns the ``pass``/``setup`` records of one workload into the
end-to-end metrics; ``per_layer`` turns one ``traced`` record plus one
``ladder`` record into the per-layer metrics, including the attribution of
the traced pass's wall time to layers (``attribute``).  README.md holds the
definitions; BENCHMARK.json holds the contract's subset and the bounds.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path
from typing import Any, Iterable

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

#: reported per workload next to the contract's metrics; they must repeat
#: exactly for a seed, so they have no bound but equality
EXACT = ("ops", "virtual_s", "hit_ratio")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(raw_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(raw_dir.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def end_to_end(records: Iterable[dict]) -> dict[str, Any]:
    """End-to-end metrics of one workload from its untraced records."""
    records = list(records)
    passes = [r for r in records if r["kind"] == "pass"]
    walls = [w for r in passes for w in r["samples"]["wall_s"]]
    out: dict[str, Any] = {
        "checked": sum(r["checked"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "errors": [e for r in passes for e in r["errors"]],
        "setup_s": statistics.median(r["setup"]["total_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "oracle_s": statistics.median(r["oracle_s"] for r in passes),
    }
    for key in EXACT:
        values = {json.dumps(r[key]) for r in passes}
        if len(values) > 1:
            out["errors"].append(f"{key} differs between workers of one seed: {sorted(values)}")
            out["failed"] += 1
            out["checked"] += 1
        out[key] = passes[0][key]
    out["failed_share"] = out["failed"] / out["checked"]
    if walls:  # a worker whose first pass raised has no sample
        q1, q2, q3 = quartiles(walls)
        out.update({
            "wall_s": q2, "wall_q1_s": q1, "wall_q3_s": q3, "wall_n": len(walls),
            "wall_best_s": min(walls), "ops_per_s": out["ops"] / q2,
        })
    return out


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------
def unit_of(name: str) -> str:
    """Unit of a ladder rung, which carries it in its name."""
    return re.search(r"_(ns|us|ms)(?:[._]|$)", name).group(1)


TRACED_UNITS = {
    "runtime.switches": "count", "runtime.share": "ratio",
    "mpi.gets": "count", "mpi.puts": "count", "mpi.flushes": "count", "mpi.syncs": "count",
    "rma.staged_ops": "count", "net.transfers": "count", "net.bytes": "B",
    "core.gets": "count", "core.hits": "count", "core.misses": "count",
    "core.evictions": "count", "core.eviction_visited": "count",
    "core.admission_rejects": "count", "core.visited_per_victim": "ratio",
    "core.hit_ratio": "ratio",
    "obs.events": "count", "trace.overhead_ratio": "ratio",
    "faults.injected": "count", "faults.retries": "count", "recovery.crashed_ranks": "count",
    "verify.cells": "count",
    "apps.self_s": "s", "window.get_s": "s", "window.put_s": "s", "window.flush_s": "s",
    "window.sync_busy_s": "s", "window.sync_wait_s": "s",
    "host.cpu_s": "s", "host.gc_collections": "count", "host.unpinned_ratio": "ratio",
    "sim.virtual_s": "virt_s",
    "setup.import_s": "s", "setup.inputs_s": "s", "setup.warmup_s": "s", "oracle_s": "s",
    "reconcile.busy_share": "ratio",
    "attr.apps_share": "ratio", "attr.runtime_share": "ratio", "attr.mpi_share": "ratio",
    "attr.net_share": "ratio", "attr.core_share": "ratio", "attr.trace_share": "ratio",
    "attr.unattributed_share": "ratio",
}
#: the buckets every on-CPU nanosecond of a rank thread falls into
ON_CPU = ("apps.self_s", "window.get_s", "window.put_s", "window.flush_s", "window.sync_busy_s")
#: traced metrics that must repeat exactly for a seed
EXACT_TRACED = tuple(k for k, u in TRACED_UNITS.items() if u in ("count", "B", "virt_s")
                     and not k.startswith("host.")) + ("core.hit_ratio", "core.visited_per_victim")


def traced_counts(rec: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Exact per-layer counts of one traced record, and the cache's access
    classes (which :func:`attribute` prices one by one)."""
    t, c = rec["traced"], rec["traced"]["counts"]
    stats = t["stats"]
    if stats:  # the benchmark saw the cached windows: CacheStats is the source
        hits = stats["hit_full"] + stats["hit_partial"] + stats["hit_pending"]
        core = {
            "gets": stats["gets"], "hits": hits, "misses": stats["gets"] - hits,
            "hit_full": stats["hit_full"] + stats["hit_pending"], "hit_partial": stats["hit_partial"],
            "evictions": stats["evictions"], "eviction_visited": stats["eviction_visited"],
            "capacity_evictions": stats["capacity_evictions"],
            "admission_rejects": stats["admission_rejects"],
        }
    else:      # windows live inside run_matrix (or are plain): count bus events
        def access(*kinds: str) -> int:
            return sum(c.get(f"cache.access.{k}", 0) for k in kinds)

        gets = c.get("cache.access", 0) + c.get("cache.access_batch.ops", 0)
        hits = access("hit_full", "hit_partial", "hit_pending")
        core = {
            "gets": gets, "hits": hits, "misses": gets - hits,
            "hit_full": access("hit_full", "hit_pending"), "hit_partial": access("hit_partial"),
            "evictions": c.get("cache.evict", 0), "eviction_visited": 0,
            "capacity_evictions": c.get("cache.evict.capacity", 0),
            "admission_rejects": c.get("cache.admit", 0),
        }
    app_gets = rec["ops"] if rec["workload"] != "fuzz_matrix" else core["gets"]
    gets = c.get("rma.get", 0) + c.get("rma.get_batch.ops", 0)
    puts = c.get("rma.put", 0) + c.get("rma.accumulate", 0)
    # fuzz_matrix counts its own (per fault-plan slice); elsewhere the trace
    # asked every window it wrapped which pipeline it was bound to
    staged = c.get("rma.staged_ops", 0) + (gets + puts if t["staged_windows"] else 0)
    out = {
        "runtime.switches": c.get("sched.switch", 0),
        "mpi.gets": gets,
        "mpi.puts": puts,
        "mpi.flushes": c.get("rma.flush", 0) + c.get("rma.unlock", 0),
        "mpi.syncs": c.get("rma.fence", 0),
        "rma.staged_ops": staged,
        "net.transfers": c.get("net.transfer", 0), "net.bytes": c.get("net.bytes", 0),
        "core.gets": core["gets"], "core.hits": core["hits"], "core.misses": core["misses"],
        "core.evictions": core["evictions"], "core.eviction_visited": core["eviction_visited"],
        "core.admission_rejects": core["admission_rejects"],
        "core.visited_per_victim":
            core["eviction_visited"] / core["capacity_evictions"] if core["capacity_evictions"] else 0.0,
        "core.hit_ratio": core["hits"] / app_gets if app_gets else 0.0,
        "obs.events": c.get("events", 0),
        "faults.injected": c.get("fault.injected", 0), "faults.retries": c.get("fault.retry", 0),
        "recovery.crashed_ranks": c.get("rank.crashed", 0),
        "verify.cells": rec["ops"] if rec["workload"] == "fuzz_matrix" else 0,
        "sim.virtual_s": rec["virtual_s"],
    }
    return out, core


def attribute(rec: dict, counts: dict[str, float], core: dict[str, float],
              ladder: dict[str, float]) -> dict[str, float]:
    """Seconds of the traced pass attributed to each layer.

    ``apps`` is measured (span self time).  Below the window boundary time
    is count x ladder cost; README.md, "Attribution", lists every term.
    """
    us, t = 1e-6, rec["traced"]
    handoff = ladder["runtime.handoff_us.p8"] * us
    # what a handoff costs where this worker's threads actually ran
    placed = handoff if rec["pinned"] else ladder["runtime.handoff_us.p8.unpinned"] * us
    get_flush = ladder["mpi.get_flush_us.64B"] * us
    get = ladder["rma.get_us.fused"] * us
    flush = max(0.0, get_flush - get)
    put = max(0.0, ladder["mpi.put_flush_us.64B"] * us - flush)
    fence = max(0.0, ladder["mpi.fence_us.p8"] * us - handoff)
    staged_extra = max(0.0, ladder["rma.get_us.staged"] - ladder["rma.get_us.fused"]) * us

    def over(rung: str, base: float) -> float:
        return max(0.0, ladder[rung] * us - base)

    net = counts["net.transfers"] * ladder["net.cost_ns"] * 1e-9
    mpi = (counts["mpi.gets"] * get + counts["mpi.puts"] * put + counts["mpi.flushes"] * flush
           + counts["mpi.syncs"] * fence + counts["rma.staged_ops"] * staged_extra)
    transparent = set(t.get("modes", [])) <= {"transparent"}
    closes = t["counts"].get("cache.epoch", 0) if transparent else 0
    cached_puts = counts["mpi.puts"] if t.get("modes") else 0
    evicting = core["capacity_evictions"]
    core_s = (
        core["hit_full"] * over("core.get_us.hit_full", flush)
        + core["hit_partial"] * over("core.get_us.hit_partial", get_flush)
        + (core["misses"] - evicting) * over("core.get_us.miss_free", get_flush)
        + evicting * over("core.get_us.miss_evict.clampi-full", get_flush)
        + closes * over("core.epoch_close_us", flush)
        + cached_puts * over("core.put_invalidate_us", put + flush)
    )
    return {
        "apps": t["summary"]["apps.self_s"],
        "runtime": counts["runtime.switches"] * placed
        + t["worlds"] * ladder["runtime.spinup_ms.p8"] * 1e-3,
        "mpi": max(0.0, mpi - net),
        "net": net,
        "core": core_s,
        "trace": max(0.0, t["wall_s"] - rec["samples"]["wall_s"][0]),
    }


def per_layer(rec: dict, ladder: dict[str, float], untraced_wall: float | None = None) -> dict[str, float]:
    """Every per-layer metric of one workload.

    ``untraced_wall`` is the workload's ``wall_s`` when untraced rounds
    exist; otherwise the traced worker's own untraced pass is the base of
    ``trace.overhead_ratio``.
    """
    t = rec["traced"]
    counts, core = traced_counts(rec)
    layers = attribute(rec, counts, core, ladder)
    wall = t["wall_s"]
    summary = t["summary"]
    busy = sum(summary[k] for k in ON_CPU)
    out = dict(ladder)
    out.update(counts)
    out.update({k: summary[k] for k in summary if k in TRACED_UNITS})
    out.update({f"setup.{k}": rec["setup"][k] for k in ("import_s", "inputs_s", "warmup_s")})
    out.update({
        "oracle_s": rec["oracle_s"],
        "host.cpu_s": rec["samples"]["cpu_s"][0],
        "host.gc_collections": rec["samples"]["gc_collections"][0],
        "host.unpinned_ratio": rec.get("unpinned_wall_s", rec["samples"]["wall_s"][0])
        / rec["samples"]["wall_s"][0],
        "runtime.share": layers["runtime"] / wall,
        "trace.overhead_ratio": wall / (untraced_wall or rec["samples"]["wall_s"][0]),
        "reconcile.busy_share": busy / wall,
    })
    out.update({f"attr.{k}_share": v / wall for k, v in layers.items()})
    out["attr.unattributed_share"] = 1.0 - sum(layers.values()) / wall
    return out


def per_layer_units(ladder_names: Iterable[str]) -> dict[str, str]:
    units = {name: unit_of(name) for name in ladder_names}
    units.update(TRACED_UNITS)
    return units


def reconciliation(workload: str, rec: dict, metrics: dict[str, float]) -> str:
    """One line: do the ranks' on-CPU buckets add up to the traced wall?"""
    t = rec["traced"]
    if not t["windows"]:
        return (f"reconcile {workload}: no window boundary is visible from outside run_matrix; "
                f"unattributed {metrics['attr.unattributed_share']:.1%} is verify + analysis self time")
    s, wall = t["summary"], t["wall_s"]
    return (f"reconcile {workload}: rank on-CPU {sum(s[k] for k in ON_CPU):.3f} s (apps self "
            f"{s['apps.self_s']:.3f} + get/put {s['window.get_s'] + s['window.put_s']:.3f} + flush "
            f"{s['window.flush_s']:.3f} + sync busy {s['window.sync_busy_s']:.3f}) vs traced wall "
            f"{wall:.3f} s = {metrics['reconcile.busy_share']:.1%}; switches x handoff models "
            f"{metrics['attr.runtime_share'] * wall:.3f} s of it; unattributed "
            f"{metrics['attr.unattributed_share']:.1%}")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def contract() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def validate_contract(doc: dict) -> list[str]:
    """Schema and naming errors of a BENCHMARK.json document (empty = valid)."""
    errors: list[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        errors.append(f"keys {sorted(doc)} != {sorted(keys)}")
        return errors
    names: list[str] = []
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"bad workload entry {w}")
        names.append(w.get("name", ""))
    for m in doc["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 <= m["bound"] <= 0.25:
            errors.append(f"bad end_to_end entry {m}")
    for m in doc["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"bad per_layer entry {m}")
    for m in doc["end_to_end"] + doc["per_layer"]:
        names.append(m.get("name", ""))
        if not UNIT_RE.match(str(m.get("unit", ""))) or m.get("better") not in ("lower", "higher"):
            errors.append(f"bad unit/better in {m}")
    errors.extend(f"bad name {n!r}" for n in names if not NAME_RE.match(n))
    errors.extend(f"name {n!r} used twice" for n in sorted({n for n in names if names.count(n) > 1}))
    if not 2 <= len(doc["workloads"]) <= 8 or not 1 <= len(doc["end_to_end"]) <= 16 \
            or not 1 <= len(doc["per_layer"]) <= 128:
        errors.append("list length outside the contract's limits")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) missing from end_to_end")
    if not isinstance(doc["run_seconds"], int) or not 1 <= doc["run_seconds"] <= 60:
        errors.append("run_seconds outside 1..60")
    return errors


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def table(rows: list[list[Any]], header: list[str]) -> str:
    cells = [header] + [[fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
