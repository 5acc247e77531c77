"""One benchmark worker: a fresh process that sets up, warms up, measures.

``run.py`` starts every worker as a subprocess with ``PYTHONHASHSEED=0`` and
``--t0`` = its own ``perf_counter()`` at spawn (CLOCK_MONOTONIC is shared
between processes), so ``setup_s`` covers interpreter start, imports, input
generation and the discarded warm-up pass.  The worker writes exactly one
raw JSON record; every table is derived from those records later.

A worker whose pass is one ``SimWorld`` pins itself to one CPU.  Exactly one
rank thread of a world is runnable at any instant, so nothing is lost -- but
left alone the OS spreads the threads over the CPUs, every handoff becomes a
cross-CPU wake-up, and the same pass takes 1.2x (lcc_hit) to 2x (epoch_churn)
longer, flipping between the two states for minutes at a time.  The unpinned
cost is reported per layer (``runtime.handoff_us.p8.unpinned``,
``host.unpinned_ratio``), not folded into every end-to-end number as noise.
``fuzz_matrix`` is not pinned (:data:`UNPINNED`).

Kinds: ``pass`` (timed untraced passes), ``setup`` (set-up only, a
``setup_s`` sample), ``traced`` (one untraced and one traced pass),
``ladder`` (the micro-ladder, no workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

MIN_PASSES = 3
#: ``run_matrix`` runs many independent worlds and is what a parallel cell
#: runner would change.  Threads and child processes inherit the affinity
#: mask, so under a pin such a runner could never lower ``wall_s``; this
#: workload keeps every CPU it was given and pays the placement noise.
UNPINNED = frozenset({"fuzz_matrix"})


def pin() -> set[int] | None:
    """Pin this thread (and every thread it starts) to one CPU.

    Returns the CPUs it was allowed before, or ``None`` when the platform
    does not let it choose.
    """
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
    except (AttributeError, OSError):
        return None
    return allowed


def host_fingerprint() -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def commit() -> str | None:
    root = Path(__file__).resolve().parents[2]
    if not (root / ".git").exists():  # an exported checkout: do not look further up
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def timed_pass(wl, trace=None) -> tuple:
    """Run one pass; returns ``(result, wall_s, cpu_s, gc_collections)``."""
    gc0 = sum(s["collections"] for s in gc.get_stats())
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = wl.run_pass(trace)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return result, wall, cpu, sum(s["collections"] for s in gc.get_stats()) - gc0


def hit_ratio(stats: dict) -> float | None:
    gets = stats.get("gets", 0)
    if not gets:
        return None
    return (stats["hit_full"] + stats["hit_partial"] + stats["hit_pending"]) / gets


class Checker:
    """Counts checked / failed output units; a raising pass fails whole."""

    def __init__(self, wl, corrupt: bool):
        self.wl = wl
        self.corrupt = corrupt
        self.checked = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, result) -> None:
        if self.corrupt:
            self.wl.corrupt(result)
            self.corrupt = False
        checked, failed = self.wl.check(result)
        self.checked += checked
        self.failed += failed

    def error(self, message: str) -> None:
        self.errors.append(message)
        self.checked += 1
        self.failed += 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("pass", "setup", "traced", "ladder"), required=True)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--ladder-scale", type=float, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--t0", type=float, required=True, help="the parent's perf_counter() at spawn")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    t_spawn = args.t0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    allowed = None if args.workload in UNPINNED else pin()

    record: dict = {
        "kind": args.kind, "workload": args.workload, "round": args.round,
        "seed": args.seed, "quick": args.quick, "pinned": allowed is not None,
    }
    if args.kind == "ladder":
        import ladder

        record["ladder"] = ladder.run(args.ladder_scale, args.out.parent, allowed)
    else:
        import workloads

        t_import = time.perf_counter()
        wl = workloads.make(args.workload, args.seed, args.quick)
        t_inputs = time.perf_counter()
        warm = wl.run_pass()
        t_ready = time.perf_counter()
        record["sizes"] = wl.sizes
        record["setup"] = {
            "import_s": t_import - t_spawn, "inputs_s": t_inputs - t_import,
            "warmup_s": t_ready - t_inputs, "total_s": t_ready - t_spawn,
        }
        if args.kind != "setup":
            measure(args, wl, warm, record, allowed)
    record.setdefault("peak_rss_mb", peak_rss_mb())
    record["commit"] = commit()
    record["host"] = host_fingerprint()
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True))
    return 0


def measure(args, wl, warm, record: dict, allowed: set[int] | None) -> None:
    t = time.perf_counter()
    wl.oracle()
    record["oracle_s"] = time.perf_counter() - t
    checker = Checker(wl, args.corrupt)
    checker.check(warm)

    def exact_of(result) -> dict:
        return {"ops": wl.ops, "virtual_s": result.virtual_s, "hit_ratio": hit_ratio(result.stats)}

    samples: dict[str, list] = {"wall_s": [], "cpu_s": [], "gc_collections": []}
    exact = exact_of(warm)
    passes = 1 if args.kind == "traced" else MIN_PASSES
    deadline = time.perf_counter() + (0 if args.kind == "traced" else args.seconds)
    result = warm
    while len(samples["wall_s"]) < passes or time.perf_counter() < deadline:
        try:
            result, wall, cpu, collections = timed_pass(wl)
        except Exception as exc:  # a raising pass is a failed output, not a crash
            checker.error(f"pass raised {type(exc).__name__}: {exc}")
            break
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["gc_collections"].append(collections)
        if len(samples["wall_s"]) == passes:
            # after a fixed amount of work, so that a faster commit is not
            # charged for the extra passes it fits into the run
            record["peak_rss_mb"] = peak_rss_mb()
        checker.check(result)
        if exact_of(result) != exact:
            checker.error(f"pass not reproducible: {exact_of(result)} != {exact}")
    record.update(exact)
    record["samples"] = samples
    record["stats"] = result.stats

    if args.kind == "traced" and not checker.errors:
        if allowed:
            # one pass as a user gets it: threads free to roam the CPUs
            os.sched_setaffinity(0, allowed)
            record["unpinned_wall_s"] = timed_pass(wl)[1]
            pin()
        import spans
        from repro import obs

        trace = spans.Trace()
        worlds = obs.virtual_time.runs
        with trace.counting():
            root = trace.open("pass")
            try:
                result, wall, _, _ = timed_pass(wl, trace)
            except Exception as exc:
                checker.error(f"traced pass raised {type(exc).__name__}: {exc}")
            else:
                trace.close(root)
                trace.finish()
                checker.check(result)
                record["traced"] = {
                    "wall_s": wall,
                    "summary": spans.summarise(trace.spans, trace.switches),
                    "counts": dict(trace.counts),
                    "stats": result.stats,
                    "windows": len(trace.windows),
                    "modes": sorted({w.mode.value for w in trace.windows if hasattr(w, "mode")}),
                    "staged_windows": trace.staged_windows(),
                    "worlds": obs.virtual_time.runs - worlds,
                }
                trace_file = args.out.parent.parent / f"trace-{args.workload}.json"
                trace_file.write_text(json.dumps(
                    {"workload": args.workload, "seed": args.seed,
                     "columns": ["name", "rank", "start_ns", "end_ns", "parent"],
                     "spans": trace.spans,
                     "switches": trace.switches}))
    record["checked"] = checker.checked
    record["failed"] = checker.failed
    record["errors"] = checker.errors


if __name__ == "__main__":
    sys.exit(main())
