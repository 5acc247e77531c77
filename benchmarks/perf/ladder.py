"""The micro-ladder: one public call of one layer, timed in isolation.

Every rung loops over a call into a layer's public API and reports the best
of ``reps`` loops as ns/us/ms per call.  At ``scale=1`` a rung is 20 000
calls, best of 5 -- 5 000 for the evicting-miss rungs (~50 us a call, seven
policies) and 2 000 for calls that synchronise ranks or scan the whole index
(fence, barrier, epoch close, put invalidation).  The contract's per-run
time cap makes ``run.py --workload ... --trace 1`` use ``scale=0.2``.

Window rungs run on rank 0 of a two-rank world whose rank 1 only joins the
collective window creation, so the timed loops see no scheduler switch.
Rungs whose name ends in ``.p2``/``.p8`` synchronise that many ranks and
report the cost of one rank's call including its one handoff (round / P).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import clampi, rma
from repro.baselines import BlockCachedWindow
from repro.core.avl import AVLTree
from repro.core.cuckoo import CuckooIndex
from repro.core.entry import CacheEntry
from repro.core.policy import available_policies
from repro.core.storage import Storage
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import CSRGraph, rmat_graph
from repro.mpi.datatypes import BYTE
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.mpi.window import Window
from repro.net import PerfModel
from repro.obs import RMA_GET, Event, EventBus, JSONLSink, RingBufferSink
from repro.runtime import SimProcess, SimWorld
from repro.verify import Cell, generate, run_cell

import workloads

_now = time.perf_counter_ns
LINE = 64  #: bytes per get, and the stride between distinct keys


def best(reps: int, loop: Callable[[], float]) -> float:
    return min(loop() for _ in range(reps))


def keep(out: dict[str, float], name: str, value: float) -> None:
    """Best-of bookkeeping for rungs whose reps share one set-up loop."""
    out[name] = min(out.get(name, float("inf")), value)


def per_call(calls: int, body: Callable[[int], Any]) -> float:
    """ns per call of ``body(i)`` over one loop of ``calls`` calls."""
    t0 = _now()
    for i in range(calls):
        body(i)
    return (_now() - t0) / calls


def on_rank0(program: Callable[..., Any], *args: Any, nprocs: int = 2, **job: Any) -> Any:
    return SimMPI(nprocs, perf=PerfModel.spread(nprocs), **job).run(program, *args)[0]


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
def _sync_rounds(proc: SimProcess, calls: int, reps: int) -> float:
    return best(reps, lambda: per_call(calls, lambda i: proc.sync()))


def _advance(proc: SimProcess, calls: int, reps: int) -> float:
    return best(reps, lambda: per_call(calls, lambda i: proc.advance(1e-9)))


def _noop(proc: SimProcess) -> None:
    return None


def handoff_us(nprocs: int, syncs: int, reps: int) -> float:
    return SimWorld(nprocs).run(_sync_rounds, syncs, reps)[0] / nprocs / 1e3


def runtime_rungs(calls: int, syncs: int, reps: int, allowed: set[int] | None) -> dict[str, float]:
    out = {f"runtime.handoff_us.p{p}": handoff_us(p, syncs, reps) for p in (2, 8)}
    # the same rung with the rank threads free to roam the CPUs the worker
    # was given, as in a process that does not pin itself
    if allowed:
        os.sched_setaffinity(0, allowed)
    out["runtime.handoff_us.p8.unpinned"] = handoff_us(8, syncs, reps)
    if allowed:
        os.sched_setaffinity(0, {min(allowed)})
    worlds = max(5, syncs // 50)
    out["runtime.spinup_ms.p8"] = best(
        reps, lambda: per_call(worlds, lambda i: SimWorld(8).run(_noop))) / 1e6
    out["runtime.advance_ns"] = SimWorld(1).run(_advance, calls, reps)[0]
    return out


# ----------------------------------------------------------------------
# mpi / rma / net
# ----------------------------------------------------------------------
def _plain_window(mpi: MPIProcess, calls: int, reps: int) -> dict[str, float] | None:
    win = Window.allocate(mpi.comm_world, 1 << 16)
    if mpi.rank:
        return None
    small, page = np.empty(LINE, np.uint8), np.empty(4096, np.uint8)
    batch = [(np.empty(LINE, np.uint8), 1, k * LINE) for k in range(16)]

    def get_flush(buf: np.ndarray) -> Callable[[int], None]:
        def body(i: int) -> None:
            win.get(buf, 1, 0)
            win.flush(1)
        return body

    def put_flush(i: int) -> None:
        win.put(small, 1, 0)
        win.flush(1)

    def get_batch(i: int) -> None:
        win.get_batch(batch)
        win.flush(1)

    with win.lock_all_epoch():
        return {
            "mpi.get_flush_us.64B": best(reps, lambda: per_call(calls, get_flush(small))) / 1e3,
            "mpi.get_flush_us.4KiB": best(reps, lambda: per_call(calls, get_flush(page))) / 1e3,
            "mpi.put_flush_us.64B": best(reps, lambda: per_call(calls, put_flush)) / 1e3,
            "mpi.get_batch_us_per_op":
                best(reps, lambda: per_call(calls // 16, get_batch)) / 16 / 1e3,
        }


def _gets(mpi: MPIProcess, calls: int, reps: int) -> tuple[float, bool] | None:
    """us per bare ``get`` (one flush per 32), and whether the path was fused."""
    win = Window.allocate(mpi.comm_world, 1 << 16)
    if mpi.rank:
        return None
    buf = np.empty(LINE, np.uint8)

    def body(i: int) -> None:
        for _ in range(32):
            win.get(buf, 1, 0)
        win.flush(1)

    with win.lock_all_epoch():
        ns = best(reps, lambda: per_call(calls // 32, body)) / 32
    return ns / 1e3, rma.build_data_pipeline(win).fused


#: the world each ``rma.get_us`` rung runs in; only a world without a fault
#: plan gets the fused pipeline
RMA_JOBS: dict[str, dict[str, Any]] = {
    "fused": {},
    "staged": {"faults": FaultPlan()},
    # 8 attempts: at 5 % a get exhausting its retries is a 4e-11 event
    "retry": {"faults": FaultPlan.transient_gets(0.05, seed=7),
              "retry": RetryPolicy(max_attempts=8)},
}


def rma_rung(path: str, calls: int, reps: int) -> tuple[float, bool]:
    return on_rank0(_gets, calls, reps, **RMA_JOBS[path])


def _collectives(mpi: MPIProcess, syncs: int, reps: int) -> dict[str, float]:
    comm = mpi.comm_world
    win = Window.allocate(comm, 4096)
    creates = max(5, syncs // 20)
    return {
        "mpi.fence_us.p8": best(reps, lambda: per_call(syncs, lambda i: win.fence())) / 8 / 1e3,
        "mpi.barrier_us.p8": best(reps, lambda: per_call(syncs, lambda i: comm.barrier())) / 8 / 1e3,
        "mpi.win_create_ms.p8":
            best(reps, lambda: per_call(creates, lambda i: Window.allocate(comm, 4096))) / 1e6,
    }


def net_rungs(calls: int, reps: int) -> dict[str, float]:
    perf = PerfModel.spread(8)
    return {"net.cost_ns": best(reps, lambda: per_call(calls, lambda i: perf.get_time(0, 1, 4096)))}


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _cached_windows(mpi: MPIProcess, calls: int, syncs: int, reps: int) -> dict[str, float] | None:
    comm = mpi.comm_world
    nbytes = calls * LINE
    always = clampi.Mode.ALWAYS_CACHE
    big = clampi.window_allocate(comm, nbytes, mode=always, config=clampi.Config(
        index_entries=4 * calls, storage_bytes=4 * nbytes))
    # default Config (|I|=4096, |S|=4 MiB): what epoch_churn and most users run
    default = clampi.window_allocate(comm, nbytes, mode=always)
    tiny = {
        policy: clampi.window_allocate(comm, nbytes, mode=always, policy=policy,
                                       config=clampi.Config(index_entries=256, storage_bytes=64 * LINE))
        for policy in available_policies()
    }
    transparent = clampi.window_allocate(comm, nbytes, mode=clampi.Mode.TRANSPARENT)
    block = BlockCachedWindow(Window.allocate(comm, nbytes))
    if mpi.rank:
        return None
    line, double = np.empty(LINE, np.uint8), np.empty(2 * LINE, np.uint8)

    def get_flush(win: Any, buf: np.ndarray, stride: int = LINE) -> Callable[[int], None]:
        def body(i: int) -> None:
            win.get(buf, 1, i * stride)
            win.flush(1)
        return body

    def put_flush(i: int) -> None:
        default.put(line, 1, i * LINE)
        default.flush(1)

    def classified(win: Any, access: str, loop: Callable[[], float], expect: int) -> float:
        """Run ``loop`` and insist every get in it was classified ``access``."""
        before = getattr(win.stats.total, access)
        ns = loop()
        seen = getattr(win.stats.total, access) - before
        if seen != expect:
            raise AssertionError(f"rung meant {expect} {access} accesses, cache saw {seen}")
        return ns

    best_ns: dict[str, float] = {}
    half = calls // 2
    with big.lock_all_epoch():
        for _ in range(reps):
            big.invalidate()
            keep(best_ns, "core.get_us.miss_free",
                 classified(big, "direct", lambda: per_call(calls, get_flush(big, line)), calls))
            keep(best_ns, "core.get_us.hit_full",
                 classified(big, "hit_full", lambda: per_call(calls, get_flush(big, line)), calls))
            # start over with 64 B cached at each even line, then ask for
            # 128 B there -> partial hit (refetch + extend)
            big.invalidate()
            per_call(half, get_flush(big, line, 2 * LINE))
            keep(best_ns, "core.get_us.hit_partial", classified(
                big, "hit_partial", lambda: per_call(half, get_flush(big, double, 2 * LINE)), half))
    live = min(1024, calls)
    with default.lock_all_epoch():
        for _ in range(reps):
            per_call(live, get_flush(default, line))
            # each put overlaps exactly one of the ``live`` cached entries
            keep(best_ns, "core.put_invalidate_us", per_call(min(syncs, live), put_flush))
            per_call(live, get_flush(default, line))
            t0 = _now()
            default.invalidate()
            keep(best_ns, "core.invalidate_us_per_entry", (_now() - t0) / live)
    out = {name: ns / 1e3 for name, ns in best_ns.items()}
    for policy, win in tiny.items():
        with win.lock_all_epoch():
            out[f"core.get_us.miss_evict.{policy}"] = best(
                reps, lambda: per_call(max(calls // 4, 256), get_flush(win, line))) / 1e3

    def close_epoch() -> float:
        """ns per ``flush`` that closes a TRANSPARENT epoch holding one entry."""
        spent = 0
        for i in range(syncs):
            transparent.get(line, 1, i * LINE)
            t0 = _now()
            transparent.flush(1)
            spent += _now() - t0
        return spent / syncs

    with transparent.lock_all_epoch():
        out["core.epoch_close_us"] = best(reps, close_epoch) / 1e3
    with block.lock_all_epoch():
        block.get(line, 1, 0)
        block.flush(1)
        out["baselines.block_get_us.hit"] = best(
            reps, lambda: per_call(calls, lambda i: (block.get(line, 1, 0), block.flush(1)))) / 1e3
    return out


def structure_rungs(calls: int, reps: int) -> dict[str, float]:
    entries = [CacheEntry(1, i * LINE, BYTE, LINE) for i in range(calls)]
    keys = [e.key for e in entries]
    out: dict[str, float] = {}
    regions = [(LINE * (1 + i % 7), i * 512) for i in range(calls)]
    for _ in range(reps):
        for e in entries:
            e.slot = -1
        index = CuckooIndex(4 * calls)
        keep(out, "core.cuckoo.insert_ns", per_call(calls, lambda i: index.insert(entries[i])))
        keep(out, "core.cuckoo.lookup_ns", per_call(calls, lambda i: index.lookup(keys[i])))

        tree = AVLTree()
        t0 = _now()
        for region in regions:
            tree.insert(region, None)
        for region in regions:
            tree.remove(region)
        keep(out, "core.avl.insert_remove_ns", (_now() - t0) / calls)

        storage = Storage(2 * calls * LINE)
        t0 = _now()
        descs = [storage.allocate(LINE) for _ in range(calls)]
        for desc in descs:
            storage.release(desc)
        keep(out, "core.storage.alloc_release_ns", (_now() - t0) / calls)
        desc = storage.allocate(LINE)
        keep(out, "core.storage.read_ns.64B", per_call(calls, lambda i: storage.read(desc, LINE)))
    return out


# ----------------------------------------------------------------------
# obs / verify / graph
# ----------------------------------------------------------------------
def obs_rungs(calls: int, reps: int, tmpdir: Path) -> dict[str, float]:
    def emitting(bus: EventBus) -> Callable[[int], None]:
        def body(i: int) -> None:
            if bus.wants(RMA_GET):
                bus.emit(Event(RMA_GET, 0, 1e-6, win=1, attrs={"target": 1, "nbytes": LINE}))
        return body

    out = {"obs.emit_ns.nosink": best(reps, lambda: per_call(calls, emitting(EventBus())))}
    ring = EventBus()
    ring.attach(RingBufferSink())
    out["obs.emit_ns.ring"] = best(reps, lambda: per_call(calls, emitting(ring)))
    tmpdir.mkdir(parents=True, exist_ok=True)
    path = tmpdir / "ladder-emit.jsonl"
    sink = JSONLSink(path)
    try:
        jsonl = EventBus()
        jsonl.attach(sink)
        out["obs.emit_ns.jsonl"] = best(reps, lambda: per_call(calls, emitting(jsonl)))
    finally:
        sink.close()
        path.unlink(missing_ok=True)
    return out


def verify_rungs(reps: int) -> dict[str, float]:
    sizes = workloads.SIZES["full"]
    spec = generate(1, **workloads.FUZZ_SHAPE)
    cell = Cell("cached:clampi-full")

    def one_cell(i: int) -> None:
        result = run_cell(spec, cell)
        if result.error:
            raise AssertionError(f"ladder cell failed: {result.error}")

    scale = sizes["lcc_scale"]
    nv = 1 << scale

    def graph(i: int) -> None:
        src, dst = rmat_graph(scale, 8 * nv, seed=1 + i)
        CSRGraph.from_edges(src, dst, nv)

    return {
        "verify.generate_ms": best(reps, lambda: per_call(20, lambda i: generate(1000 + i))) / 1e6,
        "verify.cell_ms": best(reps, lambda: per_call(3, one_cell)) / 1e6,
        "graph.rmat_csr_ms": best(reps, lambda: per_call(2, graph)) / 1e6,
    }


def run(scale: float, tmpdir: Path, allowed: set[int] | None = None) -> dict[str, float]:
    """Every rung, as ``{metric name: value}``.

    ``allowed`` is the CPU set the (pinned) worker had before it pinned
    itself; the one unpinned rung widens the affinity back to it.
    """
    calls, syncs = max(64, int(20_000 * scale)), max(16, int(2_000 * scale))
    reps = 5 if scale >= 1 else 3
    out = runtime_rungs(calls, syncs, reps, allowed)
    out.update(on_rank0(_plain_window, calls, reps))
    out.update(on_rank0(_collectives, syncs, reps, nprocs=8))
    for path in RMA_JOBS:
        out[f"rma.get_us.{path}"], fused = rma_rung(path, calls, reps)
        if fused != (path == "fused"):
            raise AssertionError(f"rma.get_us.{path} ran on the {'fused' if fused else 'staged'} path")
    out.update(net_rungs(calls, reps))
    out.update(on_rank0(_cached_windows, calls, syncs, reps))
    out.update(structure_rungs(calls, reps))
    out.update(obs_rungs(calls, reps, tmpdir))
    out.update(verify_rungs(reps))
    return out
