"""Host-independent perf guard: Python-level calls per cached operation.

A cache hit simulates no network at all, so on the host it must not cost
more than the plain get it replaces (docs/performance.md invariant 7).
Wall-clock cannot be asserted in tier-1; the number of Python frames an
operation enters can: ``sys.setprofile`` ``call`` events for code under
``src/repro`` on a rank thread, which depend on nothing but the code.

The budgets are the counts actually reached, so the next change cannot
silently give them back.  When one fails, the message splits the count by
package: the plain-window rows move with ``mpi`` / ``runtime``,
the cached rows additionally with ``core``.  The ``engine_*`` rows are the
same hit, miss and evicting miss served by a standalone
:class:`CacheEngine` (no window, no world), so ``cached_*`` minus
``engine_*`` is the adapter's share.  An evicting miss must not pay for
the empty slots its victim sample crosses (docs/performance.md invariant
13): the same live entry costs the same calls in a 64- and a 4096-slot
index.  The
measured paths hold no list comprehension (inlined from CPython 3.12 on),
so the counts are the same on every supported interpreter.

The engine is only standalone if nothing it imports reaches a window, a
world or the telemetry bus; the last tests check that statically.

The ``lcc_vertex`` and ``bh_body`` rows are the application side of the
same discipline (docs/performance.md invariant 10): calls under ``apps``
and ``graph`` per local LCC vertex or Barnes-Hut body, whose gets are then
only window calls.
"""

import ast
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

import repro
from repro import clampi
from repro.apps import barnes_hut, lcc
from repro.apps.cachespec import CacheSpec
from repro.core.config import Config, Mode
from repro.core.engine import CacheEngine, CacheGetRequest
from repro.graph import CSRGraph
from repro.mpi import SimMPI
from repro.mpi.datatypes import FLOAT64
from repro.mpi.window import Window
from repro.net import PerfModel

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: calls per operation — (reached at this commit, at the parent 9006a9b)
BUDGET = {
    "cached_hit": (7, 7),            # full hit, CACHED entry, under lock_all
    "cached_hit_locked": (7, 7),     # the same hit under lock(1)
    "cached_miss": (31, 49),         # direct miss into free space, new key
    "cached_miss_evict": (54, 98),   # miss that evicts one entry, |I_w| = 64
    "cached_flush_idle": (8, 8),     # nothing pending on the cached window
    "cached_flush_pending": (13, 15),  # flush that materialises one entry
    "engine_hit": (1, 1),            # the same hit, standalone engine
    "engine_miss": (15, 33),         # the same miss, standalone engine
    "engine_miss_evict": (33, 77),   # the same evicting miss, standalone
    "plain_get": (7, 7),
    "plain_flush": (6, 6),
    "lcc_vertex": (5, 5),            # one local LCC vertex
    "bh_body": (0, 0),               # one Barnes-Hut body
}

#: a key whose miss, after ``EVICT_LIVE`` one-line gets filled the small
#: store, samples a CACHED victim (the sample's start is drawn)
EVICT_DISP = 4096
EVICT_LIVE = 4


def count_calls(fn) -> Counter:
    """``call`` events under src/repro while ``fn`` runs, by package."""
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(SRC):
                calls[path[len(SRC) :].split(os.sep)[0]] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def small_config(index_entries: int = 64, lines: int = EVICT_LIVE) -> Config:
    """A store of ``lines`` cache lines: one more 64-byte entry evicts."""
    return Config(
        mode=Mode.ALWAYS_CACHE, index_entries=index_entries, storage_bytes=lines * 64
    )


def program(mpi):
    comm = mpi.comm_world
    cached = clampi.window_allocate(comm, 1 << 12, mode=clampi.Mode.ALWAYS_CACHE)
    small = clampi.window_allocate(comm, 1 << 13, config=small_config())
    plain = Window.allocate(comm, 1 << 12)
    if mpi.rank:
        return None
    buf = np.empty(8, np.float64)  # Barnes-Hut's node records are float64
    out = {}
    with cached.lock_all_epoch():
        for _ in range(2):  # warm: entry CACHED, every memo filled
            cached.get(buf, 1, 0)
            cached.flush(1)
        out["cached_hit"] = count_calls(lambda: cached.get(buf, 1, 0))
        out["cached_flush_idle"] = count_calls(lambda: cached.flush(1))
        out["cached_miss"] = count_calls(lambda: cached.get(buf, 1, 128))
        out["cached_flush_pending"] = count_calls(lambda: cached.flush(1))
    with cached.lock_epoch(1):  # the epoch test's per-rank branch
        out["cached_hit_locked"] = count_calls(lambda: cached.get(buf, 1, 0))
    with small.lock_all_epoch():
        for i in range(EVICT_LIVE):  # fill the store with CACHED entries
            small.get(buf, 1, 64 * i)
            small.flush(1)
        out["cached_miss_evict"] = count_calls(lambda: small.get(buf, 1, EVICT_DISP))
        small.flush(1)
    snapshot = cached.stats.snapshot()
    with plain.lock_all_epoch():
        plain.get(buf, 1, 0)
        plain.flush(1)
        out["plain_get"] = count_calls(lambda: plain.get(buf, 1, 0))
        out["plain_flush"] = count_calls(lambda: plain.flush(1))
    return out, (snapshot, small.stats.snapshot())


def zero_fetch(req):
    """A remote memory of zeros, standing in for the network get."""
    req.origin.view(np.uint8)[: req.size] = 0
    return req.size


def engine_getter(config: Config):
    """A standalone engine and a 64-byte get on it, as the adapter would
    serve it (sequence accounting, then ``serve``)."""
    engine = CacheEngine(config, zero_fetch, sink=[].append)
    buf = np.empty(8, np.float64)

    def get(disp):
        engine.seq += 1
        engine.size_sum += 64
        return engine.serve(CacheGetRequest(buf, 1, disp, 8, FLOAT64, 64, (1, disp)))

    return engine, get


def engine_program():
    """``program``'s hit, miss and evicting miss on standalone engines."""
    engine, get = engine_getter(Config(mode=Mode.ALWAYS_CACHE))
    for _ in range(2):
        get(0)
        engine.close_epoch()
    out = {"engine_hit": count_calls(lambda: get(0))}
    out["engine_miss"] = count_calls(lambda: get(128))
    engine.close_epoch()
    small, get = engine_getter(small_config())
    for i in range(EVICT_LIVE):
        get(64 * i)
        small.close_epoch()
    out["engine_miss_evict"] = count_calls(lambda: get(EVICT_DISP))
    return out, (engine.stats.snapshot(), small.stats.snapshot())


def evicting_miss_calls(index_entries: int) -> tuple[int, dict]:
    """Calls of one capacity-evicting miss into a one-line store whose one
    CACHED entry is the only other entry of a ``index_entries``-slot index."""
    engine, get = engine_getter(small_config(index_entries, lines=1))
    get(0)
    engine.close_epoch()
    calls = count_calls(lambda: get(EVICT_DISP))
    return sum(calls.values()), engine.stats.snapshot()


APP_DIRS = tuple(SRC + pkg + os.sep for pkg in ("apps", "graph"))


def app_calls(program, *args) -> Counter:
    """Calls under apps/ and graph/ on the rank threads of one 2-rank run
    of ``program``."""
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(APP_DIRS):
                calls[path[len(SRC) :].split(os.sep)[0]] += 1

    threading.setprofile(profiler)  # inherited by the rank threads only
    try:
        SimMPI(2, perf=PerfModel.spread(2)).run(program, *args)
    finally:
        threading.setprofile(None)
    return calls


def lcc_calls(nvertices: int, reach: int) -> Counter:
    """App calls of one 2-rank LCC run over a ring whose vertices link to
    the ``reach`` nearest on each side (degree ``2 * reach``, every
    adjacency sorted and duplicate-free)."""
    v = np.arange(nvertices)
    steps = [s for s in range(-reach, reach + 1) if s]
    src = np.repeat(v, len(steps))
    dst = (src + np.tile(steps, nvertices)) % nvertices
    csr = CSRGraph.from_edges(src, dst, nvertices)
    return app_calls(lcc._lcc_rank_program, csr, src, dst, CacheSpec.fompi())


def bh_calls(app: barnes_hut.BarnesHutApp) -> Counter:
    """App calls of one 2-rank Barnes-Hut force phase, its visit lists
    computed beforehand (as ``BarnesHutApp.run`` does, off the ranks)."""
    return app_calls(
        barnes_hut._bh_rank_program, app.tree, app.pos, app.mass, app.theta,
        CacheSpec.fompi(), 1e-3, app.visits(),
    )


def bh_body_calls() -> Counter:
    """App calls per body: the growth from 32 to 64 bodies, divided by 32."""
    small, large = (bh_calls(barnes_hut.BarnesHutApp(n, seed=3)) for n in (32, 64))
    return Counter({pkg: (large[pkg] - small[pkg]) / 32 for pkg in large})


def lcc_vertex_calls() -> Counter:
    """App calls per local vertex: the growth from 16 to 32 ring vertices
    (whatever the run does once cancels out), divided by 16."""
    small, large = lcc_calls(16, 1), lcc_calls(32, 1)
    return Counter({pkg: (large[pkg] - small[pkg]) / 16 for pkg in large})


@pytest.fixture(scope="module")
def measured():
    calls, snapshot = SimMPI(2, perf=PerfModel.spread(2)).run(program)[0]
    engine_calls, engine_snapshot = engine_program()
    calls = {
        **calls,
        **engine_calls,
        "lcc_vertex": lcc_vertex_calls(),
        "bh_body": bh_body_calls(),
    }
    return calls, (snapshot, engine_snapshot)


def test_the_counted_operations_are_what_they_claim(measured):
    _calls, ((cached, small), (engine, small_engine)) = measured
    assert (cached["direct"], cached["hit_full"], cached["gets"]) == (2, 3, 5)
    assert (engine["direct"], engine["hit_full"], engine["gets"]) == (2, 2, 4)
    for evicting in (small, small_engine):
        assert (evicting["direct"], evicting["capacity"]) == (EVICT_LIVE, 1)
        assert evicting["capacity_evictions"] == 1


@pytest.mark.parametrize("op", BUDGET)
def test_call_budget(measured, op):
    calls, _snapshot = measured
    reached, parent = BUDGET[op]
    total = sum(calls[op].values())
    assert total <= reached, (
        f"{op}: {total} calls under src/repro, budget {reached} "
        f"(parent commit: {parent}); by package: {dict(calls[op])}"
    )


def test_a_hit_costs_about_a_plain_get(measured):
    """The design goal: parity with the get a hit replaces, not 2x."""
    calls, _snapshot = measured
    hit, plain = (sum(calls[op].values()) for op in ("cached_hit", "plain_get"))
    assert hit <= plain
    idle, flush = (
        sum(calls[op].values()) for op in ("cached_flush_idle", "plain_flush")
    )
    assert idle <= flush + 2


def test_an_evicting_miss_does_not_pay_for_empty_slots():
    """The same live entry in a 64-slot and a 4096-slot index: the victim
    sample crosses ~64x more empty slots, in the same number of calls
    (80 and 1,056 at the parent 9006a9b)."""
    (dense, dense_stats), (sparse, sparse_stats) = map(evicting_miss_calls, (64, 4096))
    for stats in (dense_stats, sparse_stats):
        assert (stats["capacity"], stats["capacity_evictions"]) == (1, 1)
    assert sparse_stats["eviction_visited"] > 8 * dense_stats["eviction_visited"]
    assert sparse == dense


def test_lcc_app_calls_follow_vertices_not_gets():
    """Doubling every vertex's degree doubles the gets and leaves the
    application's own calls where they were."""
    assert lcc_calls(16, 2) == lcc_calls(16, 1)


def test_bh_app_calls_follow_bodies_not_visits():
    """A wider opening angle visits fewer nodes and issues fewer gets; the
    application's own calls stay where they were."""
    near, far = (barnes_hut.BarnesHutApp(48, seed=3, theta=t) for t in (0.3, 1.0))
    assert near.visits().positions.size > 2 * far.visits().positions.size
    assert bh_calls(near) == bh_calls(far)


# ---------------------------------------------------------------------------
# the layer boundary, statically
# ---------------------------------------------------------------------------
#: what the engine may never reach (value types — mpi.datatypes, mpi.errors,
#: net.model, util — are fine)
FORBIDDEN = (
    "repro.mpi.window",
    "repro.mpi.comm",
    "repro.mpi.simmpi",
    "repro.mpi.ops",
    "repro.rma",
    "repro.runtime",
    "repro.obs",
    "repro.faults",
)


def _module_file(module: str) -> str | None:
    rel = module.split(".", 1)[1].replace(".", os.sep) if "." in module else ""
    for path in (SRC + rel + ".py", os.path.join(SRC + rel, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def imports_of(module: str) -> set[str]:
    """Every module an import statement of ``module`` names (any nesting)."""
    with open(_module_file(module)) as f:
        tree = ast.parse(f.read())
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module)
            for alias in node.names:  # ``from repro.core import policy``
                sub = f"{node.module}.{alias.name}"
                if sub.startswith("repro.") and _module_file(sub):
                    out.add(sub)
    return out


def _packages_of(module: str) -> list[str]:
    """The package ``__init__``s that importing ``module`` runs first."""
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts))]


def reached_from(module: str) -> dict[str, set[str]]:
    """Imports of ``module``, of every ``repro.core`` module it reaches and
    of every package ``__init__`` on the way: importing
    ``repro.mpi.datatypes`` runs ``repro/mpi/__init__.py`` first."""
    reached: dict[str, set[str]] = {}
    todo = [module, *_packages_of(module)]
    while todo:
        mod = todo.pop()
        if mod in reached:
            continue
        reached[mod] = imports_of(mod)
        for imp in reached[mod]:
            if imp == "repro.core" or imp.startswith("repro.core."):
                todo.append(imp)
            todo.extend(p for p in _packages_of(imp) if p.startswith("repro"))
    return reached


def forbidden_imports(module: str) -> list[tuple[str, str]]:
    return sorted(
        (mod, imp)
        for mod, imps in reached_from(module).items()
        for imp in imps
        if any(imp == f or imp.startswith(f + ".") for f in FORBIDDEN)
    )


def test_the_engine_imports_no_window_world_or_bus():
    assert forbidden_imports("repro.core.engine") == []


def test_the_boundary_check_sees_the_adapter():
    """Not vacuous: the adapter is on the far side of the boundary."""
    assert {imp for _mod, imp in forbidden_imports("repro.core.window")} >= {
        "repro.mpi.window",
        "repro.obs",
        "repro.mpi.ops",
    }
    # the package __init__s an engine import runs are read too
    engine = set(reached_from("repro.core.engine"))
    assert {"repro", "repro.core", "repro.mpi"} <= engine
