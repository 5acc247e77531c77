"""Which functions in ``src/repro`` does no entry point enter?

Runs every entry point that a figure, the benchmark, an example, a CLI or
a CI step starts (``entry_points``), each in a subprocess whose interpreter
loads a generated ``sitecustomize`` first.  That module installs a
function-level profile hook (``sys.setprofile`` and, for the rank threads,
``threading.setprofile``) and writes the code objects it saw at exit; child
interpreters (the benchmark's workers) load it too.  It also pins each
process to one CPU, so ``verify`` runs its cells in-process: a forked
worker leaves through ``os._exit`` and would drop what it saw.

Prints, per module, the functions that none of them entered (a function
nested in one that was not entered is not listed again), grouped by why
they stay (``WHY``); docs/testing.md holds the table at the last change.

    python tests/reachability.py        # ~25 min on 2 CPUs, mostly Figs. 12-14
"""

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

HOOK = """\
import atexit, json, os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _dump():
    sys.setprofile(None)
    hits = {}
    for code in _seen.copy():
        hits.setdefault(code.co_filename, []).append(code.co_firstlineno)
    with open(os.path.join(os.environ["REACH_OUT"], f"hits-{os.getpid()}.json"), "w") as fh:
        json.dump(hits, fh)
"""


def entry_points(tmp):
    chaos, m = f"{tmp}/chaos.jsonl", ["-m"]
    yield m + ["repro.bench", "--markdown"]
    yield m + ["repro.bench", "ablations"]
    yield ["benchmarks/perf/run.py", "--quick"]
    yield from ([str(p)] for p in sorted((REPO / "examples").glob("*.py")))
    yield m + ["repro.verify", "fuzz", "--cases", "40", "--out", f"{tmp}/f.json"]
    yield m + ["repro.verify", "fuzz", "--cases", "8", "--inject", "stale-read",
               "--out", f"{tmp}/s.json"]
    yield m + ["repro.verify", "corpus"]
    yield m + ["repro.verify", "chaos", "--seed", "20260806", "--obs", chaos]
    yield m + ["repro.verify", "chaos", "--scenario", "crash", "--seed", "20260806",
               "--obs", f"{tmp}/crash.jsonl"]
    for cmd in ("lint", "verify"):
        yield m + ["repro.analysis", cmd, "src/", "examples/"]
    yield m + ["repro.analysis", "rules", "--check"]
    yield m + ["repro.analysis", "smoke", "--strict"]
    yield m + ["repro.analysis", "report", chaos]
    yield m + ["repro.obs", "report", chaos]
    for app in ("lcc", "bh", "bfs"):
        yield m + ["repro.apps", app]
        yield m + ["repro.apps", app, "--trace"]


#: why an unreached function stays, by exact ``module: qualname ...``
#: (``repro.`` dropped); a function listed nowhere prints as "?", so one that
#: stops being reached gets a reason only by an edit here
WHY = {
    "multi-CPU path (the audit runs on one CPU)": """
        runtime.scheduler: _current_cpu
        verify.oracle: _pin_worker _run_noted""",
    "safety: error report": """
        analysis: Sanitizer.counts
        analysis.cfg: WithExit.__repr__
        analysis.diagnostics: Rule.__str__ Diagnostic.severity Diagnostic.render
            Diagnostic.render_full
        analysis.recorder: OpRecord.describe Violation.describe Violation.error
        core.entry: CacheEntry.__repr__
        core.storage: Descriptor.__repr__
        mpi.datatypes: Predefined.__repr__
        mpi.window: Window._diagnostic
        runtime.scheduler: RankFailedError.__init__ SimProcess.__repr__
            SimWorld._rank_diagnostics SimWorld._notify_everyone_locked
        trace.stream: GetStream.__repr__
        verify.runner: _close_quietly""",
    "safety: check": """
        core.avl: AVLTree.check_invariants
        core.engine: CacheEngine.check_invariants
        core.states: check_transition
        core.stats: CacheStats.conservation_violations
        core.storage: Storage.check_invariants
        core.window: CachedWindow.check_invariants""",
    "documented API: ULFM": """
        mpi.comm: Communicator.alive Communicator.agree_failures Communicator.shrink
        mpi.window: Window.revoke Window.shrink Window.revoked
        recovery: agree_failures shrink shrink_window survivors failed_ranks""",
    "MPI-3 surface": """
        mpi.comm: Communicator.time Communicator.gather
        mpi.ops: _gather
        mpi.window: Request.__init__ Request.test Request.wait Request.done
            Window.free Window.failed_ranks Window.lock_epoch Window.get_blocking
            Window.rget Window.rput Window._epoch_state WindowProxy.comm WindowProxy.eph
            WindowProxy.info WindowProxy.fence WindowProxy.free WindowProxy.lock_epoch""",
    "paper feature: derived datatypes (Sec. II-B)": """
        mpi.datatypes: _coalesce Contiguous.__post_init__ Contiguous.size
            Contiguous.extent Contiguous.blocks Vector.__post_init__ Vector.size
            Vector.extent Vector.blocks Indexed.__post_init__ Indexed.size
            Indexed.extent Indexed.blocks""",
    "interface default": """
        core.policy: CachePolicy.on_hit CachePolicy.on_miss CachePolicy.on_insert
            CachePolicy.victim_score CachePolicy.admit
        graph.distributed: GetWindow.lock_all GetWindow.unlock_all GetWindow.flush
            GetWindow.flush_all GetWindow.get GetWindow.get_batch
        mpi.datatypes: Datatype.size Datatype.extent Datatype.blocks
        obs.sinks: Sink.handle NullSink.handle""",
    "verifier: a form src/ does not contain": """
        analysis.cfg: _Builder._match
        analysis.typestate: _FnAnalyzer._scan_uses.writes""",
    "test vehicle": """
        core.engine: _no_event
        graph.distributed: DistributedGraph.fetch_adjacencies
        mpi.simmpi: SimMPI.schedule_trace
        runtime.scheduler: SimWorld._trace_pick
        trace.stream: GetStream.__eq__""",
    "reference of an inlined path": """
        core.costmodel: CostModel.eviction_visits
        core.stats: CacheStats.record_cache_bytes""",
    "documented API": """
        analysis.diagnostics: update_docs
        apps.cachespec: CacheSpec.with_policy
        clampi: configure window_create invalidate degraded
        core.stats: CacheStats.breakdown
        faults.plan: make_injectors
        faults.retry: RetryPolicy.disabled RetryPolicy.enabled RetryPolicy.with_timeout
        verify.__main__: _parse_budget cmd_replay
        verify.oracle: Finding.from_dict
        verify.runner: Cell.from_dict
        verify.workload: WorkloadSpec.to_json WorkloadSpec.from_json""",
    "ROADMAP 7 pending: `bench --chart` / `--json-dir`, one value in use": """
        bench.ascii_chart: _scale _fmt_tick line_chart bar_chart sparkline
        bench.reporting: FigureResult.chart FigureResult.to_json""",
    "inspection: tests read state through it": """
        analysis.recorder: IntervalIndex.__len__ IntervalIndex.items
        baselines.block_cache: BlockCacheStats.hit_ratio
        bench.micro: MicroRunResult.count
        core.avl: AVLTree.__len__ AVLTree.contains AVLTree.items
        core.cuckoo: CuckooIndex.candidate_slots CuckooIndex.entry_at
            CuckooIndex.load_factor CuckooIndex.clear
        core.engine: CacheEngine.score
        core.stats: Counters.misses
        core.storage: Descriptor.end Storage.num_free_regions Storage.largest_free
        core.window: CachedWindow.index CachedWindow.avg_get_size
            CachedWindow.seq_index CachedWindow.degraded
        faults.plan: FaultInjector.total_injected
        graph.csr: CSRGraph.has_edge
        graph.distributed: DistributedGraph.local_vertices DistributedGraph.owner
        graph.partition: BlockPartition.size_of BlockPartition.local_index
        obs.bus: EventBus.parent EventBus.sinks
        obs.sinks: RingBufferSink.events RingBufferSink.clear
            RingBufferSink.__len__ RingBufferSink.__iter__""",
}
TAG = {}
for why, block in WHY.items():
    for part in re.split(r"\s(?=[\w.]+:)", block.strip()):
        module, names = part.split(":")
        TAG.update((f"{module.strip()}:{name}", why) for name in names.split())


def functions(tree, seen, prefix=""):
    """``(qualname, lines)`` of every function in ``tree`` not in ``seen``
    (first lines), not descending into them."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if first not in seen:
                yield prefix + node.name, node.end_lineno - node.body[0].lineno + 1
                continue
            yield from functions(node, seen, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, seen, prefix + node.name + ".")
        else:
            yield from functions(node, seen, prefix)


def collect(tmp):
    """``{filename: first lines of the code objects entered}`` over every
    entry point, run with the hook in ``tmp``."""
    Path(tmp, "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ, REACH_OUT=tmp, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([tmp, str(SRC)]))
    for args in entry_points(tmp):
        rc = subprocess.run([sys.executable, *args], cwd=REPO, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        print(f"exit {rc}: {' '.join(args)}", file=sys.stderr)
    seen = {}
    for dump in Path(tmp).glob("hits-*.json"):
        for filename, lines in json.loads(dump.read_text()).items():
            seen.setdefault(filename, set()).update(lines)
    return seen


def report(seen):
    print("| module | not entered | lines | why it stays |")
    print("|---|---|---:|---|")
    total = count = 0
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        rows = {}
        tree = ast.parse(path.read_text())
        for name, lines in functions(tree, seen.get(str(path), set())):
            why = TAG.get(f"{module.removeprefix('repro.')}:{name}", "?")
            rows.setdefault(why, []).append((name, lines))
        for why, funcs in sorted(rows.items()):
            lines = sum(n for _, n in funcs)
            total, count = total + lines, count + len(funcs)
            names = ", ".join(f"`{name}`" for name, _ in funcs)
            print(f"| `{module}` | {names} | {lines} | {why} |")
    print(f"\n{count} functions, {total} body lines not entered")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        report(collect(tmp))
