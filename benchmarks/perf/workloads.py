"""The six benchmark workloads, their inputs and their output oracles.

Every workload is a closed loop over :data:`NRANKS` simulated ranks (each
rank issues its next op when the previous one completes) and gets its inputs
from ``seed`` alone; the library under test never sees the seed or a
workload name.  A workload object is built once per worker (*input
generation*, part of ``setup_s``), asked once for the plain-window
:meth:`~Workload.oracle`, and then run pass after pass.

Sizes are chosen so one pass takes 0.8-1.5 s on the reference host: the
contract gives one run ~25 s including set-up, and a median needs several
passes inside that (see README.md, "Sizes").
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import clampi, obs
from repro.apps import BarnesHutApp, CacheSpec, LCCApp
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.mpi.window import Window
from repro.net import PerfModel
from repro.verify import Cell, Finding, MatrixConfig, generate, run_matrix

NRANKS = 8

SIZES = {
    "full": {"lcc_scale": 11, "bh_bodies": 400, "churn_rounds": 160, "fuzz_specs": 2},
    "quick": {"lcc_scale": 8, "bh_bodies": 64, "churn_rounds": 24, "fuzz_specs": 1},
}

@dataclass
class PassResult:
    """What one pass produced: work done, virtual time, checkable outputs."""

    virtual_s: float
    outputs: list[Any]             #: one entry per checked output unit group
    stats: dict[str, float] = field(default_factory=dict)  #: merged CacheStats


def merged(snapshots: list[dict]) -> dict[str, float]:
    """Sum of the numeric counters of per-rank CacheStats snapshots."""
    out: dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            if key != "schema_version" and isinstance(value, (int, float)):
                out[key] = out.get(key, 0) + value
    return out


def cache_stats(trace: Any, results: list) -> dict[str, float]:
    """Merged CacheStats of the runs of one pass.

    A traced window is a proxy the apps' own ``cache_stats_of`` does not
    recognise, so under trace the snapshots come from the wrapped windows.
    """
    if trace:
        return merged([w.stats.snapshot() for w in trace.windows if hasattr(w, "stats")])
    return merged([s for r in results for s in r.cache_stats])


def count_gets(run: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``run()`` on plain windows, counting the gets the app issues."""
    n = 0

    def count(event: obs.Event) -> None:
        nonlocal n
        n += 1

    with obs.capture(obs.CallbackSink(count, kinds=(obs.RMA_GET,))):
        result = run()
    return result, n


class Workload:
    name: str
    sizes: dict[str, int]
    #: work units of one pass: data ops (get/put) the application issues,
    #: oracle cells for fuzz_matrix.  Exact for a seed; known once
    #: :meth:`oracle` and one untraced pass have run.
    ops: int

    def oracle(self) -> None:
        """Compute the expected outputs on plain windows (untimed)."""
        raise NotImplementedError

    def run_pass(self, trace: Any = None) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> tuple[int, int]:
        """``(checked, failed)`` output units of ``result`` against the oracle."""
        raise NotImplementedError

    def corrupt(self, result: PassResult) -> None:
        """Damage exactly one output unit of ``result`` (``--self-test``)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# LCC (plain / hit / evict)
# ----------------------------------------------------------------------
class LCC(Workload):
    def __init__(self, name: str, seed: int, sizes: dict[str, int]):
        self.name = name
        scale = sizes["lcc_scale"]
        self.app = LCCApp(scale=scale, edge_factor=8, seed=seed)
        nedges = int(self.app.csr.adjacency.size)
        self.sizes = {"scale": scale, "edge_factor": 8, "nvertices": 1 << scale, "nedges": nedges}
        nv = 1 << scale
        if name == "lcc_plain":
            # two runs per pass keep the pass as long as the cached ones
            self.spec, self.runs = CacheSpec.fompi(), 2
        elif name == "lcc_hit":
            self.spec, self.runs = CacheSpec.clampi_fixed(4 * nv, 8 * nedges), 1
        else:
            self.spec, self.runs = CacheSpec.clampi_fixed(nv // 4, 8 * nedges // 16), 1

    def oracle(self) -> None:
        plain, gets = count_gets(lambda: self.app.run(NRANKS, CacheSpec.fompi()))
        self.ops = gets * self.runs
        if not np.allclose(plain.lcc, self.app.reference_lcc()):
            raise AssertionError("plain-window LCC disagrees with the single-node reference")
        self.expected = plain.lcc

    def run_pass(self, trace: Any = None) -> PassResult:
        spec = trace.spec(self.spec) if trace else self.spec
        results = [self.app.run(NRANKS, spec) for _ in range(self.runs)]
        return PassResult(
            virtual_s=sum(r.elapsed for r in results),
            outputs=[r.lcc for r in results],
            stats=cache_stats(trace, results),
        )

    def check(self, result: PassResult) -> tuple[int, int]:
        failed = sum(int(np.count_nonzero(out != self.expected)) for out in result.outputs)
        return self.expected.size * len(result.outputs), failed

    def corrupt(self, result: PassResult) -> None:
        result.outputs[0][0] += 1.0


# ----------------------------------------------------------------------
# Barnes-Hut, user-defined mode
# ----------------------------------------------------------------------
class BHUser(Workload):
    name = "bh_user"

    def __init__(self, seed: int, sizes: dict[str, int]):
        self.app = BarnesHutApp(nbodies=sizes["bh_bodies"], seed=seed)
        self.spec = CacheSpec.clampi_fixed(4096, 1 << 20)  # run() forces USER_DEFINED
        self.sizes = {"nbodies": sizes["bh_bodies"], "nnodes": self.app.tree.nnodes}

    def oracle(self) -> None:
        plain, self.ops = count_gets(lambda: self.app.run(NRANKS, CacheSpec.fompi()))
        self.expected = plain.forces

    def run_pass(self, trace: Any = None) -> PassResult:
        result = self.app.run(NRANKS, trace.spec(self.spec) if trace else self.spec)
        return PassResult(result.elapsed, [result.forces], cache_stats(trace, [result]))

    def check(self, result: PassResult) -> tuple[int, int]:
        differ = np.any(result.outputs[0] != self.expected, axis=1)
        return self.expected.shape[0], int(np.count_nonzero(differ))

    def corrupt(self, result: PassResult) -> None:
        result.outputs[0][0, 0] += 1.0


# ----------------------------------------------------------------------
# epoch churn (benchmark-owned rank program)
# ----------------------------------------------------------------------
SLOT = 128              #: bytes per slot
SLOTS = 16              #: slots per rank; the last one is written by the left neighbour
GETS_PER_ROUND = 8
PUT_EVERY = 4


def _churn_program(
    mpi: MPIProcess,
    targets: np.ndarray,
    slots: np.ndarray,
    make_window: Callable[[Any, int], Any],
    trace: Any,
) -> tuple[str, dict]:
    rank = mpi.rank
    nbytes = SLOT * SLOTS
    if trace:
        t0 = time.perf_counter_ns()
        win = trace.window(make_window(mpi.comm_world, nbytes), rank, created_ns=t0)
    else:
        win = make_window(mpi.comm_world, nbytes)
    idx = np.arange(nbytes, dtype=np.int64)
    win.local_view(np.uint8)[:] = ((idx * 131 + rank * 7919 + 17) % 251).astype(np.uint8)
    mpi.comm_world.barrier()

    digest = hashlib.blake2b(digest_size=16)
    bufs = [np.empty(SLOT, dtype=np.uint8) for _ in range(GETS_PER_ROUND)]
    right = (rank + 1) % mpi.size
    my_targets, my_slots = targets[:, rank], slots[:, rank]
    for r in range(targets.shape[0]):
        with win.fence_epoch():
            for k, buf in enumerate(bufs):
                win.get(buf, int(my_targets[r, k]), int(my_slots[r, k]) * SLOT)
        for buf in bufs:
            digest.update(buf)
        if r % PUT_EVERY == PUT_EVERY - 1:
            payload = ((idx[:SLOT] * 73 + r * 977 + rank * 131071) % 256).astype(np.uint8)
            with win.fence_epoch():
                win.put(payload, right, (SLOTS - 1) * SLOT)
    digest.update(win.local_buffer.tobytes())
    stats = win.stats.snapshot() if hasattr(win, "stats") else {}
    return digest.hexdigest(), stats


class EpochChurn(Workload):
    name = "epoch_churn"

    def __init__(self, seed: int, sizes: dict[str, int]):
        rounds = sizes["churn_rounds"]
        rng = np.random.default_rng(seed)
        shape = (rounds, NRANKS, GETS_PER_ROUND)
        # a random *peer*: offset 1..P-1 from the reading rank
        ranks = np.arange(NRANKS).reshape(1, NRANKS, 1)
        self.targets = (ranks + rng.integers(1, NRANKS, size=shape)) % NRANKS
        self.slots = rng.integers(0, SLOTS, size=shape)
        puts = rounds // PUT_EVERY
        self.ops = NRANKS * (rounds * GETS_PER_ROUND + puts)
        self.sizes = {"rounds": rounds, "gets_per_round": GETS_PER_ROUND, "slot_bytes": SLOT,
                      "fences_per_rank": 2 * (rounds + puts)}

    def _run(self, make_window: Callable[[Any, int], Any], trace: Any = None) -> tuple[list, float]:
        mpi = SimMPI(NRANKS, perf=PerfModel.spread(NRANKS))
        out = mpi.run(_churn_program, self.targets, self.slots, make_window, trace)
        return out, mpi.elapsed

    def oracle(self) -> None:
        out, _ = self._run(Window.allocate)
        self.expected = [digest for digest, _ in out]

    def run_pass(self, trace: Any = None) -> PassResult:
        out, elapsed = self._run(
            lambda comm, nbytes: clampi.window_allocate(comm, nbytes, mode=clampi.Mode.TRANSPARENT),
            trace,
        )
        return PassResult(elapsed, [[d for d, _ in out]], merged([s for _, s in out]))

    def check(self, result: PassResult) -> tuple[int, int]:
        got = result.outputs[0]
        return len(self.expected), sum(g != e for g, e in zip(got, self.expected))

    def corrupt(self, result: PassResult) -> None:
        result.outputs[0][0] = "corrupt"


# ----------------------------------------------------------------------
# fuzz matrix
# ----------------------------------------------------------------------
#: the three fault plans of the default matrix, run as separate slices
#: under trace so staged-pipeline work can be told from fused
FAULT_KINDS = ("none", "transient", "crash")
#: matrix slice that runs the plain/deterministic/no-fault reference cell only
REFERENCE_ONLY = MatrixConfig(policies=(), include_block=False, fault_kinds=("none",),
                              random_seeds=())


#: Rank count, phase count and ops per rank are pinned: left to the generator
#: they vary a pass's cost 4x from seed to seed, which would drown a
#: regression in input noise.  Targets, slots, epoch styles, op kinds and
#: cache sizes still come from the spec seed.
FUZZ_SHAPE = {"nprocs": 4, "n_phases": 3, "ops_per_rank": (6, 6)}
#: spec seeds are drawn from ``range(FUZZ_POOL)``
FUZZ_POOL = 1024
#: The spec seeds of the pool whose matrix is not clean, measured at commit
#: 817ddef by running all of them: each dies in cached crash cells with
#: ``ValueError('double free of Desc(...)')`` from ``core.storage``, a library
#: bug left for a correctness issue.  A benchmark times inputs the program
#: handles, so a slot that lands on one takes the next seed.  This list is
#: data, not a run-time choice: any other spec that is not ``report.ok``
#: counts into ``failed``.
FUZZ_KNOWN_BAD = frozenset({17, 95, 152, 190, 205, 321, 399, 409, 444, 500, 535, 543, 857, 862, 978, 1000})


def fuzz_spec_seeds(seed: int, n: int) -> list[int]:
    """``n`` distinct spec seeds of the pool, none of them known bad."""
    out: list[int] = []
    for slot in range(n):
        s = (seed * 1009 + slot * 499) % FUZZ_POOL
        while s in FUZZ_KNOWN_BAD or s in out:
            s = (s + 1) % FUZZ_POOL
        out.append(s)
    return out


class FuzzMatrix(Workload):
    name = "fuzz_matrix"

    def __init__(self, seed: int, sizes: dict[str, int]):
        spec_seeds = fuzz_spec_seeds(seed, sizes["fuzz_specs"])
        self.specs = [generate(s, **FUZZ_SHAPE) for s in spec_seeds]
        self.sizes = {**FUZZ_SHAPE, "spec_seeds": spec_seeds}

    def oracle(self) -> None:
        """The matrix is its own oracle: every cell is compared in-pass."""

    def run_pass(self, trace: Any = None) -> PassResult:
        if trace is not None:
            runs = self._sliced(trace)
        else:
            runs = [_matrix(spec) for spec in self.specs]
            self.ops = sum(report.cells_run for report, _ in runs)
        return PassResult(sum(v for _, v in runs), [report for report, _ in runs])

    def _sliced(self, trace: Any) -> list:
        """The same cells, one ``run_matrix`` per fault plan.

        A world with a fault plan runs the staged rma pipeline, one without
        the fused one, and events do not say which; running the plans as
        separate slices lets the data-op events of the faulty slices be
        counted as ``rma.staged_ops``.  Every slice re-runs the fault-free
        reference cell, so its ops are measured alone and taken off again.
        """
        counts, runs = trace.counts, []
        for spec in self.specs:
            with trace.span("spec", parent=0) as sid:
                for kind in FAULT_KINDS:
                    ops = _data_ops(counts)
                    with trace.span(f"faults:{kind}", parent=sid):
                        runs.append(_matrix(spec, MatrixConfig(fault_kinds=(kind,))))
                    if kind != "none":
                        counts["rma.staged_ops"] += _data_ops(counts) - ops
                ops = _data_ops(counts)
                with trace.span("reference", parent=sid):
                    run_matrix(spec, REFERENCE_ONLY)
                counts["rma.staged_ops"] -= (len(FAULT_KINDS) - 1) * (_data_ops(counts) - ops)
        return runs

    def check(self, result: PassResult) -> tuple[int, int]:
        checked = sum(r.cells_run for r in result.outputs)
        failed = sum(len({f.cell for f in r.findings}) for r in result.outputs)
        return checked, failed

    def corrupt(self, result: PassResult) -> None:
        report = result.outputs[0]
        report.findings.append(Finding("self-test", Cell("plain"), "corrupted by --self-test"))


def _matrix(spec: Any, config: MatrixConfig = MatrixConfig()) -> tuple[Any, float]:
    """``run_matrix`` plus the summed virtual makespan of the cells it ran."""
    ledger = obs.virtual_time
    # count from zero: a float sum must not depend on what ran earlier
    earlier, ledger.total = ledger.total, 0.0
    report = run_matrix(spec, config)
    virtual_s, ledger.total = ledger.total, earlier + ledger.total
    return report, virtual_s


def _data_ops(counts: Any) -> int:
    return (counts[obs.RMA_GET] + counts[obs.RMA_PUT] + counts[obs.RMA_ACCUMULATE]
            + counts[f"{obs.RMA_GET_BATCH}.ops"])


def make(name: str, seed: int, quick: bool = False) -> Workload:
    sizes = SIZES["quick" if quick else "full"]
    if name.startswith("lcc_"):
        return LCC(name, seed, sizes)
    return {"bh_user": BHUser, "epoch_churn": EpochChurn, "fuzz_matrix": FuzzMatrix}[name](seed, sizes)
