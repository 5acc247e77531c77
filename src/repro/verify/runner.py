"""Execute one :class:`WorkloadSpec` on one cell of the oracle matrix.

A **cell** names an implementation, a schedule and a fault plan:

* ``impl`` — ``"plain"`` (raw :class:`~repro.mpi.window.Window`),
  ``"block"`` (:class:`~repro.baselines.block_cache.BlockCachedWindow`),
  ``"cached:<policy>"`` (:class:`~repro.core.window.CachedWindow` in
  TRANSPARENT mode under a registered policy), or ``"buggy-stale"`` —
  a deliberately broken subject (``clampi-full`` in ALWAYS_CACHE mode
  masquerading as transparent: it never invalidates at epoch closure)
  used to prove the oracle can catch a stale-read bug end to end;
* ``schedule`` — the scheduler's ``deterministic`` / ``random`` /
  ``trace`` modes (see :class:`repro.runtime.SimWorld`);
* ``faults`` — ``"none"``, ``"transient"`` (5% get/put transient
  failures, retried bit-identically underneath) or ``"crash"`` (one
  rank dies crash-stop at a virtual time resolved by the oracle).

The interpreter is written so that a *valid* spec (see
:mod:`repro.verify.workload`) has exactly one observable outcome per
fault plan: every rank digests the bytes of all fetched buffers at each
epoch closure plus its final window memory, and every fault-dependent
skip folds a deterministic marker into the digest.  Dead targets are
handled causally (virtual-clock failure detection), so digests are a
pure function of (spec, impl, fault plan) — never of the thread
interleaving.

Implementation notes kept honest here rather than hidden:

* the block-cache baseline manages invalidation manually by contract,
  so the interpreter calls ``invalidate()`` at every explicit flush and
  epoch closure it drives — the baseline is transparent only because
  the *caller* makes it so, which is exactly the paper's argument for
  CLaMPI;
* crash cells downgrade ``fence``/``pscw`` phases to ``lock_all``:
  retrying a revoked collective would re-apply accumulates (they are
  not idempotent), and the recovery story of this repo is built on
  passive-target epochs (see ``docs/resilience.md``).  Crash cells are
  therefore compared against themselves across schedules, not against
  other implementations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro import clampi, recovery
from repro.analysis import run_sanitized
from repro.core.config import Config, Mode
from repro.baselines.block_cache import BlockCachedWindow
from repro.faults import FaultPlan, FaultRule
from repro.mpi.errors import TargetFailedError, WindowRevokedError
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.mpi.window import Window
from repro.obs import get_bus
from repro.obs.events import CACHE_ADMIT, CACHE_EVICT
from repro.obs.sinks import CallbackSink
from repro.verify.workload import WorkloadSpec, Op, Phase

#: fault-kind names a Cell accepts
FAULT_KINDS = ("none", "transient", "crash")
#: transient fault probability of the oracle's "transient" cells
TRANSIENT_PROBABILITY = 0.05


@dataclass(frozen=True)
class Cell:
    """One oracle-matrix coordinate: impl × schedule × fault plan."""

    impl: str
    schedule: str = "deterministic"
    schedule_seed: int = 0
    faults: str = "none"
    fault_seed: int = 1
    crash_rank: int | None = None
    crash_time: float | None = None

    def __post_init__(self) -> None:
        if self.faults not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.faults!r}")
        if self.faults == "crash" and (
            self.crash_rank is None or self.crash_time is None
        ):
            raise ValueError("crash cells need crash_rank and crash_time")

    @property
    def label(self) -> str:
        bits = [self.impl, self.schedule]
        if self.schedule == "random":
            bits[-1] += f"#{self.schedule_seed}"
        if self.faults != "none":
            bits.append(self.faults)
        return "/".join(bits)

    def to_dict(self) -> dict[str, Any]:
        return {
            "impl": self.impl,
            "schedule": self.schedule,
            "schedule_seed": self.schedule_seed,
            "faults": self.faults,
            "fault_seed": self.fault_seed,
            "crash_rank": self.crash_rank,
            "crash_time": self.crash_time,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Cell":
        return cls(
            impl=d["impl"],
            schedule=d.get("schedule", "deterministic"),
            schedule_seed=int(d.get("schedule_seed", 0)),
            faults=d.get("faults", "none"),
            fault_seed=int(d.get("fault_seed", 1)),
            crash_rank=d.get("crash_rank"),
            crash_time=d.get("crash_time"),
        )


@dataclass
class RunResult:
    """Everything observable about one cell run, as comparable data."""

    digests: list[str | None]           #: per-rank result digest (None = died)
    clocks: list[float]                 #: per-rank final virtual clocks
    makespan: float
    crashed: frozenset[int]
    stats: list[dict[str, Any] | None]  #: schema-v4 snapshots (cached impls)
    event_counts: dict[str, int]        #: global cache.evict/admit tallies
    violations: list[dict[str, Any]]    #: sanitizer findings (live ranks)
    trace: list[int] | None = None      #: dispatch order (record_trace runs)
    error: str | None = None            #: uncaught interpreter/model error


def is_cached_impl(impl: str) -> bool:
    return (
        impl.startswith("cached:")
        or impl.startswith("cached-ud:")
        or impl == "buggy-stale"
    )


def make_window(raw: Window, impl: str, spec: WorkloadSpec):
    """Wrap a plain window as the cell's implementation under test."""
    if impl == "plain":
        return raw
    if impl == "block":
        # block == slot keeps block fetches inside the validity model's
        # single-slot footprints (no cross-slot read amplification racing
        # with a neighbour slot's writer)
        return BlockCachedWindow(
            raw,
            block_size=spec.slot_bytes,
            memory_bytes=max(spec.storage_bytes, spec.slot_bytes),
        )
    if impl == "buggy-stale":
        cfg = Config(
            index_entries=spec.index_entries,
            storage_bytes=spec.storage_bytes,
            mode=Mode.ALWAYS_CACHE,  # the seeded bug: no epoch invalidation
        )
        return clampi.wrap(raw, config=cfg)
    if impl.startswith("cached:"):
        policy = impl.split(":", 1)[1]
        cfg = Config(
            index_entries=spec.index_entries,
            storage_bytes=spec.storage_bytes,
            mode=Mode.TRANSPARENT,
            policy=policy,
        )
        return clampi.wrap(raw, config=cfg)
    if impl.startswith("cached-ud:"):
        # USER_DEFINED mode: entries survive epoch closure, so capacity
        # and conflict evictions can actually fire.  Only sound on
        # read-only workloads — nothing is ever written, so the
        # persistent entries can never go stale (the property tests use
        # this to put the eviction/admission ledgers under pressure).
        policy = impl.split(":", 1)[1]
        cfg = Config(
            index_entries=spec.index_entries,
            storage_bytes=spec.storage_bytes,
            mode=Mode.USER_DEFINED,
            policy=policy,
        )
        return clampi.wrap(raw, config=cfg)
    raise ValueError(f"unknown impl {impl!r}")


def build_fault_plan(cell: Cell) -> FaultPlan | None:
    if cell.faults == "none":
        return None
    if cell.faults == "transient":
        return FaultPlan.of(
            FaultRule("get", probability=TRANSIENT_PROBABILITY),
            FaultRule("put", probability=TRANSIENT_PROBABILITY),
            seed=cell.fault_seed,
        )
    return FaultPlan.of(
        FaultRule(
            "crash",
            probability=1.0,
            ranks=(cell.crash_rank,),
            t_start=cell.crash_time,
        ),
        seed=cell.fault_seed,
    )


# ---------------------------------------------------------------------------
# the per-rank interpreter
# ---------------------------------------------------------------------------
def _init_pattern(spec: WorkloadSpec, rank: int) -> np.ndarray:
    """Deterministic initial window contents, distinct per rank."""
    idx = np.arange(spec.window_bytes, dtype=np.int64)
    return ((idx * 131 + rank * 2654435761 + 17) % 251).astype(np.uint8)


def _payload(
    spec: WorkloadSpec, pi: int, rank: int, oi: int, op: Op
) -> np.ndarray:
    """Deterministic write payload for ``op`` (same on every run)."""
    n = op.nbytes
    idx = np.arange(n, dtype=np.int64)
    raw = (idx * 73 + pi * 977 + rank * 131071 + oi * 8191 + op.slot) % 256
    buf = raw.astype(np.uint8).view(np.dtype(op.dtype))
    if op.kind == "accumulate" and np.issubdtype(buf.dtype, np.floating):
        # keep accumulate arithmetic exact: float sums of small integers
        buf = np.ascontiguousarray(
            (raw[: n // buf.dtype.itemsize] % 17).astype(op.dtype)
        )
    return np.ascontiguousarray(buf)


class _PhaseAborted(Exception):
    """Internal: the phase's epoch could not be opened (dead lock target)."""


def _rank_program(
    mpi: MPIProcess, spec: WorkloadSpec, impl: str, allow_active: bool
) -> tuple[str, dict[str, Any] | None]:
    comm = mpi.comm_world
    raw = Window.allocate(comm, spec.window_bytes)
    raw.local_view(np.uint8)[:] = _init_pattern(spec, mpi.rank)
    win = make_window(raw, impl, spec)
    recovery.barrier(comm)
    h = hashlib.sha256()
    for pi, phase in enumerate(spec.phases):
        _run_phase(mpi, spec, win, raw, impl, pi, phase, h, allow_active)
        recovery.barrier(comm)
    h.update(raw.local_buffer.tobytes())
    snap = win.stats.snapshot() if is_cached_impl(impl) else None
    return h.hexdigest(), snap


def _run_phase(
    mpi: MPIProcess,
    spec: WorkloadSpec,
    win: Any,
    raw: Window,
    impl: str,
    pi: int,
    phase: Phase,
    h: "hashlib._Hash",
    allow_active: bool,
) -> None:
    rank = mpi.rank
    comm = mpi.comm_world
    my_ops = phase.ops[rank]
    epoch = phase.epoch
    if epoch in ("fence", "pscw") and not allow_active:
        # crash cells run passive-target only (see module docstring)
        epoch = "lock_all"
    fetched: list[tuple[bytes, np.ndarray]] = []

    def mark(tag: str) -> None:
        h.update(f"<{tag}:{pi}>".encode())

    def flush_seal() -> None:
        # the block baseline's contract: the caller invalidates at
        # completion points; flush ends a segment, so cached blocks of
        # this rank's own earlier writes must not outlive it
        if impl == "block":
            win.invalidate()

    def run_ops() -> None:
        for oi, op in enumerate(my_ops):
            try:
                _exec_op(spec, win, raw, impl, comm, pi, rank, oi, op,
                         fetched, mark, flush_seal)
            except (TargetFailedError, WindowRevokedError):
                mark(f"dead:{oi}")

    closed = False
    try:
        if epoch == "lock":
            t = phase.lock_targets[rank] if phase.lock_targets else None
            if t is None:
                mark("idle")
                return
            if t in comm.failed_ranks:
                mark("lockdead")
                return
            try:
                # closed via recovery.completed below (opaque to the
                # flow verifier)
                win.lock(t)  # analysis: allow(ANL009)
            except (TargetFailedError, WindowRevokedError):
                mark("lockdead")
                return
            try:
                run_ops()
            finally:
                closed = True
                if not recovery.completed(lambda: win.unlock(t)):
                    mark("unlock-revoked")
        elif epoch == "lock_all":
            # closed via recovery.completed below (opaque to the
            # flow verifier)
            win.lock_all()  # analysis: allow(ANL009)
            try:
                run_ops()
            finally:
                closed = True
                if not recovery.completed(win.unlock_all):
                    mark("unlockall-revoked")
        elif epoch == "fence":
            with win.fence_epoch():
                run_ops()
            closed = True
        else:  # pscw: post/start ... complete/wait (MPI-3 generalised AT)
            group = [r for r in range(spec.nprocs) if r != rank]
            raw.post(group)
            raw.start(group)
            try:
                run_ops()
            finally:
                closed = True
                raw.complete()
                raw.wait()
    except (TargetFailedError, WindowRevokedError):
        # an op to a freshly-dead target surfaced through a close path
        mark("phase-dead")
        if not closed:
            _close_quietly(win, raw, epoch, phase, rank)
    if impl == "block":
        win.invalidate()  # epoch closure = completion point (transparency)
    for tag, buf in fetched:
        h.update(tag)
        h.update(buf.tobytes())


def _close_quietly(
    win: Any, raw: Window, epoch: str, phase: Phase, rank: int
) -> None:
    """Best-effort epoch teardown after a failure mid-phase."""
    def attempt(fn: Any) -> None:
        try:
            recovery.completed(fn)
        except Exception:
            pass

    if epoch == "lock":
        t = phase.lock_targets[rank] if phase.lock_targets else None
        if t is not None:
            attempt(lambda: win.unlock(t))
    elif epoch == "lock_all":
        attempt(win.unlock_all)


def _exec_op(
    spec: WorkloadSpec,
    win: Any,
    raw: Window,
    impl: str,
    comm: Any,
    pi: int,
    rank: int,
    oi: int,
    op: Op,
    fetched: list[tuple[bytes, np.ndarray]],
    mark: Any,
    flush_seal: Any,
) -> None:
    failed = comm.failed_ranks
    tag = f"[{pi}:{oi}]".encode()
    if op.kind == "flush":
        if op.target is None:
            win.flush_all()
        elif op.target in failed:
            mark(f"flushdead:{oi}")
            return
        else:
            win.flush(op.target)
        flush_seal()
        return
    if op.kind == "get_batch":
        if any(t in failed for t, _, _ in op.batch):
            mark(f"batchdead:{oi}")
            return
        dt = np.dtype(op.dtype)
        bufs = [
            np.empty(nb // dt.itemsize, dtype=dt) for _, _, nb in op.batch
        ]
        win.get_batch(
            [
                (buf, t, s * spec.slot_bytes)
                for buf, (t, s, _) in zip(bufs, op.batch)
            ]
        )
        for buf in bufs:
            fetched.append((tag, buf))
        return
    if op.target in failed:
        mark(f"targetdead:{oi}")
        return
    disp = op.slot * spec.slot_bytes
    dt = np.dtype(op.dtype)
    if op.kind == "get":
        buf = np.empty(op.nbytes // dt.itemsize, dtype=dt)
        win.get(buf, op.target, disp)
        fetched.append((tag, buf))
    elif op.kind == "put":
        win.put(_payload(spec, pi, rank, oi, op), op.target, disp)
        if impl == "block":
            # the baseline has no put-invalidation; write-through the tags
            win.invalidate()
    else:  # accumulate — writes are never cached; block impl lacks the method
        target_win = raw if impl == "block" else win
        target_win.accumulate(
            _payload(spec, pi, rank, oi, op), op.target, disp, op=op.acc_op
        )
        if impl == "block":
            win.invalidate()


# ---------------------------------------------------------------------------
# the cell driver
# ---------------------------------------------------------------------------
def run_cell(
    spec: WorkloadSpec,
    cell: Cell,
    *,
    record_trace: bool = False,
    trace: Sequence[int] | None = None,
) -> RunResult:
    """Run ``spec`` on ``cell``; never raises — errors land in ``.error``."""
    plan = build_fault_plan(cell)
    mpi = SimMPI(
        spec.nprocs,
        schedule=cell.schedule,
        schedule_seed=cell.schedule_seed,
        faults=plan,
        record_trace=record_trace,
        trace=trace,
    )
    counts: dict[str, int] = {
        CACHE_EVICT: 0,
        f"{CACHE_EVICT}.capacity": 0,
        f"{CACHE_EVICT}.conflict": 0,
        CACHE_ADMIT: 0,
    }

    def count(event: Any) -> None:
        counts[event.kind] += 1
        if event.kind == CACHE_EVICT:
            reason = event.attrs.get("reason")
            key = f"{CACHE_EVICT}.{reason}"
            if key in counts:
                counts[key] += 1

    sink = CallbackSink(count, kinds=(CACHE_EVICT, CACHE_ADMIT), passive=True)
    bus = get_bus()
    bus.attach(sink)
    allow_active = cell.faults != "crash"
    error: str | None = None
    results: list[Any] = [None] * spec.nprocs
    try:
        results, violations = run_sanitized(
            lambda: mpi.run(_rank_program, spec, cell.impl, allow_active)
        )
    except Exception as exc:  # noqa: BLE001 - the oracle wants data, not a raise
        error = f"{type(exc).__name__}: {exc}"
        violations = []
    finally:
        bus.detach(sink)

    crashed = mpi.crashed if error is None else frozenset()
    digests: list[str | None] = [None] * spec.nprocs
    stats: list[dict[str, Any] | None] = [None] * spec.nprocs
    if error is None:
        for r, out in enumerate(results):
            if out is not None:
                digests[r], stats[r] = out
    live_violations = [
        v.to_dict() for v in violations if v.rank is None or v.rank not in crashed
    ]
    clocks = mpi.clocks if error is None else []
    return RunResult(
        digests=digests,
        clocks=list(clocks),
        makespan=max(clocks) if clocks else 0.0,
        crashed=crashed,
        stats=stats,
        event_counts=counts,
        violations=live_violations,
        trace=list(mpi.schedule_trace) if record_trace and error is None else None,
        error=error,
    )
