"""Seeded random RMA programs with a correctness-by-construction grammar.

A :class:`WorkloadSpec` describes one simulated MPI job as a sequence of
barrier-separated **phases**; each phase opens one access epoch per rank
(``lock`` / ``lock_all`` / ``fence`` / ``pscw``) and runs a straight-line
list of ops per rank (``get`` / ``put`` / ``accumulate`` / ``get_batch``
/ ``flush``).

Validity model
--------------
The oracle asserts *bit-identical* results across implementations and
schedules, so a generated program must have exactly one well-defined
outcome under the MPI-3 RMA memory model.  :func:`validate` enforces a
conservative sufficient condition:

* **single-writer regions** — every rank's window memory is partitioned
  into ``nprocs + 1`` regions of ``slots_per_region`` slots of
  ``slot_bytes`` bytes; region ``r`` (on *any* target) is written only
  by rank ``r``, and region ``nprocs`` is read-only.  Writers therefore
  never conflict with each other, on any target, under any interleaving;
* **flush-delimited segments** — within a phase, a rank's op stream
  towards one target is cut into segments by its ``flush`` ops
  (``flush_all`` cuts every target's stream).  At most one write per
  ``(target, slot)`` per segment, and no read and write of the same
  ``(target, slot)`` within one segment (MPI 11.7: overlapping accesses
  within an epoch are undefined);
* **phase isolation** — a ``(target, slot)`` written in a phase is not
  read by any *other* rank in the same phase.  Phases end with an epoch
  closure and a barrier, so cross-phase reads of foreign writes are
  well-defined — and they are exactly the accesses that force a
  transparent cache to invalidate (the stale-read vector);
* writes never target the issuing rank itself (reads may: a rank can
  get from its own window, which caches must handle like any target).

The generator is biased toward **reuse** (per-rank hot address pools)
so caching engages, and plants a deliberate cross-phase
read → foreign-write → read *stale probe* so any implementation that
skips epoch-closure invalidation (e.g. the ``buggy-stale`` self-test
impl) is detectable in essentially every generated spec.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence

import numpy as np

from repro.mpi.epochs import FENCE, LOCK, LOCK_ALL, MODES, OPEN_MODES, PSCW, step

#: data-movement op kinds an :class:`Op` may carry
OP_KINDS = ("get", "put", "accumulate", "get_batch", "flush")
#: per-phase epoch disciplines: the open modes of the window's epoch table
EPOCH_KINDS = OPEN_MODES
#: element dtypes ops may use (numpy codes; all contiguous basics)
DTYPES = ("u1", "i4", "f8")
#: element dtypes *generated* accumulates use: integers only, so that a
#: ``sum`` wraps modulo 2^n and every non-zero addend changes the target
#: bytes.  Window bytes decode to huge or non-finite doubles about half
#: of the time, where ``x + 5.0`` is bit-identical to ``x`` (absorbed,
#: inf, NaN) and a dropped or doubled accumulate would be invisible to
#: the oracle.  Hand-written specs may still accumulate in any of DTYPES.
ACC_DTYPES = ("i4", "i8")
#: accumulate reductions (matches Window.accumulate)
ACC_OPS = ("sum", "max", "min", "replace")

_DTYPE_SIZE = {d: np.dtype(d).itemsize for d in DTYPES + ACC_DTYPES}


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One straight-line operation in a rank's per-phase program.

    ``slot`` addresses ``slot_bytes`` bytes at byte offset
    ``slot * slot_bytes`` of the target's window; ``nbytes`` (a multiple
    of the dtype size, at most ``slot_bytes``) is read/written from the
    start of the slot.  ``get_batch`` ops carry their elements in
    ``batch`` as ``(target, slot, nbytes)`` triples and ignore the
    scalar ``target`` / ``slot`` / ``nbytes`` fields; ``flush`` ops with
    ``target is None`` mean ``flush_all``.
    """

    kind: str
    target: int | None = None
    slot: int = 0
    nbytes: int = 1
    dtype: str = "u1"
    acc_op: str = "sum"
    batch: tuple[tuple[int, int, int], ...] = ()

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"kind": self.kind}
        if self.kind == "flush":
            d["target"] = self.target
        elif self.kind == "get_batch":
            d["batch"] = [list(b) for b in self.batch]
            d["dtype"] = self.dtype
        else:
            d.update(
                target=self.target,
                slot=self.slot,
                nbytes=self.nbytes,
                dtype=self.dtype,
            )
            if self.kind == "accumulate":
                d["acc_op"] = self.acc_op
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Op":
        return cls(
            kind=d["kind"],
            target=d.get("target"),
            slot=int(d.get("slot", 0)),
            nbytes=int(d.get("nbytes", 1)),
            dtype=d.get("dtype", "u1"),
            acc_op=d.get("acc_op", "sum"),
            batch=tuple(
                (int(t), int(s), int(n)) for t, s, n in d.get("batch", ())
            ),
        )

    def reads(self) -> tuple[tuple[int, int], ...]:
        """``(target, slot)`` addresses this op reads."""
        if self.kind == "get":
            return ((self.target, self.slot),)
        if self.kind == "get_batch":
            return tuple((t, s) for t, s, _ in self.batch)
        return ()

    def writes(self) -> tuple[tuple[int, int], ...]:
        """``(target, slot)`` addresses this op writes."""
        if self.kind in ("put", "accumulate"):
            return ((self.target, self.slot),)
        return ()


@dataclass(frozen=True)
class Phase:
    """One barrier-separated round: an epoch plus per-rank op lists.

    ``lock_targets`` is only meaningful for ``epoch == "lock"``: rank
    ``r`` locks ``lock_targets[r]`` (``None`` = this rank opens no epoch
    and runs no ops this phase).
    """

    epoch: str
    ops: tuple[tuple[Op, ...], ...]
    lock_targets: tuple[int | None, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "epoch": self.epoch,
            "ops": [[op.to_dict() for op in rank_ops] for rank_ops in self.ops],
        }
        if self.epoch == LOCK:
            d["lock_targets"] = list(self.lock_targets)
        return d

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Phase":
        return cls(
            epoch=d["epoch"],
            ops=tuple(
                tuple(Op.from_dict(o) for o in rank_ops)
                for rank_ops in d["ops"]
            ),
            lock_targets=tuple(d.get("lock_targets", ())),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete seeded random RMA program (one oracle subject)."""

    nprocs: int
    slots_per_region: int
    slot_bytes: int
    index_entries: int
    storage_bytes: int
    phases: tuple[Phase, ...]
    seed: int = 0  #: generator seed (provenance only; replay uses the ops)

    # -- layout ---------------------------------------------------------
    @property
    def regions(self) -> int:
        """Write regions 0..nprocs-1 plus the trailing read-only region."""
        return self.nprocs + 1

    @property
    def total_slots(self) -> int:
        return self.regions * self.slots_per_region

    @property
    def window_bytes(self) -> int:
        return self.total_slots * self.slot_bytes

    def region_of(self, slot: int) -> int:
        return slot // self.slots_per_region

    def region_slots(self, region: int) -> range:
        lo = region * self.slots_per_region
        return range(lo, lo + self.slots_per_region)

    def op_count(self) -> int:
        """Total data ops (batch elements counted individually)."""
        n = 0
        for phase in self.phases:
            for rank_ops in phase.ops:
                for op in rank_ops:
                    n += len(op.batch) if op.kind == "get_batch" else 1
        return n

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "nprocs": self.nprocs,
            "slots_per_region": self.slots_per_region,
            "slot_bytes": self.slot_bytes,
            "index_entries": self.index_entries,
            "storage_bytes": self.storage_bytes,
            "seed": self.seed,
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "WorkloadSpec":
        return cls(
            nprocs=int(d["nprocs"]),
            slots_per_region=int(d["slots_per_region"]),
            slot_bytes=int(d["slot_bytes"]),
            index_entries=int(d["index_entries"]),
            storage_bytes=int(d["storage_bytes"]),
            seed=int(d.get("seed", 0)),
            phases=tuple(Phase.from_dict(p) for p in d["phases"]),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# validation (the single rule engine; the generator defers to it)
# ---------------------------------------------------------------------------
def validate(spec: WorkloadSpec) -> list[str]:
    """Validity errors of ``spec`` (empty list = race-free by construction)."""
    errors: list[str] = []
    if spec.nprocs < 2:
        errors.append(f"nprocs must be >= 2, got {spec.nprocs}")
    if spec.slots_per_region < 1 or spec.slot_bytes < 8:
        errors.append("slots_per_region >= 1 and slot_bytes >= 8 required")
    if spec.index_entries < 1 or spec.storage_bytes < 1:
        errors.append("index_entries and storage_bytes must be >= 1")
    if errors:
        return errors
    for pi, phase in enumerate(spec.phases):
        errors.extend(
            f"phase {pi}: {msg}" for msg in _phase_errors(spec, phase)
        )
    return errors


def _phase_errors(spec: WorkloadSpec, phase: Phase) -> list[str]:
    errors: list[str] = []
    n = spec.nprocs
    if phase.epoch not in EPOCH_KINDS:
        return [f"unknown epoch kind {phase.epoch!r}"]
    if len(phase.ops) != n:
        return [f"ops lists for {len(phase.ops)} ranks, job has {n}"]
    if phase.epoch == LOCK:
        if len(phase.lock_targets) != n:
            return [f"lock phase needs {n} lock_targets"]
        for r, t in enumerate(phase.lock_targets):
            if t is not None and (not 0 <= t < n or t == r):
                errors.append(f"rank {r}: bad lock target {t}")

    # writer of each (target, slot) this phase, for cross-rank read checks
    writers: dict[tuple[int, int], int] = {}
    for r, rank_ops in enumerate(phase.ops):
        for op in rank_ops:
            for addr in op.writes():
                writers.setdefault(addr, r)

    for r, rank_ops in enumerate(phase.ops):
        lock_t = (
            phase.lock_targets[r] if phase.epoch == LOCK else None
        )
        if phase.epoch == LOCK and lock_t is None and rank_ops:
            errors.append(f"rank {r}: ops without a lock target")
            continue
        # current flush-delimited segment id per target
        seg: dict[int, int] = {}
        seg_writes: set[tuple[int, int, int]] = set()  # (target, slot, seg)
        seg_reads: set[tuple[int, int, int]] = set()
        for oi, op in enumerate(rank_ops):
            where = f"rank {r} op {oi}"
            if op.kind not in OP_KINDS:
                errors.append(f"{where}: unknown kind {op.kind!r}")
                continue
            if op.kind == "flush":
                call = "flush_all" if op.target is None else "flush"
                if op.target is not None and not 0 <= op.target < n:
                    errors.append(f"{where}: bad flush target {op.target}")
                elif not _allows(phase.epoch, call, lock_t, r, op.target):
                    errors.append(
                        f"{where}: {call}({op.target}) refused under "
                        f"{phase.epoch}"
                    )
                elif op.target is None:
                    seg = {t: s + 1 for t, s in seg.items()}
                else:
                    seg[op.target] = seg.get(op.target, 0) + 1
                continue
            accesses = [(a, True) for a in op.writes()]
            accesses += [(a, False) for a in op.reads()]
            if op.kind == "get_batch" and not op.batch:
                errors.append(f"{where}: empty batch")
                continue
            sizes = (
                [(op.nbytes, op.dtype)]
                if op.kind != "get_batch"
                else [(nb, op.dtype) for _, _, nb in op.batch]
            )
            for nb, dt in sizes:
                isz = _DTYPE_SIZE.get(dt)
                if isz is None:
                    errors.append(f"{where}: unknown dtype {dt!r}")
                elif not 0 < nb <= spec.slot_bytes or nb % isz:
                    errors.append(
                        f"{where}: bad nbytes {nb} (dtype {dt}, "
                        f"slot {spec.slot_bytes})"
                    )
            if op.kind == "accumulate" and op.acc_op not in ACC_OPS:
                errors.append(f"{where}: unknown acc op {op.acc_op!r}")
            for (t, s), is_write in accesses:
                if t is None or not 0 <= t < n:
                    errors.append(f"{where}: bad target {t}")
                    continue
                call = op.kind if is_write else "get"
                if not _allows(phase.epoch, call, lock_t, r, t):
                    errors.append(f"{where}: target {t} outside the epoch")
                    continue
                if not 0 <= s < spec.total_slots:
                    errors.append(f"{where}: slot {s} out of range")
                    continue
                region = spec.region_of(s)
                sid = seg.get(t, 0)
                if is_write:
                    if t == r:
                        errors.append(f"{where}: write targets self")
                    if region != r:
                        errors.append(
                            f"{where}: write to slot {s} outside "
                            f"rank {r}'s region"
                        )
                    if (t, s, sid) in seg_writes or (t, s, sid) in seg_reads:
                        errors.append(
                            f"{where}: write to ({t},{s}) conflicts within "
                            "its flush segment"
                        )
                    seg_writes.add((t, s, sid))
                else:
                    w = writers.get((t, s))
                    if w is not None and w != r:
                        errors.append(
                            f"{where}: reads ({t},{s}) written by rank {w} "
                            "in the same phase"
                        )
                    if (t, s, sid) in seg_writes:
                        errors.append(
                            f"{where}: reads ({t},{s}) written in the same "
                            "flush segment"
                        )
                    seg_reads.add((t, s, sid))
    return errors


def _allows(
    epoch: str, call: str, lock_t: int | None, rank: int, target: int | None
) -> bool:
    """Does ``rank``'s epoch, opened as the runner opens it, allow ``call``
    towards ``target``?  ``lock`` covers ``lock_t``, ``start`` every other
    rank, and ``lock_all`` or ``fence_epoch`` the whole group."""
    covered = {LOCK: target == lock_t, PSCW: target != rank}.get(epoch, True)
    return step(epoch, call, covered) in MODES


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
_EPOCH_WEIGHTS = ((LOCK_ALL, 45), (LOCK, 25), (FENCE, 20), (PSCW, 10))
_KIND_WEIGHTS = (
    ("get", 52),
    ("put", 16),
    ("flush", 12),
    ("get_batch", 10),
    ("accumulate", 10),
)


def _weighted(rng: random.Random, table: Sequence[tuple[str, int]]) -> str:
    total = sum(w for _, w in table)
    x = rng.randrange(total)
    for name, w in table:
        x -= w
        if x < 0:
            return name
    return table[-1][0]  # pragma: no cover - unreachable


def generate(
    seed: int,
    *,
    nprocs: int | None = None,
    n_phases: int | None = None,
    ops_per_rank: tuple[int, int] = (3, 9),
    stale_probe: bool = True,
) -> WorkloadSpec:
    """One seeded random, *valid* workload (same seed → same spec).

    ``stale_probe=True`` plants a cross-phase read → foreign-write →
    read triple on one address, the canonical access pattern a
    non-invalidating cache serves stale.
    """
    rng = random.Random(f"repro.verify.workload:{seed}")
    n = nprocs if nprocs is not None else rng.choice((2, 3, 4))
    spr = rng.choice((2, 3, 4))
    phases_n = n_phases if n_phases is not None else rng.randint(2, 4)
    if stale_probe:
        phases_n = max(phases_n, 3)
    spec = WorkloadSpec(
        nprocs=n,
        slots_per_region=spr,
        slot_bytes=64,
        index_entries=rng.choice((16, 64)),
        storage_bytes=rng.choice((1024, 4096, 1 << 16)),
        phases=(),
        seed=seed,
    )

    # per-rank hot read pools: reuse is what makes caching engage
    pools: list[list[tuple[int, int]]] = []
    ro_slots = list(spec.region_slots(n))
    for r in range(n):
        pool: list[tuple[int, int]] = []
        for _ in range(rng.randint(3, 5)):
            t = rng.choice([x for x in range(n) if x != r] or [r])
            if rng.random() < 0.4:
                s = rng.choice(ro_slots)
            else:
                owner = rng.randrange(n)
                s = rng.choice(list(spec.region_slots(owner)))
            pool.append((t, s))
        pools.append(pool)

    epochs = [_weighted(rng, _EPOCH_WEIGHTS) for _ in range(phases_n)]
    lock_targets: list[tuple[int | None, ...]] = []
    for ek in epochs:
        if ek == LOCK:
            lock_targets.append(
                tuple(
                    rng.choice([x for x in range(n) if x != r])
                    for r in range(n)
                )
            )
        else:
            lock_targets.append(())

    ops: list[list[list[Op]]] = [[[] for _ in range(n)] for _ in epochs]

    def try_add(pi: int, r: int, op: Op) -> bool:
        ops[pi][r].append(op)
        phase = Phase(epochs[pi], tuple(map(tuple, ops[pi])), lock_targets[pi])
        if _phase_errors(spec, phase):
            ops[pi][r].pop()
            return False
        return True

    # plant the stale probe first so the remaining ops grow around it
    if stale_probe and phases_n >= 3:
        w = rng.randrange(n)
        readers = [x for x in range(n) if x != w]
        r = rng.choice(readers)
        t_choices = [x for x in range(n) if x != w] or [r]
        t = rng.choice(t_choices)  # target window; reader may read itself
        s = rng.choice(list(spec.region_slots(w)))
        p_write = rng.randint(1, phases_n - 2)
        probe_get = Op("get", target=t, slot=s, nbytes=spec.slot_bytes)
        probe_put = Op("put", target=t, slot=s, nbytes=spec.slot_bytes)
        probes = (
            (0, r, probe_get),
            (p_write, w, probe_put),
            (phases_n - 1, r, probe_get),
        )
        if not all(
            _allows(epochs[pi], "get",
                    lock_targets[pi][who] if epochs[pi] == LOCK else None,
                    who, t)
            for pi, who, _op in probes
        ):
            # force friendly epochs for the probe's three phases
            for pi, _who, _op in probes:
                epochs[pi] = LOCK_ALL
                lock_targets[pi] = ()
        for pi, who, op in probes:
            if not try_add(pi, who, op):  # pragma: no cover - generator bug
                raise AssertionError("stale probe placement rejected")

    for pi in range(phases_n):
        for r in range(n):
            if epochs[pi] == LOCK and lock_targets[pi][r] is None:
                continue
            budget = rng.randint(*ops_per_rank)
            for _ in range(budget):
                op = _propose(rng, spec, pools[r], r, epochs[pi],
                              lock_targets[pi][r] if epochs[pi] == LOCK
                              else None)
                if op is not None and not try_add(pi, r, op):
                    # fall back to a hot-pool read, the always-safe op
                    t, s = rng.choice(pools[r])
                    fallback = Op("get", target=t, slot=s,
                                  nbytes=spec.slot_bytes)
                    try_add(pi, r, fallback)

    spec = replace(
        spec,
        phases=tuple(
            Phase(epochs[pi], tuple(map(tuple, ops[pi])), lock_targets[pi])
            for pi in range(phases_n)
        ),
    )
    errors = validate(spec)
    if errors:  # pragma: no cover - generator bug guard
        raise AssertionError(f"generator produced invalid spec: {errors}")
    return spec


def _propose(
    rng: random.Random,
    spec: WorkloadSpec,
    pool: list[tuple[int, int]],
    rank: int,
    epoch: str,
    lock_t: int | None,
) -> Op | None:
    """One candidate op (validity is re-checked by the caller)."""
    n = spec.nprocs
    kind = _weighted(rng, _KIND_WEIGHTS)
    others = [x for x in range(n) if x != rank]

    def read_addr() -> tuple[int, int]:
        if lock_t is not None:
            # under lock, every op must hit the lock target's window
            t = lock_t
            if rng.random() < 0.8 and any(pt == t for pt, _ in pool):
                return rng.choice([(pt, ps) for pt, ps in pool if pt == t])
            return t, rng.randrange(spec.total_slots)
        if epoch == PSCW:
            # the access epoch never covers self: foreign targets only
            foreign = [(pt, ps) for pt, ps in pool if pt != rank]
            if rng.random() < 0.8 and foreign:
                return rng.choice(foreign)
            return rng.choice(others), rng.randrange(spec.total_slots)
        if rng.random() < 0.8:
            return rng.choice(pool)
        t = rng.choice(others + [rank])
        return t, rng.randrange(spec.total_slots)

    def rand_nbytes(dtype: str) -> int:
        isz = _DTYPE_SIZE[dtype]
        return isz * rng.randint(1, spec.slot_bytes // isz)

    if kind == "flush":
        if lock_t is not None:
            return Op("flush", target=lock_t)
        if not _allows(epoch, "flush_all", None, rank, None):
            return Op("flush", target=rng.choice(others))
        return Op("flush", target=None if rng.random() < 0.5
                  else rng.choice(others))
    if kind == "get":
        t, s = read_addr()
        dt = rng.choice(DTYPES)
        return Op("get", target=t, slot=s, nbytes=rand_nbytes(dt), dtype=dt)
    if kind == "get_batch":
        dt = rng.choice(DTYPES)
        batch = tuple(
            (t, s, rand_nbytes(dt))
            for t, s in (read_addr() for _ in range(rng.randint(2, 4)))
        )
        return Op("get_batch", dtype=dt, batch=batch)
    # writes go to this rank's own region, on a foreign target
    t = lock_t if lock_t is not None else rng.choice(others)
    if t == rank:
        return None
    s = rng.choice(list(spec.region_slots(rank)))
    if kind == "put":
        dt = rng.choice(DTYPES)
        return Op("put", target=t, slot=s, nbytes=rand_nbytes(dt), dtype=dt)
    dt = rng.choice(ACC_DTYPES)
    return Op(
        "accumulate",
        target=t,
        slot=s,
        nbytes=rand_nbytes(dt),
        dtype=dt,
        acc_op=rng.choice(ACC_OPS),
    )
