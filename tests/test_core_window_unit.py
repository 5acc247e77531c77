"""Focused unit tests for CachedWindow internals not covered elsewhere."""

import numpy as np
import pytest

from repro import clampi, obs, recovery
from repro.core.states import EntryState
from repro.faults import FaultPlan, FaultRule
from repro.mpi import SimMPI
from repro.mpi.errors import TargetFailedError
from repro.util import KiB


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


class TestIntrospection:
    def test_seq_and_ags_tracking(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world, 4 * KiB, mode=clampi.Mode.ALWAYS_CACHE
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            win.lock_all()
            win.get_blocking(np.empty(100, np.uint8), 1, 0)
            win.get_blocking(np.empty(300, np.uint8), 1, 1024)
            win.unlock_all()
            return win.seq_index, win.avg_get_size

        results, _ = run(2, program)
        seq, ags = results[0]
        assert seq == 2
        assert ags == pytest.approx(200.0)

    def test_ags_zero_before_any_get(self):
        def program(m):
            win = clampi.window_allocate(m.comm_world, 256)
            return win.avg_get_size, win.seq_index

        results, _ = run(1, program)
        assert results[0] == (0.0, 0)

    def test_index_and_storage_exposed(self):
        def program(m):
            cfg = clampi.Config(index_entries=128, storage_bytes=64 * KiB)
            win = clampi.window_allocate(
                m.comm_world, 4 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            win.lock_all()
            win.get_blocking(np.empty(100, np.uint8), 1, 0)
            win.unlock_all()
            return (
                win.index.capacity,
                len(win.index),
                win.storage.capacity,
                win.storage.used_bytes,
            )

        results, _ = run(2, program)
        cap, live, scap, used = results[0]
        assert cap == 128 and live == 1
        assert scap == 64 * KiB
        assert used == 128  # 100 B aligned to two cache lines

    def test_entry_states_after_flush(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world, 4 * KiB, mode=clampi.Mode.ALWAYS_CACHE
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            buf = np.empty(100, np.uint8)
            win.lock_all()
            win.get(buf, 1, 0)
            mid = [e.state for e in win.index.entries()]
            win.flush(1)
            after = [e.state for e in win.index.entries()]
            win.unlock_all()
            return mid, after

        results, _ = run(2, program)
        mid, after = results[0]
        assert mid == [EntryState.PENDING]
        assert after == [EntryState.CACHED]

    def test_cost_model_total_accumulates(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world, 4 * KiB, mode=clampi.Mode.ALWAYS_CACHE
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            buf = np.empty(1024, np.uint8)
            win.lock_all()
            win.get_blocking(buf, 1, 0)
            after_miss = win.cost.total
            win.get_blocking(buf, 1, 0)
            after_hit = win.cost.total
            win.unlock_all()
            return after_miss, after_hit

        results, _ = run(2, program)
        after_miss, after_hit = results[0]
        assert 0 < after_miss < after_hit

    def test_raw_window_shared_buffer(self):
        def program(m):
            win = clampi.window_allocate(m.comm_world, 64)
            win.local_view(np.uint8)[:] = 9
            return int(win.raw.local_buffer[0]), win.raw.comm.rank == m.rank

        results, _ = run(2, program)
        assert results == [(9, True), (9, True)]


class TestEpochCloseScan:
    def test_transparent_flush_never_walks_the_index(self):
        """TRANSPARENT invalidation is the pending loop, not an index scan."""

        def program(m):
            win = clampi.window_allocate(m.comm_world, 4 * KiB)
            assert win.mode is clampi.Mode.TRANSPARENT
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            scans = []
            entries = win.index.entries
            win.index.entries = lambda: scans.append(1) or entries()
            buf = np.empty(64, np.uint8)
            win.lock_all()
            for disp in (0, 256, 512):
                win.get(buf, 1, disp)
                win.get(buf, 2, disp)
            win.flush(1)  # per-target close: rank 2's entries stay PENDING
            after_one = (len(win.index), len(win.engine.pending))
            win.flush_all()
            win.unlock_all()
            scanned = len(scans)  # the audit below is allowed to scan
            win.check_invariants()
            return after_one, len(win.index), scanned

        results, _ = run(3, program)
        assert results[0] == ((3, 3), 0, 0)


VICTIM, DEATH = 1, 1e-2


def lifecycle_log(recovery_mode):
    """Which entries leave the cache, in which order, on a fixed seed.

    Rank 0 churns a 20-slot index through conflict and capacity
    evictions, then drives every bulk departure: put invalidation, the
    crash disposition of ``recovery_mode`` and ``invalidate()``.  The log
    is the policy's ``on_free`` stream, with a marker before each step.
    """
    plan = FaultPlan.of(
        FaultRule("crash", probability=1.0, ranks=(VICTIM,), t_start=DEATH),
        seed=3,
    )

    def program(mpi):
        cfg = clampi.Config(
            index_entries=20,
            storage_bytes=1152,
            mode=clampi.Mode.ALWAYS_CACHE,
            recovery=recovery_mode,
        )
        win = clampi.window_allocate(mpi.comm_world, 1024, config=cfg)
        win.local_view(np.uint8)[:] = mpi.rank + 1
        recovery.barrier(mpi.comm_world)
        if mpi.rank == VICTIM:
            mpi.compute(1.0)  # dies at t=DEATH on the way
        if mpi.rank != 0:
            return None
        log = []
        policy = win.engine.policy
        on_free = policy.on_free

        def spy(entry, reason):
            log.append((entry.trg, entry.dsp, reason))
            on_free(entry, reason)

        policy.on_free = spy
        buf = np.empty(24, np.uint8)
        win.lock_all()
        for i in range(40):
            win.get(buf, (1, 2)[i % 2], (i * 40) % 960)
            if i % 6 == 5:
                win.flush_all()
        log.append("put")
        win.put(np.zeros(300, np.uint8), 2, 100)
        win.flush_all()
        for i in range(6):  # left PENDING: both states take the bulk paths
            win.get(buf, (1, 2)[i % 2], 8 + (i * 56) % 900)
        log.append("crash")
        mpi.compute(2e-2)  # move causally past the death
        try:
            win.get(buf, VICTIM, 0)  # first observation: disposition runs
        except TargetFailedError:
            pass
        log.append("invalidate")
        win.invalidate()
        win.unlock_all()
        win.check_invariants()
        snap = clampi.stats(win).snapshot()
        return log, (snap["recovery_pinned"], snap["recovery_dropped"])

    with obs.capture() as sink:
        log, disposition = SimMPI(nprocs=3, faults=plan).run(program)[0]
    evicts = [
        (e.attrs["reason"], e.attrs["visited"])
        for e in sink.events(kind=obs.CACHE_EVICT)
        if e.rank == 0
    ]
    return log, evicts, disposition


#: pinned at the commit before the one-enumeration refactor (PR 13)
CHURN_AND_PUT = [
    (1, 0, "evicted"), (1, 80, "evicted"), (2, 40, "evicted"),
    (2, 120, "evicted"), (1, 160, "evicted"), (2, 200, "evicted"),
    (1, 240, "evicted"), (2, 280, "evicted"), (1, 320, "evicted"),
    (2, 360, "evicted"), (1, 400, "evicted"), (1, 480, "evicted"),
    (2, 440, "evicted"), (1, 560, "evicted"), (2, 520, "evicted"),
    (2, 600, "evicted"), (1, 640, "evicted"), (2, 680, "evicted"),
    (1, 720, "evicted"), (1, 800, "evicted"), (2, 760, "evicted"),
    (1, 880, "evicted"), "put", (2, 120, "dropped"), (2, 280, "dropped"),
    (2, 360, "dropped"), (2, 200, "dropped"), (2, 840, "evicted"),
    (2, 920, "evicted"),
]  # fmt: skip
CRASH_THEN_INVALIDATE = {
    "invalidate": [
        "crash", (1, 160, "dropped"), (1, 560, "dropped"), (1, 80, "dropped"),
        (1, 232, "dropped"), (1, 320, "dropped"), (1, 8, "dropped"),
        (1, 240, "dropped"), (1, 120, "dropped"), (1, 480, "dropped"),
        (1, 0, "dropped"), (1, 400, "dropped"), "invalidate",
        (2, 176, "dropped"), (2, 40, "dropped"), (2, 64, "dropped"),
        (2, 520, "dropped"), (2, 440, "dropped"), (2, 288, "dropped"),
        (2, 600, "dropped"),
    ],
    "serve-stale": [
        "crash", "invalidate", (2, 176, "dropped"), (1, 160, "dropped"),
        (1, 560, "dropped"), (1, 80, "dropped"), (2, 40, "dropped"),
        (2, 64, "dropped"), (2, 520, "dropped"), (1, 232, "dropped"),
        (1, 320, "dropped"), (2, 440, "dropped"), (2, 288, "dropped"),
        (1, 8, "dropped"), (1, 240, "dropped"), (2, 600, "dropped"),
        (1, 120, "dropped"), (1, 480, "dropped"), (1, 0, "dropped"),
        (1, 400, "dropped"),
    ],
}  # fmt: skip


class TestDepartureOrder:
    """Entries die in index-slot order, then orphans — on every bulk path."""

    @pytest.mark.parametrize("recovery_mode", ["invalidate", "serve-stale"])
    def test_same_order_as_before_the_refactor(self, recovery_mode):
        log, evicts, disposition = lifecycle_log(recovery_mode)
        assert log == CHURN_AND_PUT + CRASH_THEN_INVALIDATE[recovery_mode]
        assert evicts == [("conflict", 0)] * 4 + [("capacity", 16)] * 20
        pinned_dropped = {"invalidate": (0, 11), "serve-stale": (11, 0)}
        assert disposition == pinned_dropped[recovery_mode]


class TestPerTargetMembership:
    """Writes and crashes read a target's membership, not the index."""

    def test_put_never_walks_the_index(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world, 4 * KiB, mode=clampi.Mode.ALWAYS_CACHE
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            buf = np.empty(64, np.uint8)
            win.lock_all()
            for disp in (0, 256, 512):
                win.get(buf, 1, disp)
                win.get(buf, 2, disp)
            win.flush_all()
            scans = []
            entries = win.index.entries
            win.index.entries = lambda: scans.append(1) or entries()
            win.put(np.zeros(100, np.uint8), 1, 200)  # overlaps (1, 256) only
            win.flush_all()
            scanned = len(scans)
            live = sorted(e.key for e in win.engine.live_entries())
            win.unlock_all()
            win.check_invariants()
            return scanned, live

        results, _ = run(3, program)
        assert results[0] == (
            0,
            [(1, 0), (1, 512), (2, 0), (2, 256), (2, 512)],
        )

    def test_span_query_matches_a_scan_of_every_entry(self):
        """Mixed sizes, strided datatypes (extent > size), a disp_unit of
        4 and partial-hit extensions: bisecting the membership finds
        exactly what filtering the whole enumeration finds, in its order."""
        from repro.mpi.datatypes import FLOAT32, Vector

        def program(m):
            cfg = clampi.Config(index_entries=256, storage_bytes=64 * KiB)
            win = clampi.window_allocate(
                m.comm_world,
                8 * KiB,
                disp_unit=4,
                mode=clampi.Mode.ALWAYS_CACHE,
                config=cfg,
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            rng = np.random.default_rng(7)
            strided = Vector(3, 1, 4, FLOAT32)  # 12 B payload over 36 B
            win.lock_all()
            for i in range(150):
                trg, disp = int(rng.integers(1, 3)), int(rng.integers(0, 1900))
                if i % 5 == 0:
                    win.get(np.empty(12, np.uint8), trg, disp, 1, strided)
                else:
                    win.get(np.empty(int(rng.integers(1, 200)), np.uint8), trg, disp)
                if i % 7 == 0:
                    win.flush_all()
            win.flush_all()
            win.check_invariants()
            everything = win.engine.live_entries()
            assert len(everything) > 100
            mismatches = 0
            for _ in range(300):
                trg = int(rng.integers(1, 3))
                lo = int(rng.integers(0, 8 * KiB))
                hi = lo + int(rng.integers(0, 300))
                want = [
                    e
                    for e in everything
                    if e.trg == trg
                    and e.dsp * 4 < hi
                    and e.dsp * 4 + e.dtype.extent * e.count > lo
                ]
                mismatches += win.engine.live_entries(trg, (lo, hi)) != want
            whole = [
                win.engine.live_entries(t) == [e for e in everything if e.trg == t]
                for t in (1, 2, 3)
            ]
            win.unlock_all()
            return mismatches, whole, win.stats.snapshot()["hit_partial"]

        results, _ = run(3, program)
        mismatches, whole, partial_hits = results[0]
        assert mismatches == 0 and whole == [True, True, True]
        assert partial_hits > 0, "the stream never extended an entry"
