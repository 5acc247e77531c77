"""Batched gets under fault injection, and sanitizer coverage of batches.

``get_batch`` elements flow through the *full* interceptor pipeline, so
the resilience and analysis guarantees of scalar gets must carry over
unchanged: injected transient failures fire per element and are retried
with virtual-time backoff, and the sanitizer unpacks the batched
accounting events (``rma.get_batch`` / ``cache.access_batch``) into
per-element records — a batched get racing an overlapping put is caught
exactly like a scalar one.
"""

import numpy as np
import pytest

from repro import clampi, obs, recovery, trace
from repro.analysis import Sanitizer, ViolationKind, sanitize
from repro.apps import LCCApp
from repro.apps.cachespec import CacheSpec
from repro.faults import FaultPlan, FaultRule, RetryPolicy
from repro.mpi import SimMPI, Window
from repro.mpi.errors import TargetFailedError
from repro.obs import FAULT_INJECTED, FAULT_RETRY
from repro.obs.events import (
    CACHE_ACCESS_BATCH,
    RMA_GET_BATCH,
    RMA_PUT,
    Event,
)
from repro.verify.chaos import crash_plan

PLAN = FaultPlan.of(FaultRule("get", probability=0.3), seed=11)
#: Generous budget so failure streaks cannot realistically exhaust it
#: (0.3**8 ~ 7e-5 per op) — the runs must stay transparent.
RETRY = RetryPolicy(max_attempts=8)


def _batch_ring_program(mpi, rounds=8):
    """Each rank repeatedly batch-gets four slices from its successor."""
    comm = mpi.comm_world
    win = Window.allocate(comm, 512)
    win.local_view(np.float64)[:] = np.arange(64) + 100.0 * mpi.rank
    comm.barrier()
    peer = (mpi.rank + 1) % mpi.size
    out = []
    with win.lock_all_epoch():
        for i in range(rounds):
            bufs = [np.empty(8) for _ in range(4)]
            win.get_batch(
                [(bufs[j], peer, ((i + j) % 8) * 64) for j in range(4)]
            )
            win.flush(peer)
            out.append(np.vstack(bufs))
    return np.vstack(out), win.faults_injected, win.retries, mpi.time


class TestBatchedGetsUnderFaults:
    def test_faults_fire_and_results_stay_bit_identical(self):
        clean = SimMPI(nprocs=4).run(_batch_ring_program)
        faulty = SimMPI(nprocs=4, faults=PLAN, retry=RETRY).run(
            _batch_ring_program
        )
        for (a, fa, _, _), (b, fb, _, _) in zip(clean, faulty):
            assert np.array_equal(a, b)
            assert fa == 0
        assert sum(f for _, f, _, _ in faulty) > 0

    def test_retries_charge_virtual_time_backoff(self):
        clean = SimMPI(nprocs=4).run(_batch_ring_program)
        faulty = SimMPI(nprocs=4, faults=PLAN, retry=RETRY).run(
            _batch_ring_program
        )
        assert sum(r for _, _, r, _ in faulty) > 0
        # Wasted round trips + backoff delays slow the faulted run down.
        assert max(t for *_, t in faulty) > max(t for *_, t in clean)

    def test_fault_and_retry_events_name_the_batched_ops(self):
        with obs.capture() as sink:
            SimMPI(nprocs=4, faults=PLAN, retry=RETRY).run(
                _batch_ring_program
            )
        injected = sink.events(kind=FAULT_INJECTED)
        retried = sink.events(kind=FAULT_RETRY)
        assert injected and retried
        # Batch elements fault at the same per-op site scalar gets use.
        assert {e.attrs["op"] for e in injected} == {"get"}
        assert {e.attrs["op"] for e in retried} == {"get"}
        assert all(e.attrs["delay"] > 0 for e in retried)

    def test_deterministic_injection_across_runs(self):
        a = SimMPI(nprocs=4, faults=PLAN, retry=RETRY).run(_batch_ring_program)
        b = SimMPI(nprocs=4, faults=PLAN, retry=RETRY).run(_batch_ring_program)
        for (xa, fa, ra, ta), (xb, fb, rb, tb) in zip(a, b):
            assert np.array_equal(xa, xb)
            assert (fa, ra, ta) == (fb, rb, tb)


W = 7  # window id for the synthetic sanitizer streams


def _put(rank, target, lo, hi):
    return Event(
        RMA_PUT,
        rank,
        0.0,
        0,
        W,
        attrs={"target": target, "base": lo, "span": hi - lo, "nbytes": hi - lo},
    )


def _get_batch(rank, target, ranges):
    ops = [
        {
            "target": target,
            "disp": lo,
            "nbytes": hi - lo,
            "base": lo,
            "span": hi - lo,
            "origin": 0x10000 + 0x1000 * i,  # disjoint origin buffers
            "onbytes": hi - lo,
        }
        for i, (lo, hi) in enumerate(ranges)
    ]
    return Event(
        RMA_GET_BATCH,
        rank,
        0.0,
        0,
        W,
        attrs={
            "count": len(ops),
            "nbytes": sum(op["nbytes"] for op in ops),
            "ops": ops,
        },
    )


class TestSanitizerUnpacksBatches:
    def test_batched_get_races_with_overlapping_put(self):
        san = Sanitizer()
        san.handle(_put(0, 2, 0, 64))
        # Element 0 is disjoint, element 1 overlaps the put: exactly one
        # race, attributed to the overlapping element.
        san.handle(_get_batch(1, 2, [(200, 264), (32, 96)]))
        assert [v.kind for v in san.violations] == [ViolationKind.RACE_PUT_GET]

    def test_put_after_batched_get_races_too(self):
        san = Sanitizer()
        san.handle(_get_batch(0, 2, [(0, 64)]))
        san.handle(_put(1, 2, 32, 96))
        assert [v.kind for v in san.violations] == [ViolationKind.RACE_PUT_GET]

    def test_disjoint_batch_is_clean(self):
        san = Sanitizer()
        san.handle(_put(0, 2, 0, 64))
        san.handle(_get_batch(1, 2, [(64, 128), (256, 320)]))
        assert san.violations == []

    def test_batched_stale_cache_hit_detected(self):
        san = Sanitizer()
        san.handle(_put(0, 2, 0, 64))
        san.handle(
            Event(
                CACHE_ACCESS_BATCH,
                1,
                0.0,
                0,
                W,
                attrs={
                    "count": 1,
                    "ops": [
                        {
                            "access": "hit_full",
                            "target": 2,
                            "base": 32,
                            "nbytes": 64,
                        }
                    ],
                },
            )
        )
        assert ViolationKind.STALE_CACHE_HIT in [
            v.kind for v in san.violations
        ]

    def test_batched_lcc_is_clean_under_strict_sanitizer(self):
        # The end-to-end guarantee: a real batched workload's get/flush
        # discipline sails through strict mode, via the batch events.
        app = LCCApp(scale=5, edge_factor=8, seed=2)
        with sanitize(strict=True) as san:
            result = app.run(
                nprocs=4, spec=CacheSpec.clampi_fixed(256, 64 * 1024), batch=True
            )
        assert san.violations == []
        assert san._seq > 100  # the batch events really were unpacked
        assert result.lcc.shape == (app.nvertices,)


BATCH_VICTIM = 2
BATCH_DEATH = 0.5e-3


def _crashed_batch_program(mpi):
    """Rank 0's cached batch reaches a live and a crashed target, then
    puts over the live element's bytes before the flush that completes
    it: a put/get race only a record of the served element can show."""
    comm = mpi.comm_world
    win = clampi.window_allocate(comm, 64, mode=clampi.Mode.ALWAYS_CACHE)
    win.local_view(np.float64)[:] = 10.0 * (mpi.rank + 1)
    recovery.barrier(comm)
    if mpi.rank == BATCH_VICTIM:
        mpi.compute(1.0)  # dies at BATCH_DEATH on the way
    if mpi.rank != 0:
        return None
    mpi.compute(2 * BATCH_DEATH)  # move causally past the death
    a, b = np.zeros(4), np.zeros(4)
    win.lock_all()
    with pytest.raises(TargetFailedError):
        win.get_batch([(a, 1, 0), (b, BATCH_VICTIM, 0)])
    win.put(np.ones(4), 1, 0)
    win.flush(1)
    win.unlock_all()
    return a


class TestCachedBatchTelemetryOnFailure:
    def test_elements_served_before_a_failure_are_recorded(self):
        """The elements a cached ``get_batch`` served before one raised are
        issued all the same (their bytes arrive at the next flush), so the
        get-stream capture and the sanitizer must see them, whether a
        batch reports its elements in one event or as scalar gets."""
        plan = crash_plan(0, BATCH_VICTIM, BATCH_DEATH)
        with sanitize() as san, trace.capture(3) as streams:
            results = SimMPI(nprocs=3, faults=plan).run(_crashed_batch_program)
        assert np.all(results[0] == 20.0)  # rank 1's bytes arrived
        rank0 = streams[0]
        assert (1, 0, 32) in zip(
            rank0.target.tolist(), rank0.disp.tolist(), rank0.nbytes.tolist()
        )
        races = [v for v in san.violations if v.kind is ViolationKind.RACE_PUT_GET]
        assert [
            (v.rank, [(op.op, op.origin, op.target) for op in v.ops]) for v in races
        ] == [(0, [("get", 0, 1), ("put", 0, 1)])]
