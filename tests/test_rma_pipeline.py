"""Descriptors, the bound op handlers and batched gets.

Pins the contracts of the op path (``repro.mpi.ops``):

* ``get_batch`` of N same-target gets is **bit-identical in virtual
  time** to N scalar gets followed by the same flush (every element is
  priced through the full pipeline; only the bookkeeping is batched);
* the batch emits exactly **one** ``rma.get_batch`` accounting event
  (carrying per-op sanitizer footprints) instead of N ``rma.get``
  events, and the CLaMPI layer likewise collapses its per-get
  ``cache.access`` telemetry into one ``cache.access_batch``;
* epoch/liveness checking still applies to batches (one pass);
* ``Window.issue`` is a real extension point: a hand-built descriptor
  behaves exactly like the scalar op method that would have built it;
* a window binds the bare straight-line attempt unless it can see faults
  or crashes, in which case exactly one resilience wrapper goes around it.
"""

import numpy as np
import pytest

from repro import obs
from repro.apps.cachespec import CacheSpec
from repro.faults import FaultPlan, FaultRule
from repro.mpi import EpochError, SimMPI, Window, ops
from repro.mpi.ops import describe_get
from repro.obs import CACHE_ACCESS, CACHE_ACCESS_BATCH, RMA_GET, RMA_GET_BATCH

N_OPS = 6
SLICE = 16  # int64 elements per get


def _fill(win, rank):
    win.local_view(np.int64)[:] = np.arange(512) + 1000 * rank


def _requests(peer):
    bufs = [np.empty(SLICE, np.int64) for _ in range(N_OPS)]
    reqs = [(bufs[i], peer, i * SLICE * 8) for i in range(N_OPS)]
    return bufs, reqs


def _scalar_program(m):
    win = Window.allocate(m.comm_world, 4096)
    _fill(win, m.rank)
    m.comm_world.barrier()
    if m.rank != 0:
        return None
    bufs, reqs = _requests(peer=1)
    win.lock_all()
    t0 = m.time
    for origin, target, disp in reqs:
        win.get(origin, target, disp)
    win.flush(1)
    dt = m.time - t0
    win.unlock_all()
    return np.concatenate(bufs), dt


def _batch_program(m):
    win = Window.allocate(m.comm_world, 4096)
    _fill(win, m.rank)
    m.comm_world.barrier()
    if m.rank != 0:
        return None
    bufs, reqs = _requests(peer=1)
    win.lock_all()
    t0 = m.time
    sizes = win.get_batch(reqs)
    win.flush(1)
    dt = m.time - t0
    win.unlock_all()
    return np.concatenate(bufs), dt, sizes


class TestBatchBitIdentity:
    def test_same_target_batch_matches_n_scalar_gets(self):
        scalar = SimMPI(nprocs=2).run(_scalar_program)[0]
        batch = SimMPI(nprocs=2).run(_batch_program)[0]
        assert np.array_equal(scalar[0], batch[0])
        # Virtual time must be *bit*-identical, not merely close: every
        # element of the batch is priced through the same pipeline.
        assert scalar[1] == batch[1]
        assert batch[2] == [SLICE * 8] * N_OPS

    def test_multi_target_batch_matches_scalar(self):
        def prog(batched):
            def run(m):
                win = Window.allocate(m.comm_world, 4096)
                _fill(win, m.rank)
                m.comm_world.barrier()
                if m.rank != 0:
                    return None
                bufs = [np.empty(SLICE, np.int64) for _ in range(4)]
                reqs = [
                    (bufs[0], 1, 0),
                    (bufs[1], 2, 128),
                    (bufs[2], 1, 256),
                    (bufs[3], 2, 0),
                ]
                win.lock_all()
                t0 = m.time
                if batched:
                    win.get_batch(reqs)
                else:
                    for origin, target, disp in reqs:
                        win.get(origin, target, disp)
                win.flush_all()
                dt = m.time - t0
                win.unlock_all()
                return np.concatenate(bufs), dt

            return run

        scalar = SimMPI(nprocs=3).run(prog(False))[0]
        batch = SimMPI(nprocs=3).run(prog(True))[0]
        assert np.array_equal(scalar[0], batch[0])
        assert scalar[1] == batch[1]


class TestBatchTelemetry:
    def test_one_batched_event_instead_of_n(self):
        with obs.capture() as sink:
            SimMPI(nprocs=2).run(_batch_program)
        batch_events = sink.events(kind=RMA_GET_BATCH)
        assert len(batch_events) == 1
        assert sink.events(kind=RMA_GET) == []
        (ev,) = batch_events
        assert ev.attrs["count"] == N_OPS
        assert ev.attrs["nbytes"] == N_OPS * SLICE * 8
        # Every element carries its sanitizer footprint.
        assert len(ev.attrs["ops"]) == N_OPS
        for i, op in enumerate(ev.attrs["ops"]):
            assert op["target"] == 1
            assert op["base"] == i * SLICE * 8
            assert op["span"] == SLICE * 8
            assert "origin" in op and "onbytes" in op

    def test_scalar_gets_still_emit_per_op(self):
        with obs.capture() as sink:
            SimMPI(nprocs=2).run(_scalar_program)
        assert len(sink.events(kind=RMA_GET)) == N_OPS
        assert sink.events(kind=RMA_GET_BATCH) == []


def _cached_program(batched, rounds=2):
    def run(m):
        buf = (np.arange(512) + 1000 * m.rank).astype(np.int64)
        spec = CacheSpec.clampi_fixed(64, 16 * 1024)
        win = spec.make_window(m.comm_world, buf.view(np.uint8))
        m.comm_world.barrier()
        if m.rank != 0:
            return None
        out = []
        win.lock_all()
        t0 = m.time
        for _ in range(rounds):  # round 2 is served from cache
            bufs, reqs = _requests(peer=1)
            if batched:
                win.get_batch(reqs)
            else:
                for origin, target, disp in reqs:
                    win.get(origin, target, disp)
            win.flush(1)
            out.append(np.concatenate(bufs))
        dt = m.time - t0
        win.unlock_all()
        return np.vstack(out), dt

    return run


class TestCachedBatch:
    def test_cached_batch_bit_identical_to_scalar(self):
        scalar = SimMPI(nprocs=2).run(_cached_program(False))[0]
        batch = SimMPI(nprocs=2).run(_cached_program(True))[0]
        assert np.array_equal(scalar[0], batch[0])
        assert scalar[1] == batch[1]

    def test_cached_batch_telemetry_collapses(self):
        with obs.capture() as sink:
            SimMPI(nprocs=2).run(_cached_program(True))
        access_batches = sink.events(kind=CACHE_ACCESS_BATCH)
        # One accounting event per get_batch call (two rounds).
        assert len(access_batches) == 2
        assert sink.events(kind=CACHE_ACCESS) == []
        # Round 1 misses through the wrapped window as one net batch;
        # round 2 is served from cache — no second network batch.
        net_batches = sink.events(kind=RMA_GET_BATCH)
        assert len(net_batches) == 1
        assert net_batches[0].attrs["count"] == N_OPS
        first, second = access_batches
        # "direct" is the paper's label for a clean miss (no conflict or
        # capacity eviction on insert).
        assert [op["access"] for op in first.attrs["ops"]] == ["direct"] * N_OPS
        assert [op["access"] for op in second.attrs["ops"]] == [
            "hit_full"
        ] * N_OPS


class TestBatchEpochChecks:
    def test_batch_outside_epoch_raises(self):
        def prog(m):
            win = Window.allocate(m.comm_world, 4096)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            bufs, reqs = _requests(peer=1)
            with pytest.raises(EpochError):
                win.get_batch(reqs)
            return True

        assert SimMPI(nprocs=2).run(prog)[0] is True

    def test_batch_bad_rank_raises(self):
        def prog(m):
            win = Window.allocate(m.comm_world, 4096)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            win.lock_all()
            buf = np.empty(SLICE, np.int64)
            with pytest.raises(Exception):
                win.get_batch([(buf, 5, 0)])
            win.unlock_all()
            return True

        assert SimMPI(nprocs=2).run(prog)[0] is True


class TestIssueExtensionPoint:
    def test_issued_descriptor_matches_scalar_get(self):
        def prog(m):
            win = Window.allocate(m.comm_world, 4096)
            _fill(win, m.rank)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            a = np.empty(SLICE, np.int64)
            b = np.empty(SLICE, np.int64)
            win.lock_all()
            t0 = m.time
            win.get(a, 1, 0)
            win.flush(1)
            dt_scalar = m.time - t0
            t0 = m.time
            desc = describe_get(win, b, 1, 0, None, None)
            win.issue(desc)
            win.flush(1)
            dt_issue = m.time - t0
            win.unlock_all()
            fp = desc.footprint()
            return np.array_equal(a, b), dt_scalar == dt_issue, fp

        ok, same_time, fp = SimMPI(nprocs=2).run(prog)[0]
        assert ok and same_time
        assert fp["target"] == 1
        assert fp["base"] == 0
        assert fp["nbytes"] == SLICE * 8


class TestBindShape:
    """What ``build_*_pipeline`` binds (``benchmarks/perf`` reads ``.fused``)."""

    @staticmethod
    def _shapes(**world):
        def prog(m):
            win = Window.allocate(m.comm_world, 64)
            out = []
            for pipe in (
                win._data_pipe,
                win._sync_pipe,
                ops.build_data_pipeline(win),
                ops.build_sync_pipeline(win),
            ):
                out.append((pipe.fused, pipe.issue.__name__))
            return out

        return SimMPI(nprocs=2, **world).run(prog)[0]

    def test_fault_free_window_binds_the_bare_attempt(self):
        assert self._shapes() == [(True, "attempt")] * 4

    def test_empty_fault_plan_still_binds_the_wrapper(self):
        # An injector exists (its streams may be drawn), so the retry loop
        # must be in place even though no rule can ever fire.
        assert self._shapes(faults=FaultPlan()) == [(False, "guarded")] * 4

    def test_crash_plan_binds_the_wrapper(self):
        plan = FaultPlan.of(FaultRule("crash", ranks=(1,), t_start=1.0))
        assert self._shapes(faults=plan) == [(False, "guarded")] * 4

    def test_fused_is_read_only(self):
        def prog(m):
            win = Window.allocate(m.comm_world, 64)
            with pytest.raises(AttributeError):
                win._data_pipe.fused = False
            return True

        assert SimMPI(nprocs=2).run(prog)[0]
