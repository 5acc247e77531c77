"""Tests for generalised active-target sync (PSCW) and accumulate."""

import numpy as np
import pytest

from repro.mpi import EpochError, SimMPI, Window, WindowError
from repro.runtime import RankFailedError


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


class TestPSCW:
    def test_start_complete_get(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.local_view(np.int64)[:] = m.rank + 1
            m.comm_world.barrier()
            peer = (m.rank + 1) % m.size
            win.post([(m.rank - 1) % m.size])
            win.start([peer])
            buf = np.empty(8, np.int64)
            win.get(buf, peer, 0)
            win.complete()
            win.wait()
            return int(buf[0]), win.eph

        results, _ = run(3, program)
        for rank, (value, eph) in enumerate(results):
            assert value == (rank + 1) % 3 + 1
            assert eph == 1  # complete() closed one epoch

    def test_get_outside_group_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.start([1])
            buf = np.empty(8, np.uint8)
            win.get(buf, 2, 0)  # rank 2 is not in the access group

        with pytest.raises(RankFailedError) as ei:
            run(3, program)
        assert isinstance(ei.value.original, EpochError)

    def test_complete_without_start_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.complete()

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_start_inside_lock_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.lock_all()
            win.start([0])

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_fence_inside_pscw_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.start([0])
            win.fence()

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_lock_inside_pscw_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.start([0])
            win.lock(0)

        with pytest.raises(RankFailedError, match="lock inside a PSCW epoch"):
            run(1, program)

    def test_lock_all_inside_pscw_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.start([0])
            win.lock_all()

        with pytest.raises(RankFailedError, match="lock_all inside an existing"):
            run(1, program)

    def test_epoch_close_hooks_fire_on_complete(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            closed = []
            win.add_epoch_close_hook(lambda w, t: closed.append(t))
            win.start([0])
            win.complete()
            return closed

        results, _ = run(1, program)
        assert results[0] == [{0}]


class TestAccumulate:
    def test_sum(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            m.comm_world.barrier()
            win.lock(0)
            contrib = np.full(8, m.rank + 1, np.int64)
            win.accumulate(contrib, 0, 0, op="sum")
            win.unlock(0)
            m.comm_world.barrier()
            return win.local_view(np.int64).tolist() if m.rank == 0 else None

        results, _ = run(4, program)
        assert results[0] == [1 + 2 + 3 + 4] * 8

    def test_max_min(self):
        def program(m):
            win = Window.allocate(m.comm_world, 16)
            m.comm_world.barrier()
            win.lock(0)
            win.accumulate(np.array([m.rank], np.int64), 0, 0, op="max")
            win.accumulate(np.array([-m.rank], np.int64), 0, 8, op="min")
            win.unlock(0)
            m.comm_world.barrier()
            v = win.local_view(np.int64)
            return (int(v[0]), int(v[1])) if m.rank == 0 else None

        results, _ = run(4, program)
        assert results[0] == (3, -3)

    def test_replace(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            m.comm_world.barrier()
            if m.rank == 1:
                win.lock(0)
                win.accumulate(np.array([42], np.int64), 0, 0, op="replace")
                win.unlock(0)
            m.comm_world.barrier()
            return int(win.local_view(np.int64)[0]) if m.rank == 0 else None

        results, _ = run(2, program)
        assert results[0] == 42

    def test_float_sum(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            m.comm_world.barrier()
            win.lock(0)
            win.accumulate(np.array([0.5], np.float64), 0, 0, op="sum")
            win.unlock(0)
            m.comm_world.barrier()
            return float(win.local_view(np.float64)[0]) if m.rank == 0 else None

        results, _ = run(3, program)
        assert results[0] == pytest.approx(1.5)

    def test_unknown_op_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.lock(0)
            win.accumulate(np.array([1], np.int64), 0, 0, op="xor")

        with pytest.raises(RankFailedError) as ei:
            run(1, program)
        assert isinstance(ei.value.original, WindowError)

    def test_out_of_bounds_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.lock(0)
            win.accumulate(np.array([1, 2], np.int64), 0, 0)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_accumulate_charges_time(self):
        def program(m):
            win = Window.allocate(m.comm_world, 1 << 16)
            m.comm_world.barrier()
            if m.rank != 0:
                return 0.0
            win.lock(1)
            t0 = m.time
            win.accumulate(np.ones(4096, np.float64), 1, 0)
            win.flush(1)
            dt = m.time - t0
            win.unlock(1)
            return dt

        results, _ = run(2, program)
        assert results[0] > 1e-6  # paid a remote transfer
