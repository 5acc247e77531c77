"""Unit tests for simulated MPI-3 RMA windows: epochs, get/put, timing."""

import numpy as np
import pytest

from repro import obs
from repro.mpi import (
    BYTE,
    EpochError,
    Indexed,
    SimMPI,
    Vector,
    Window,
    WindowError,
)
from repro.runtime import RankFailedError


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


class TestCreation:
    def test_allocate_zero_initialised(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            return int(win.local_buffer.sum())

        results, _ = run(2, program)
        assert results == [0, 0]

    def test_create_over_existing_buffer(self):
        def program(m):
            buf = np.full(16, m.rank + 1, np.int32)
            win = Window.create(m.comm_world, buf)
            m.comm_world.barrier()
            win.lock(0)
            out = np.empty(16, np.int32)
            win.get(out, 0, 0)
            win.unlock(0)
            return out[0]

        results, _ = run(3, program)
        assert results == [1, 1, 1]

    def test_heterogeneous_sizes(self):
        def program(m):
            nbytes = 128 if m.rank == 0 else 0
            win = Window.allocate(m.comm_world, nbytes)
            return win.size_of(0), win.size_of(1)

        results, _ = run(2, program)
        assert results == [(128, 0), (128, 0)]

    def test_shared_win_id(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            return win.win_id

        results, _ = run(4, program)
        assert len(set(results)) == 1

    def test_info_per_rank(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8, info={"k": m.rank})
            return win.info["k"]

        results, _ = run(2, program)
        assert results == [0, 1]

    def test_negative_size_rejected(self):
        def program(m):
            Window.allocate(m.comm_world, -1)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_free_then_use_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.free()
            win.lock_all()

        with pytest.raises(RankFailedError) as ei:
            run(2, program)
        assert isinstance(ei.value.original, WindowError)


class TestEpochRules:
    def test_get_outside_epoch_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            buf = np.empty(8, np.uint8)
            win.get(buf, 0, 0)

        with pytest.raises(RankFailedError) as ei:
            run(1, program)
        assert isinstance(ei.value.original, EpochError)

    def test_lock_wrong_target_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.lock(0)
            buf = np.empty(4, np.uint8)
            win.get(buf, 1, 0)  # locked 0, targeting 1

        with pytest.raises(RankFailedError) as ei:
            run(2, program)
        assert isinstance(ei.value.original, EpochError)

    def test_double_lock_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.lock(0)
            win.lock(0)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_unlock_without_lock_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.unlock(0)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_unlock_wrong_rank_message_names_rank_and_state(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.lock(1)
            try:
                win.unlock(0)
            except EpochError as exc:
                msg = str(exc)
            else:
                msg = "no error"
            win.unlock(1)
            return msg

        results, _ = run(2, program)
        assert "unlock(0)" in results[0]
        assert "not locked by rank 0" in results[0]
        assert "locked ranks [1]" in results[0]

    def test_unlock_all_without_lock_all_message(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            try:
                win.unlock_all()
            except EpochError as exc:
                return str(exc)
            return "no error"

        results, _ = run(2, program)
        assert "unlock_all on rank 0" in results[0]
        assert "unlock_all on rank 1" in results[1]
        assert "no epoch open" in results[0]

    def test_flush_outside_epoch_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.flush(0)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_fence_inside_passive_epoch_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            win.lock_all()
            win.fence()

        with pytest.raises(RankFailedError):
            run(2, program)

    def test_epoch_counter_increments(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.lock_all()
            buf = np.empty(8, np.uint8)
            win.get(buf, 0, 0)
            win.flush(0)          # +1
            win.get(buf, 0, 0)
            win.flush_all()       # +1
            win.unlock_all()      # +1
            return win.eph

        results, _ = run(2, program)
        assert results == [3, 3]

    def test_epoch_close_hooks_fire(self):
        def program(m):
            win = Window.allocate(m.comm_world, 8)
            events = []
            win.add_epoch_close_hook(lambda w, t: events.append(t))
            win.lock(0)
            win.flush(0)
            win.unlock(0)
            return events

        results, _ = run(1, program)
        assert results[0] == [{0}, {0}]


class TestDataMovement:
    def test_put_then_get_roundtrip(self):
        def program(m):
            win = Window.allocate(m.comm_world, 256)
            win.lock_all()
            if m.rank == 0:
                data = np.arange(32, dtype=np.int64)
                win.put(data, 1, 0)
                win.flush(1)
            win.unlock_all()
            m.comm_world.barrier()
            win.lock_all()
            out = np.zeros(32, np.int64)
            win.get(out, 1, 0)
            win.flush(1)
            win.unlock_all()
            return out.tolist()

        results, _ = run(2, program)
        assert results[0] == list(range(32))
        assert results[1] == list(range(32))

    def test_disp_unit_scaling(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64, disp_unit=8)
            win.local_view(np.int64)[:] = np.arange(8) + 10 * m.rank
            m.comm_world.barrier()
            win.lock(1)
            out = np.empty(1, np.int64)
            win.get(out, 1, 3)  # element 3 of rank 1
            win.unlock(1)
            return int(out[0])

        results, _ = run(2, program)
        assert results == [13, 13]

    def test_strided_get_with_vector_type(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.local_view(np.int32)[:] = np.arange(16) + 100 * m.rank
            m.comm_world.barrier()
            win.lock(1)
            out = np.empty(3, np.int32)
            dt = Vector(3, 1, 4, __import__("repro.mpi", fromlist=["INT32"]).INT32)
            win.get(out, 1, 0, count=1, datatype=dt)
            win.unlock(1)
            return out.tolist()

        results, _ = run(2, program)
        assert results[0] == [100, 104, 108]

    def test_indexed_put_scatters(self):
        def program(m):
            win = Window.allocate(m.comm_world, 16)
            m.comm_world.barrier()
            if m.rank == 0:
                win.lock(1)
                dt = Indexed((2, 2), (0, 6), BYTE)
                win.put(np.array([1, 2, 3, 4], np.uint8), 1, 0, count=1, datatype=dt)
                win.unlock(1)
            m.comm_world.barrier()
            return win.local_buffer[:8].tolist()

        results, _ = run(2, program)
        assert results[1] == [1, 2, 0, 0, 0, 0, 3, 4]

    def test_out_of_bounds_get_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 16)
            win.lock_all()
            buf = np.empty(32, np.uint8)
            win.get(buf, 0, 0)

        with pytest.raises(RankFailedError) as ei:
            run(1, program)
        assert isinstance(ei.value.original, WindowError)

    def test_small_origin_buffer_rejected(self):
        def program(m):
            win = Window.allocate(m.comm_world, 64)
            win.lock_all()
            buf = np.empty(4, np.uint8)
            win.get(buf, 0, 0, count=16, datatype=BYTE)

        with pytest.raises(RankFailedError):
            run(1, program)

    def test_bytes_transferred_accounting(self):
        """Every get and put is one ``net.transfer`` event with its bytes."""

        def program(m):
            win = Window.allocate(m.comm_world, 128)
            win.lock_all()
            buf = np.empty(100, np.uint8)
            win.get(buf, 0, 0)
            win.put(buf[:28], 0, 100)
            win.unlock_all()

        with obs.capture() as ring:
            run(1, program)
        moved = [e.attrs["nbytes"] for e in ring.events(kind=obs.NET_TRANSFER)]
        assert moved == [100, 28]

    def test_bytes_by_distance_accounting(self):
        """``net.transfer`` names each transfer's Distance class."""
        from repro.net import Distance

        def program(m):
            win = Window.allocate(m.comm_world, 256)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            buf = np.empty(64, np.uint8)
            win.lock_all()
            win.get(buf, 0, 0)    # SELF
            win.get(buf, 1, 0)    # same node (2 ranks/node)
            win.get(buf[:32], 2, 0)  # different node, same chassis
            win.unlock_all()

        with obs.capture() as ring:
            run(4, program, ranks_per_node=2)
        by_dist: dict = {}
        for e in ring.events(kind=obs.NET_TRANSFER, rank=0):
            name = e.attrs["distance"]
            by_dist[name] = by_dist.get(name, 0) + e.attrs["nbytes"]
        assert by_dist == {
            Distance.SELF.name: 64,
            Distance.SAME_NODE.name: 64,
            Distance.SAME_CHASSIS.name: 32,
        }


class TestTiming:
    def test_remote_get_slower_than_local(self):
        def program(m):
            win = Window.allocate(m.comm_world, 4096)
            m.comm_world.barrier()
            win.lock_all()
            buf = np.empty(1024, np.uint8)
            t0 = m.time
            win.get(buf, m.rank, 0)
            win.flush(m.rank)
            local = m.time - t0
            t0 = m.time
            win.get(buf, (m.rank + 1) % m.size, 0)
            win.flush((m.rank + 1) % m.size)
            remote = m.time - t0
            win.unlock_all()
            return local, remote

        results, _ = run(2, program)
        for local, remote in results:
            assert remote > 3 * local

    def test_concurrent_gets_overlap_on_the_wire(self):
        """k gets in one epoch cost ~1 transfer + k injections, not k transfers."""

        def program(m, k):
            win = Window.allocate(m.comm_world, 1 << 16)
            m.comm_world.barrier()
            if m.rank == 1:
                return 0.0
            win.lock(1)
            bufs = [np.empty(4096, np.uint8) for _ in range(k)]
            t0 = m.time
            for i, b in enumerate(bufs):
                win.get(b, 1, i * 4096)
            win.flush(1)
            dt = m.time - t0
            win.unlock(1)
            return dt

        r1, _ = run(2, lambda m: program(m, 1))
        r8, _ = run(2, lambda m: program(m, 8))
        assert r8[0] < 3 * r1[0]

    def test_larger_transfers_take_longer(self):
        def program(m, size):
            win = Window.allocate(m.comm_world, 1 << 20)
            m.comm_world.barrier()
            if m.rank == 1:
                return 0.0
            win.lock(1)
            buf = np.empty(size, np.uint8)
            t0 = m.time
            win.get(buf, 1, 0)
            win.flush(1)
            dt = m.time - t0
            win.unlock(1)
            return dt

        small, _ = run(2, lambda m: program(m, 64))
        large, _ = run(2, lambda m: program(m, 1 << 19))
        assert large[0] > 2 * small[0]
