"""White-box tests for rarely-taken paths: conflict fallbacks, pending-only
conflicts, fence through the cache, freeing, CLI entry points."""

import numpy as np
import pytest

from repro import clampi
from repro.mpi import SimMPI
from repro.util import KiB


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


class TestConflictFallbacks:
    def test_conflict_with_all_pending_path(self):
        """A cuckoo cycle whose insertion path holds only PENDING entries:
        nothing is evictable, the homeless entry is dropped, yet data stays
        correct and the structures stay consistent."""

        def program(m):
            cfg = clampi.Config(
                index_entries=4, num_hashes=2, max_insert_iterations=4,
                storage_bytes=64 * KiB,
            )
            win = clampi.window_allocate(
                m.comm_world, 64 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
            )
            win.local_view(np.uint8)[:] = (np.arange(64 * KiB) % 251).astype(np.uint8)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            expected = (np.arange(64 * KiB) % 251).astype(np.uint8)
            win.lock_all()
            bufs = []
            # issue many gets in ONE epoch: every inserted entry stays
            # PENDING, so conflict eviction has no CACHED victim
            for i in range(40):
                buf = np.empty(64, np.uint8)
                win.get(buf, 1, i * 64)
                bufs.append((i, buf))
            win.flush(1)
            win.check_invariants()
            for i, buf in bufs:
                assert np.array_equal(buf, expected[i * 64 : i * 64 + 64]), i
            win.unlock_all()
            return win.stats.snapshot()

        results, _ = run(2, program)
        s = results[0]
        assert s["gets"] == 40
        # with 4 slots, most inserts fail without an evictable victim
        assert s["failing"] > 0

    def test_single_slot_index(self):
        def program(m):
            cfg = clampi.Config(index_entries=1, storage_bytes=64 * KiB)
            win = clampi.window_allocate(
                m.comm_world, 16 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
            )
            win.local_view(np.uint8)[:] = (np.arange(16 * KiB) % 251).astype(np.uint8)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            expected = (np.arange(16 * KiB) % 251).astype(np.uint8)
            win.lock_all()
            buf = np.empty(64, np.uint8)
            for i in range(20):
                win.get_blocking(buf, 1, (i % 5) * 64)
                assert np.array_equal(buf, expected[(i % 5) * 64 :][:64])
            win.check_invariants()
            win.unlock_all()
            return win.stats.snapshot()

        results, _ = run(2, program)
        assert results[0]["gets"] == 20


class TestMoreCacheSemantics:
    def test_fence_closes_epoch_through_cache(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world, 1024, mode=clampi.Mode.TRANSPARENT
            )
            win.local_view(np.uint8)[:] = m.rank + 1
            m.comm_world.barrier()
            win.fence()
            buf = np.empty(64, np.uint8)
            peer = (m.rank + 1) % m.size
            # active-target epoch: get between fences
            win.raw.lock_all()  # simulate access epoch via passive for gets
            win.get_blocking(buf, peer, 0)
            win.unlock_all()
            assert np.all(buf == peer + 1)
            return win.eph

        results, _ = run(2, program)
        assert all(e >= 2 for e in results)

    def test_free_through_cache(self):
        from repro.mpi import WindowError
        from repro.runtime import RankFailedError

        def program(m):
            win = clampi.window_allocate(m.comm_world, 256)
            win.free()
            win.lock_all()  # must fail: window freed

        with pytest.raises(RankFailedError) as ei:
            run(2, program)
        assert isinstance(ei.value.original, WindowError)

    def test_partial_hit_when_storage_cannot_extend(self):
        """Extension fails (storage full): the old smaller entry survives
        and keeps serving; the bigger get is still correct."""

        def program(m):
            cfg = clampi.Config(index_entries=64, storage_bytes=1 * KiB)
            win = clampi.window_allocate(
                m.comm_world, 16 * KiB, mode=clampi.Mode.ALWAYS_CACHE, config=cfg
            )
            win.local_view(np.uint8)[:] = (np.arange(16 * KiB) % 251).astype(np.uint8)
            m.comm_world.barrier()
            if m.rank != 0:
                return None
            expected = (np.arange(16 * KiB) % 251).astype(np.uint8)
            small = np.empty(512, np.uint8)
            big = np.empty(8 * KiB, np.uint8)  # larger than all of S_w
            win.lock_all()
            win.get_blocking(small, 1, 0)
            win.get_blocking(big, 1, 0)  # partial hit, extension impossible
            assert np.array_equal(big, expected[: 8 * KiB])
            win.get_blocking(small, 1, 0)  # old entry still serves
            assert np.array_equal(small, expected[:512])
            win.check_invariants()
            win.unlock_all()
            return win.stats.snapshot()

        results, _ = run(2, program)
        s = results[0]
        assert s["hit_partial"] == 1
        assert s["hit_full"] == 1


class TestStatsHelpers:
    def test_subcommunicators_rejected(self):
        from repro.mpi.comm import Communicator
        from repro.runtime import RankFailedError

        def program(m):
            Communicator(m.proc, m.perf, ranks=[0])

        with pytest.raises(RankFailedError):
            run(2, program)


class TestCLIs:
    def test_apps_cli_lcc(self, capsys):
        from repro.apps.__main__ import main

        rc = main(["lcc", "--scale", "6", "--procs", "2", "--cache", "clampi"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hit ratio" in out

    def test_apps_cli_bh_none(self, capsys):
        from repro.apps.__main__ import main

        rc = main(["bh", "--bodies", "64", "--procs", "2", "--cache", "none"])
        assert rc == 0
        assert "time/body" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["lcc", "--scale", "6", "--procs", "2", "--cache", "clampi", "--trace"],
            ["bh", "--bodies", "64", "--procs", "2", "--cache", "none", "--trace"],
        ],
        ids=["lcc", "bh"],
    )
    def test_apps_cli_stream_trace(self, capsys, argv):
        """``lcc`` and ``bh`` read their stream producers: the same summary
        as a capture of a plain run."""
        from repro.apps import BarnesHutApp, LCCApp
        from repro.apps.__main__ import _trace_summary, main
        from repro.trace import capture

        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "advisor recommendation" in out
        app = LCCApp(scale=6, seed=1) if argv[0] == "lcc" else BarnesHutApp(64, seed=1)
        with capture(2) as streams:
            app.run(2)
        _trace_summary(streams)
        assert out.endswith(capsys.readouterr().out)

    def test_apps_cli_bfs_trace(self, capsys):
        from repro.apps.__main__ import main

        rc = main(
            ["bfs", "--scale", "6", "--procs", "2", "--cache", "adaptive", "--trace"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "advisor recommendation" in out

    def test_bench_cli_unknown_figure(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig99"])
