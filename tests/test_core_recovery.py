"""Epoch-consistent cache recovery after crash-stop failures.

The crash check of ``CachedWindow._serve`` (docs/resilience.md) reacts to an
observed rank death under one of two modes: ``invalidate`` drops the dead rank's
entries (gets then fail with ``TargetFailedError``), ``serve-stale`` pins
epoch-consistent entries read-only so the data stays servable from cache.
Pinned entries are never eviction victims and survive TRANSPARENT
epoch-close invalidation; explicit ``clampi.invalidate`` still drops them.
"""

import numpy as np
import pytest

from repro import clampi, recovery
from repro.faults import FaultPlan, FaultRule
from repro.mpi.errors import TargetFailedError
from repro.mpi.simmpi import SimMPI

VICTIM = 1
DEATH = 1e-2


def _crash_plan() -> FaultPlan:
    return FaultPlan.of(
        FaultRule("crash", probability=1.0, ranks=(VICTIM,), t_start=DEATH),
        seed=3,
    )


def _fill_and_die(mpi, win):
    """Victim half of every program: expose data, then die mid-epoch."""
    win.local_view(np.float64)[:] = 7.25
    recovery.barrier(mpi.comm_world)
    mpi.compute(1.0)  # dies at t=DEATH on the way


def _run(program, nprocs=3):
    return SimMPI(nprocs=nprocs, faults=_crash_plan()).run(program)


class TestServeStale:
    def test_pinned_entries_keep_serving(self):
        def program(mpi):
            cfg = clampi.Config(
                index_entries=32,
                storage_bytes=4096,
                mode=clampi.Mode.ALWAYS_CACHE,
                recovery="serve-stale",
            )
            win = clampi.window_allocate(mpi.comm_world, 64, config=cfg)
            if mpi.rank == VICTIM:
                _fill_and_die(mpi, win)
                return None
            win.local_view(np.float64)[:] = float(mpi.rank)
            recovery.barrier(mpi.comm_world)
            buf = np.zeros(4)
            win.lock_all()
            win.get(buf, VICTIM, 0)  # cached pre-crash
            win.flush(VICTIM)
            pre = buf.copy()
            mpi.compute(2e-2)  # move causally past the death
            buf[:] = 0.0
            win.get(buf, VICTIM, 0)  # served from the pinned entry
            win.flush(VICTIM)
            win.unlock_all()
            assert np.array_equal(buf, pre)
            assert np.all(buf == 7.25)
            return clampi.stats(win).snapshot()

        for snap in filter(None, _run(program)):
            assert snap["rank_failures"] == 1
            assert snap["recovery_pinned"] == 1
            assert snap["recovered_gets"] == 1
            assert snap["failed_target_gets"] == 0
            assert snap["recovery_dropped"] == 0

    def test_uncached_range_still_fails(self):
        """serve-stale only serves what was cached at the death."""

        def program(mpi):
            cfg = clampi.Config(
                index_entries=32,
                storage_bytes=4096,
                mode=clampi.Mode.ALWAYS_CACHE,
                recovery="serve-stale",
            )
            win = clampi.window_allocate(mpi.comm_world, 64, config=cfg)
            if mpi.rank == VICTIM:
                _fill_and_die(mpi, win)
                return None
            recovery.barrier(mpi.comm_world)
            win.lock_all()
            mpi.compute(2e-2)
            buf = np.zeros(4)
            with pytest.raises(TargetFailedError):
                win.get(buf, VICTIM, 0)  # never cached: unrecoverable
            win.unlock_all()
            snap = clampi.stats(win).snapshot()
            assert snap["failed_target_gets"] == 1
            assert snap["recovered_gets"] == 0
            return True

        assert _run(program) == [True, None, True]

    def test_pinned_survive_transparent_epoch_close(self):
        def program(mpi):
            cfg = clampi.Config(
                index_entries=32,
                storage_bytes=4096,
                mode=clampi.Mode.TRANSPARENT,
                recovery="serve-stale",
            )
            win = clampi.window_allocate(mpi.comm_world, 64, config=cfg)
            if mpi.rank == VICTIM:
                _fill_and_die(mpi, win)
                return None
            recovery.barrier(mpi.comm_world)
            buf = np.zeros(4)
            win.lock_all()
            # No flush before the death: in TRANSPARENT mode a flush(T)
            # closes T's consistency epoch and invalidates its entries, so
            # only the *open* epoch's entry is epoch-consistent at the
            # crash — exactly what serve-stale pins.
            win.get(buf, VICTIM, 0)  # PENDING entry
            mpi.compute(2e-2)
            buf2 = np.zeros(4)
            win.get(buf2, VICTIM, 0)  # pinned + recovered while pending
            win.unlock_all()  # close: pinned pending materialises, survives
            win.lock_all()
            buf3 = np.zeros(4)
            win.get(buf3, VICTIM, 0)  # still served in the next epoch
            win.flush(VICTIM)  # close T's epoch again: the pin is spared
            buf4 = np.zeros(4)
            win.get(buf4, VICTIM, 0)
            win.unlock_all()
            for b in (buf, buf2, buf3, buf4):
                assert np.all(b == 7.25)
            snap = clampi.stats(win).snapshot()
            assert snap["recovered_gets"] == 3
            assert snap["failed_target_gets"] == 0
            assert snap["recovery_pinned"] == 1
            return True

        assert _run(program) == [True, None, True]

    def test_pinned_never_eviction_victims(self):
        """Capacity pressure must evict around pinned entries."""

        def program(mpi):
            cfg = clampi.Config(
                index_entries=8,
                storage_bytes=256,  # tight: lots of evictions below
                mode=clampi.Mode.ALWAYS_CACHE,
                recovery="serve-stale",
            )
            win = clampi.window_allocate(mpi.comm_world, 512, config=cfg)
            if mpi.rank == VICTIM:
                _fill_and_die(mpi, win)
                return None
            peer = 2 if mpi.rank == 0 else 0
            recovery.barrier(mpi.comm_world)
            buf = np.zeros(4)
            win.lock_all()
            win.get(buf, VICTIM, 0)
            win.flush(VICTIM)
            mpi.compute(2e-2)
            # Hammer distinct ranges of a live peer: far beyond capacity,
            # so victims are selected over and over.
            big = np.zeros(8)
            for disp in range(0, 448, 64):
                win.get(big, peer, disp)
                win.flush(peer)
            buf[:] = 0.0
            win.get(buf, VICTIM, 0)  # the pin outlived the pressure
            win.flush(VICTIM)
            win.unlock_all()
            assert np.all(buf == 7.25)
            snap = clampi.stats(win).snapshot()
            assert snap["evictions"] > 0
            assert snap["recovered_gets"] == 1
            return True

        assert _run(program) == [True, None, True]

    def test_explicit_invalidate_drops_pinned(self):
        def program(mpi):
            cfg = clampi.Config(
                index_entries=32,
                storage_bytes=4096,
                mode=clampi.Mode.ALWAYS_CACHE,
                recovery="serve-stale",
            )
            win = clampi.window_allocate(mpi.comm_world, 64, config=cfg)
            if mpi.rank == VICTIM:
                _fill_and_die(mpi, win)
                return None
            recovery.barrier(mpi.comm_world)
            buf = np.zeros(4)
            win.lock_all()
            win.get(buf, VICTIM, 0)
            win.flush(VICTIM)
            mpi.compute(2e-2)
            win.get(buf, VICTIM, 0)  # recovered once
            win.flush(VICTIM)
            clampi.invalidate(win)  # user said drop everything: pins too
            with pytest.raises(TargetFailedError):
                win.get(buf, VICTIM, 0)
            win.unlock_all()
            return True

        assert _run(program) == [True, None, True]


class TestInvalidateMode:
    def test_entries_dropped_and_gets_fail(self):
        def program(mpi):
            cfg = clampi.Config(
                index_entries=32,
                storage_bytes=4096,
                mode=clampi.Mode.ALWAYS_CACHE,
                recovery="invalidate",
            )
            win = clampi.window_allocate(mpi.comm_world, 64, config=cfg)
            if mpi.rank == VICTIM:
                _fill_and_die(mpi, win)
                return None
            recovery.barrier(mpi.comm_world)
            buf = np.zeros(4)
            win.lock_all()
            win.get(buf, VICTIM, 0)
            win.flush(VICTIM)
            mpi.compute(2e-2)
            with pytest.raises(TargetFailedError):
                win.get(buf, VICTIM, 0)  # the cached copy was dropped
            win.unlock_all()
            return clampi.stats(win).snapshot()

        for snap in filter(None, _run(program)):
            assert snap["rank_failures"] == 1
            assert snap["recovery_dropped"] == 1
            assert snap["recovery_pinned"] == 0
            assert snap["failed_target_gets"] == 1
            assert snap["recovered_gets"] == 0


class TestConfigChannels:
    def test_schema_v4_counters_present(self):
        def program(mpi):
            win = clampi.window_allocate(mpi.comm_world, 64)
            return clampi.stats(win).snapshot()

        snap = SimMPI(nprocs=2).run(program)[0]
        assert snap["schema_version"] == 4
        for key in (
            "rank_failures",
            "failed_target_gets",
            "recovered_gets",
            "recovery_pinned",
            "recovery_dropped",
        ):
            assert snap[key] == 0

    def test_default_mode_is_invalidate(self):
        assert clampi.Config(index_entries=8, storage_bytes=512).recovery == (
            "invalidate"
        )

    def test_recovery_kwarg_and_info_channels(self):
        def program(mpi):
            by_kwarg = clampi.window_allocate(
                mpi.comm_world, 64, recovery="serve-stale"
            )
            by_info = clampi.window_allocate(
                mpi.comm_world, 64, info={clampi.INFO_RECOVERY_KEY: "serve-stale"}
            )
            # info wins over the kwarg, mirroring mode/policy resolution
            both = clampi.window_allocate(
                mpi.comm_world,
                64,
                recovery="serve-stale",
                info={clampi.INFO_RECOVERY_KEY: "invalidate"},
            )
            return (
                by_kwarg.recovery_mode,
                by_info.recovery_mode,
                both.recovery_mode,
            )

        results = SimMPI(nprocs=2).run(program)
        assert results[0] == ("serve-stale", "serve-stale", "invalidate")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="recovery"):
            clampi.Config(index_entries=8, storage_bytes=512, recovery="undo")


class TestDyingRank:
    """The victim's own cache while its stack unwinds (PR 11 finding 1)."""

    def test_unwinding_unlock_leaves_the_victims_cache_alone(self):
        """``finally: unlock_all()`` on the dying rank must not run the
        cache's epoch-close work: the crash may have interrupted a
        mutation half-way, and nobody reads a dead rank's cache."""
        victims_window = []

        def program(mpi):
            cfg = clampi.Config(
                index_entries=32, storage_bytes=4096, mode=clampi.Mode.ALWAYS_CACHE
            )
            win = clampi.window_allocate(mpi.comm_world, 64, config=cfg)
            recovery.barrier(mpi.comm_world)
            if mpi.rank != VICTIM:
                return None
            victims_window.append(win)
            win.lock_all()
            try:
                win.get(np.zeros(4), 0, 0)  # leaves a PENDING entry
                mpi.compute(1.0)  # dies at t=DEATH on the way
            finally:
                win.unlock_all()

        results = _run(program)
        assert results[VICTIM] is None  # died, did not fail
        (win,) = victims_window
        assert len(win.engine.pending) == 1  # not materialised by the dead rank
        assert clampi.stats(win).snapshot()["rank_failures"] == 0

    def test_crash_while_releasing_storage_is_not_a_double_free(self):
        """Fuzz seed 17: the victim died inside ``_release_storage`` (after
        the storage release, before the descriptor was detached) and its
        unwinding ``unlock_all`` released the same descriptor again,
        masking the crash as a ``RankFailedError``."""
        from repro.verify import generate, run_matrix
        from repro.verify.oracle import MatrixConfig

        spec = generate(17, nprocs=4, n_phases=3, ops_per_rank=(6, 6))
        config = MatrixConfig(
            policies=("tinylfu",),
            include_plain=False,
            include_block=False,
            fault_kinds=("crash",),
            random_seeds=(),
        )
        report = run_matrix(spec, config)
        assert report.ok, report.describe()
