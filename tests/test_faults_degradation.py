"""Graceful cache degradation: storage faults, quarantine, probe re-enable.

Contract (docs/resilience.md): injected ``StorageFault``s never reach the
application — the access is served from the network; a streak of them
quarantines the cache (all gets direct) until a probe window of degraded
gets has passed, after which caching resumes.
"""

import numpy as np
import pytest

from repro import clampi, obs
from repro.core.config import Config
from repro.faults import FaultPlan, FaultRule
from repro.mpi import SimMPI

CFG = Config(
    mode=clampi.Mode.ALWAYS_CACHE,
    quarantine_threshold=2,
    quarantine_probe_interval=4,
)

#: Guaranteed allocation failures only inside an early virtual-time window,
#: so each run passes through pressure and then recovery.
PRESSURE = FaultPlan.of(
    FaultRule("alloc", probability=1.0, t_end=2e-4), seed=3
)


def _reuse_program(mpi, rounds=40, config=CFG):
    comm = mpi.comm_world
    win = clampi.window_allocate(comm, 1024, config=config)
    win.local_view(np.float64)[:] = np.arange(128) + 1000.0 * mpi.rank
    comm.barrier()
    peer = (mpi.rank + 1) % mpi.size
    buf = np.empty(16)
    out = []
    with win.lock_all_epoch():
        for i in range(rounds):
            win.get(buf, peer, (i % 8) * 16 * 8)
            win.flush(peer)
            out.append(buf.copy())
    win.check_invariants()
    return np.vstack(out), clampi.stats(win).snapshot(), clampi.degraded(win)


class TestQuarantine:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            Config(quarantine_threshold=0)
        with pytest.raises(ValueError):
            Config(quarantine_probe_interval=0)

    def test_storage_faults_never_reach_the_application(self):
        clean = SimMPI(nprocs=2).run(_reuse_program)
        faulty = SimMPI(nprocs=2, faults=PRESSURE).run(_reuse_program)
        for (a, _, _), (b, _, _) in zip(clean, faulty):
            assert np.array_equal(a, b)

    def test_streak_quarantines_and_probe_reenables(self):
        results = SimMPI(nprocs=2, faults=PRESSURE).run(_reuse_program)
        for _, snap, degraded_at_end in results:
            assert snap["storage_faults"] >= CFG.quarantine_threshold
            assert snap["quarantines"] >= 1
            assert snap["degraded_gets"] >= CFG.quarantine_probe_interval
            # The pressure window closed long before the program ended,
            # so the final probe must have re-enabled the cache.
            assert not degraded_at_end
            # Post-recovery accesses were cached again.
            assert snap["hit_full"] > 0

    def test_quarantine_emits_degraded_events(self):
        with obs.capture() as sink:
            SimMPI(nprocs=2, faults=PRESSURE).run(_reuse_program)
        events = sink.events(kind=obs.CACHE_DEGRADED)
        states = [e.attrs["state"] for e in events]
        assert "quarantined" in states
        assert "re-enabled" in states
        entered = [e for e in events if e.attrs["state"] == "quarantined"]
        assert all(
            e.attrs["probe_in"] == CFG.quarantine_probe_interval for e in entered
        )

    def test_sporadic_faults_below_threshold_never_quarantine(self):
        """Isolated allocation faults degrade one access, not the cache."""
        sporadic = FaultPlan.of(FaultRule("alloc", probability=0.05), seed=8)
        cfg = Config(mode=clampi.Mode.ALWAYS_CACHE, quarantine_threshold=10)
        results = SimMPI(nprocs=2, faults=sporadic).run(
            _reuse_program, config=cfg
        )
        for _, snap, degraded in results:
            assert snap["quarantines"] == 0
            assert snap["degraded_gets"] == 0
            assert not degraded

    def test_deterministic_degradation(self):
        a = SimMPI(nprocs=2, faults=PRESSURE).run(_reuse_program)
        b = SimMPI(nprocs=2, faults=PRESSURE).run(_reuse_program)
        for (xa, sa, da), (xb, sb, db) in zip(a, b):
            assert np.array_equal(xa, xb)
            assert sa == sb and da == db

    def test_degraded_gets_classified_failing(self):
        results = SimMPI(nprocs=2, faults=PRESSURE).run(_reuse_program)
        for _, snap, _ in results:
            assert snap["failing"] >= snap["degraded_gets"]


class TestCrashVsDegradation:
    """Crash-stop failures must not pollute the transient-fault machinery.

    A get refused because its target crashed is not a storage fault: it
    must not advance the quarantine streak, trip a quarantine, or mark
    the cache degraded — it is counted separately (``failed_target_gets``).
    """

    def test_failed_target_gets_leave_quarantine_state_untouched(self):
        from repro import recovery
        from repro.mpi.errors import TargetFailedError

        crash = FaultPlan.of(
            FaultRule("crash", probability=1.0, ranks=(1,), t_start=1e-2),
            seed=5,
        )
        cfg = Config(
            mode=clampi.Mode.ALWAYS_CACHE,
            quarantine_threshold=2,  # trigger-happy on purpose
            recovery="invalidate",
        )

        def program(mpi):
            win = clampi.window_allocate(mpi.comm_world, 1024, config=cfg)
            recovery.barrier(mpi.comm_world)
            if mpi.rank == 1:
                mpi.compute(1.0)  # dies at t=1e-2
                return None
            mpi.compute(2e-2)
            buf = np.empty(16)
            win.lock_all()
            # Far past quarantine_threshold: every one refused, none of
            # them may count as a storage-fault streak.
            for _ in range(8):
                with pytest.raises(TargetFailedError):
                    win.get(buf, 1, 0)
            win.unlock_all()
            snap = clampi.stats(win).snapshot()
            assert snap["failed_target_gets"] == 8
            assert snap["storage_faults"] == 0
            assert snap["quarantines"] == 0
            assert win.engine.fault_streak == 0
            assert not clampi.degraded(win)
            return True

        results = SimMPI(nprocs=3, faults=crash).run(program)
        assert results == [True, None, True]
