"""Schedule-independence: programs must not depend on rank interleaving.

The random scheduling mode replaces the deterministic (clock, rank) pick
with a seeded-random choice among READY ranks.  Virtual times must be
unaffected (clocks are per-rank; collectives take the max), and the
applications must produce identical results under any interleaving.
"""

import numpy as np
import pytest

from repro.apps import LCCApp
from repro.apps.bfs import BFSApp
from repro.apps.cachespec import CacheSpec
from repro.mpi import SimMPI
from repro.net import PerfModel
from repro.runtime import SimWorld
from repro.util import MiB


class TestRuntimeMode:
    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            SimWorld(2, schedule="chaotic")

    def test_random_schedule_changes_interleaving(self):
        def program(p, log):
            for _ in range(5):
                p.sync()
                log.append(p.rank)

        def order(schedule, seed):
            log: list[int] = []
            SimWorld(4, schedule=schedule, seed=seed).run(program, log)
            return log

        det = order("deterministic", 0)
        randomised = [order("random", s) for s in range(6)]
        assert any(r != det for r in randomised), "random mode never deviated"

    def test_clocks_identical_across_schedules(self):
        def program(p):
            for i in range(4):
                p.advance(1e-6 * ((p.rank + i) % 3))
                p.sync(extra_time=1e-7)
            return p.clock

        base = SimWorld(4).run(program)
        for seed in range(4):
            rand = SimWorld(4, schedule="random", seed=seed).run(program)
            assert rand == base


class TestApplicationInvariance:
    def test_lcc_identical_under_random_schedules(self):
        app = LCCApp(scale=6, edge_factor=8, seed=2)
        base = app.run(3, CacheSpec.clampi_fixed(512, 1 * MiB))
        for seed in range(3):
            perf = PerfModel.spread(3)
            mpi_kwargs = dict(perf=perf)
            run = app.run(
                3,
                CacheSpec.clampi_fixed(512, 1 * MiB),
                perf=perf,
            )
            # direct re-run through a random-schedule SimMPI
            from repro.apps.lcc import _lcc_rank_program

            mpi = SimMPI(nprocs=3, perf=perf, schedule="random", schedule_seed=seed)
            src, dst = app._edges
            results = mpi.run(
                _lcc_rank_program,
                app.csr,
                src,
                dst,
                CacheSpec.clampi_fixed(512, 1 * MiB),
            )
            lcc = np.zeros(app.nvertices)
            for lo, hi, values, *_rest in results:
                lcc[lo:hi] = values
            assert np.array_equal(lcc, base.lcc), f"seed {seed}"
            assert max(r[3] for r in results) == pytest.approx(base.elapsed)

    def test_bfs_identical_under_random_schedules(self):
        from repro.apps.bfs import _bfs_rank_program

        app = BFSApp(scale=6, edge_factor=8, seed=2)
        base = app.run(3, [0, 9], CacheSpec.fompi())
        src, dst = app._edges
        for seed in range(3):
            mpi = SimMPI(
                nprocs=3,
                perf=PerfModel.spread(3),
                schedule="random",
                schedule_seed=seed,
            )
            results = mpi.run(
                _bfs_rank_program, app.csr, src, dst, [0, 9], CacheSpec.fompi()
            )
            assert np.array_equal(results[0][0], base.distances), f"seed {seed}"


class TestCrashScheduleInvariance:
    """Crash-stop runs must also be schedule-independent.

    A planned crash fires at a *virtual* time, so which program point it
    hits is fixed by the clocks, not by dispatch order: the surviving
    forces, the per-rank virtual clocks and the crashed set must be
    bit-identical under every interleaving (this pins the
    barrier-atomicity rule — a sync that committed before the crash
    completes for every participant under any dispatch order).
    """

    def test_barnes_hut_with_crash_identical_across_schedules(self):
        from repro import clampi
        from repro.apps import BarnesHutApp
        from repro.apps.barnes_hut import _bh_rank_program
        from repro.faults import FaultPlan, FaultRule

        app = BarnesHutApp(nbodies=96, seed=11, theta=0.6)
        spec = CacheSpec.clampi_fixed(256, 1 * MiB)
        if spec.kind.value == "clampi":
            spec = spec.with_mode(clampi.Mode.USER_DEFINED)
        nprocs = 3
        perf = PerfModel.spread(nprocs)

        def run(schedule: str, seed: int, faults):
            mpi = SimMPI(
                nprocs=nprocs,
                perf=perf,
                faults=faults,
                schedule=schedule,
                schedule_seed=seed,
            )
            results = mpi.run(
                _bh_rank_program, app.tree, app.pos, app.mass, app.theta,
                spec, 1e-3, app.visits(1e-3),
            )
            forces = [None if r is None else r[2].copy() for r in results]
            return forces, list(mpi.clocks), mpi.crashed, mpi.elapsed

        # reference (no faults) fixes the makespan the crash time scales from
        _, _, _, makespan = run("deterministic", 0, None)

        def crash_plan():
            return FaultPlan.of(
                FaultRule(
                    "crash",
                    probability=1.0,
                    ranks=(nprocs - 1,),
                    t_start=0.45 * makespan,
                ),
                seed=5,
            )

        base_forces, base_clocks, base_crashed, _ = run(
            "deterministic", 0, crash_plan()
        )
        assert base_crashed == {nprocs - 1}
        assert base_forces[nprocs - 1] is None
        assert any(f is not None for f in base_forces[:-1])

        for seed in range(4):
            forces, clocks, crashed, _ = run("random", seed, crash_plan())
            assert crashed == base_crashed, f"seed {seed}"
            assert clocks == base_clocks, f"seed {seed}"
            for r, (got, want) in enumerate(zip(forces, base_forces)):
                if want is None:
                    assert got is None, f"seed {seed} rank {r}"
                else:
                    assert np.array_equal(got, want), f"seed {seed} rank {r}"
