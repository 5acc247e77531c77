"""A simulated world runs on one CPU.

Only one rank thread of a :class:`SimWorld` is ever runnable, so
:meth:`SimWorld.run` narrows the calling thread to the CPU it is on before
it starts the rank threads (which inherit the mask) and restores the
caller's mask on every exit.  These tests pin the placement, the restore
and that placement never reaches the virtual clock or the dispatch order.
"""

import os
import threading

import pytest

from repro import recovery
from repro.runtime import scheduler
from repro.runtime.scheduler import DeadlockError, RankFailedError, SimWorld

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least 2 CPUs",
)


@pytest.fixture
def allowed():
    """The test thread's mask, put back whatever the test does to it."""
    mask = os.sched_getaffinity(0)
    yield mask
    os.sched_setaffinity(0, mask)


def rank_masks(world, program=None):
    """Run ``world`` and return the affinity mask each rank program saw."""

    def probe(proc):
        mask = os.sched_getaffinity(0)
        proc.sync()
        if program is not None:
            program(proc)
        return mask

    return world.run(probe)


def chatty_program(proc, rounds=6):
    """Unequal per-rank advances so the dispatch order actually varies."""
    for i in range(rounds):
        proc.advance(1e-6 * ((proc.rank * 7 + i * 3) % 5 + 1))
        proc.sync(payload=proc.rank)
    return proc.clock


class TestConfinement:
    def test_every_rank_runs_on_one_cpu_of_the_callers_mask(self, allowed):
        masks = rank_masks(SimWorld(4))
        assert len(masks[0]) == 1
        assert masks[0] <= allowed
        assert all(m == masks[0] for m in masks)

    def test_a_one_cpu_caller_stays_on_its_cpu(self, allowed):
        top = max(allowed)
        os.sched_setaffinity(0, {top})
        assert rank_masks(SimWorld(3)) == [{top}] * 3
        assert os.sched_getaffinity(0) == {top}

    def test_current_cpu_outside_the_mask_falls_back_to_the_lowest(
        self, allowed, monkeypatch
    ):
        monkeypatch.setattr(scheduler, "_current_cpu", lambda: max(allowed) + 1)
        assert rank_masks(SimWorld(2)) == [{min(allowed)}] * 2

    def test_affinity_error_leaves_the_mask_alone(self, allowed, monkeypatch):
        def refuse(pid, mask):
            raise OSError("not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert rank_masks(SimWorld(2)) == [allowed] * 2

    def test_nested_world_is_a_no_op(self, allowed):
        def outer(proc):
            inner = rank_masks(SimWorld(2))
            return os.sched_getaffinity(0), inner

        for mask, inner in SimWorld(2).run(outer):
            assert len(mask) == 1
            assert inner == [mask] * 2

    def test_current_cpu_parses_a_comm_with_spaces_and_parens(self, monkeypatch):
        fields = " ".join(["S"] + [str(i) for i in range(4, 39)] + ["1", "0"])
        stat = f"123 (a) (b c)) {fields}\n".encode()

        class FakeStat:
            def __init__(self, *args):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return stat

        monkeypatch.setattr(scheduler, "open", FakeStat, raising=False)
        assert scheduler._current_cpu() == 1


class TestMaskRestored:
    def test_after_a_normal_run(self, allowed):
        SimWorld(3).run(chatty_program)
        assert os.sched_getaffinity(0) == allowed

    def test_after_rank_failed_error(self, allowed):
        def faulty(proc):
            proc.sync()
            if proc.rank == 1:
                raise RuntimeError("boom")
            proc.sync()

        with pytest.raises(RankFailedError):
            SimWorld(3, join_timeout=10.0).run(faulty)
        assert os.sched_getaffinity(0) == allowed

    def test_after_deadlock_error(self, allowed):
        def uneven(proc):
            if proc.rank == 0:
                return None
            proc.sync()

        with pytest.raises(DeadlockError):
            SimWorld(2, join_timeout=10.0).run(uneven)
        assert os.sched_getaffinity(0) == allowed

    def test_after_a_crash_plan_run(self, allowed):
        def program(proc):
            for _ in range(4):
                proc.advance(1e-6)
                recovery.retrying(proc.sync)
            return proc.rank

        world = SimWorld(3, crashes={1: 2.5e-6}, join_timeout=10.0)
        assert world.run(program) == [0, None, 2]
        assert os.sched_getaffinity(0) == allowed

    def test_two_concurrent_worlds_restore_their_own_thread(self, allowed):
        both_inside = threading.Barrier(2, timeout=10.0)
        seen: dict[str, object] = {}

        def driver(name, mask):
            os.sched_setaffinity(0, mask)

            def meet(proc):
                if proc.rank == 0:
                    both_inside.wait()

            seen[name] = (rank_masks(SimWorld(2), meet), os.sched_getaffinity(0))

        wide, narrow = allowed, {max(allowed)}
        threads = [
            threading.Thread(target=driver, args=("wide", wide)),
            threading.Thread(target=driver, args=("narrow", narrow)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        wide_ranks, wide_after = seen["wide"]
        narrow_ranks, narrow_after = seen["narrow"]
        assert wide_after == wide
        assert narrow_after == narrow
        assert len(wide_ranks[0]) == 1 and wide_ranks[0] <= wide
        assert narrow_ranks == [narrow] * 2
        assert os.sched_getaffinity(0) == allowed


class TestPlacementIsInvisible:
    """Virtual time and dispatch order do not depend on where threads run."""

    def run_world(self, **kwargs):
        world = SimWorld(4, record_trace=True, **kwargs)
        world.run(chatty_program)
        return world.schedule_trace, world.clocks

    def both(self, allowed, **kwargs):
        confined = self.run_world(**kwargs)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            forced = self.run_world(**kwargs)
        finally:
            os.sched_setaffinity(0, allowed)
        return confined, forced

    def test_deterministic_world(self, allowed):
        confined, forced = self.both(allowed)
        assert len(confined[0]) > 4
        assert confined == forced

    def test_random_world(self, allowed):
        confined, forced = self.both(allowed, schedule="random", seed=7)
        assert confined == forced

    def test_trace_replay_world(self, allowed):
        recorded, _ = self.run_world(schedule="random", seed=11)
        confined, forced = self.both(allowed, schedule="trace", trace=recorded)
        assert confined == forced
        assert confined[0] == recorded
