"""Targeted scheduler wakeups.

Every rank thread sleeps on its own condition variable and the dispatcher
wakes exactly the rank it selected (smallest ``(clock, rank)`` READY
process).  These tests pin what single notifies must not break: the
``sched.switch`` trace — the exact ``(clock, rank)`` dispatch order — and
the final virtual clocks are reproducible run to run, and failure and
deadlock propagation still reach every sleeping thread.
"""

import pytest

from repro import obs
from repro.runtime.scheduler import DeadlockError, RankFailedError, SimWorld


def chatty_program(proc, rounds=6):
    """Unequal per-rank advances so the dispatch order actually varies."""
    for i in range(rounds):
        proc.advance(1e-6 * ((proc.rank * 7 + i * 3) % 5 + 1))
        proc.sync(payload=proc.rank)
    return proc.clock


def switch_trace(nprocs=4, schedule="deterministic", seed=0):
    world = SimWorld(nprocs, schedule=schedule, seed=seed)
    with obs.capture() as sink:
        world.run(chatty_program)
    trace = [
        (e.time, e.rank, e.attrs["from"])
        for e in sink.events(kind=obs.SCHED_SWITCH)
    ]
    return trace, world.clocks


class TestTraceIdentity:
    def test_deterministic_schedule_identical_switch_order(self):
        first, clocks_1 = switch_trace()
        second, clocks_2 = switch_trace()
        assert len(first) > 4  # the workload really does switch
        assert first == second
        assert clocks_1 == clocks_2

    def test_random_schedule_identical_switch_order(self):
        # Same seed -> same RNG draws -> same dispatch order.
        first, clocks_1 = switch_trace(schedule="random", seed=7)
        second, clocks_2 = switch_trace(schedule="random", seed=7)
        assert first == second
        assert clocks_1 == clocks_2

    def test_default_mode_is_targeted(self):
        world = SimWorld(2)
        assert world._rank_conds[0] is not world._rank_conds[1]
        assert world._cond not in world._rank_conds


class TestFailurePropagation:
    def test_rank_failure_unwinds_targeted_world(self):
        def faulty(proc):
            proc.sync()
            if proc.rank == 1:
                raise RuntimeError("boom")
            proc.sync()

        world = SimWorld(3, join_timeout=10.0)
        with pytest.raises(RankFailedError) as exc_info:
            world.run(faulty)
        assert exc_info.value.rank == 1

    def test_deadlock_detected_under_targeted_wakeups(self):
        def uneven(proc):
            if proc.rank == 0:
                return None  # finishes; rank 1's sync can never complete
            proc.sync()

        world = SimWorld(2, join_timeout=10.0)
        with pytest.raises(DeadlockError):
            world.run(uneven)
