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
from repro.runtime.scheduler import (
    DeadlockError,
    RankFailedError,
    RankRevokedError,
    SimWorld,
)


def chatty_program(proc, rounds=6):
    """Unequal per-rank advances so the dispatch order actually varies."""
    for i in range(rounds):
        proc.advance(1e-6 * ((proc.rank * 7 + i * 3) % 5 + 1))
        proc.sync(payload=proc.rank)
    return proc.clock


def switch_trace(nprocs=4, schedule="deterministic", seed=0, **world_kwargs):
    world = SimWorld(nprocs, schedule=schedule, seed=seed, **world_kwargs)
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

    def test_trace_schedule_replays_the_recorded_switch_order(self):
        world = SimWorld(4, schedule="random", seed=7, record_trace=True)
        world.run(chatty_program)
        recorded, clocks_1 = switch_trace(schedule="random", seed=7)
        replayed, clocks_2 = switch_trace(
            schedule="trace", trace=world.schedule_trace
        )
        assert replayed == recorded
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


class TestOneWakeupPerDispatch:
    """A rank is woken because it was dispatched, and for nothing else."""

    def test_sync_round_costs_one_wakeup_per_rank(self):
        nprocs = 4
        world = SimWorld(nprocs, join_timeout=10.0)
        wakeups = [0]  # bumped with the world lock held (wait re-acquires it)

        def counting(wait):
            def counted(timeout=None):
                woke = wait(timeout)
                wakeups[0] += 1
                return woke

            return counted

        for cond in world._rank_conds:
            cond.wait = counting(cond.wait)

        def read():
            with world._lock:
                return wakeups[0]

        def program(proc):
            proc.sync()  # start-up: threads race to their first park
            marks = []
            for _ in range(3):
                # Rank 0 is dispatched first after every commit (equal
                # clocks), while ranks 1..P-1 are parked READY: from here
                # to the same point one round later each rank is woken
                # exactly once — by its dispatch, not by the commit.
                if proc.rank == 0:
                    marks.append(read())
                proc.sync()
            if proc.rank == 0:
                marks.append(read())
            return marks

        marks = world.run(program)[0]
        assert [b - a for a, b in zip(marks, marks[1:])] == [nprocs] * 3

    def test_committed_sync_survives_a_later_crash(self):
        # All three ranks commit sync #1 at clock 0; rank 0 resumes first
        # and dies before ranks 1 and 2 were re-dispatched.  Their sync
        # committed, so it must return its payloads; the revocation
        # surfaces at their *next* sync, exactly once.
        def program(proc):
            got = proc.sync(payload=f"p{proc.rank}")
            proc.advance(1e-6)  # rank 0 dies here (crash time 5e-7)
            with pytest.raises(RankRevokedError) as exc_info:
                proc.sync()
            assert exc_info.value.crashed == frozenset({0})
            after = proc.sync(payload=proc.rank)  # survivors only
            return got, after

        world = SimWorld(3, crashes={0: 5e-7}, join_timeout=10.0)
        results = world.run(program)
        assert results[0] is None
        for r in (1, 2):
            assert results[r] == (["p0", "p1", "p2"], [None, 1, 2])


class TestSelfDispatchCostsNoWait:
    """A rank the dispatcher picks again never sleeps (ROADMAP 4(2)).

    ``_park_locked``'s ``wait_for`` checks its predicate before waiting,
    so when a sync's last arriver is itself the next rank dispatched it
    returns without calling ``Condition.wait``: that sync costs P-1 waits,
    not P, with no separate elision path.
    """

    @staticmethod
    def count_waits(world):
        calls = [0]  # bumped with the world lock held (wait is called under it)

        def counting(wait):
            def counted(timeout=None):
                calls[0] += 1
                return wait(timeout)

            return counted

        for cond in world._rank_conds:
            cond.wait = counting(cond.wait)

        def read():
            with world._lock:
                return calls[0]

        return read

    def waits_per_sync(self, world, rounds):
        read = self.count_waits(world)
        marks = {}

        def program(proc):
            for _ in range(rounds):
                proc.sync()
                # the first rank to run after a commit marks the round
                marks.setdefault(world._sync_gen, read())

        world.run(program)
        counts = [marks[g] for g in sorted(marks)]
        return [b - a for a, b in zip(counts, counts[1:])]

    def test_last_arriver_dispatched_next_does_not_wait(self):
        # Replay a dispatch order in which each round starts with the
        # previous round's last arriver: 0 1 2 | 2 0 1 | 1 2 0 | 0 1 2 ...
        nprocs, rounds = 3, 6
        order, trace = list(range(nprocs)), []
        for _ in range(rounds + 1):
            trace += order
            order = order[-1:] + order[:-1]
        world = SimWorld(nprocs, schedule="trace", trace=trace, join_timeout=10.0)
        assert self.waits_per_sync(world, rounds) == [nprocs - 1] * (rounds - 1)

    def test_deterministic_order_pays_one_wait_per_rank(self):
        # Equal clocks after a commit: rank 0 goes first, the last arriver
        # (rank P-1) is not re-picked and parks.
        nprocs, rounds = 3, 6
        world = SimWorld(nprocs, join_timeout=10.0)
        assert self.waits_per_sync(world, rounds) == [nprocs] * (rounds - 1)

    def test_single_rank_world_never_waits(self):
        world = SimWorld(1)
        read = self.count_waits(world)
        world.run(lambda proc: [proc.sync() for _ in range(5)])
        assert read() == 0
