"""One completion time per target against the list of posted operations.

A window keeps, per target rank, the latest completion time of the data
ops posted to it (``Window._pending``); a completing sync pops its targets
and advances to the latest.  It used to keep every posted op in a list
and scan it at each sync.  Float ``max`` is exact, so the two must charge
the same clocks bit for bit; ``tests/reference_rma.py`` keeps the list as
a model (:class:`~reference_rma.PendingList`).

Every rank of a 3-rank world runs one drawn sequence of epochs (lock of
some ranks, lock_all, fence, PSCW, a bare fence) holding gets, puts,
accumulates, ``rget`` / ``rput`` with ``wait`` / ``test``, ``flush(r)``
and ``flush_all``, closed by ``unlock(r)``, ``unlock_all``, the closing
fence or ``complete``.  The model replays the sequence for every rank and
must reach each rank's clock after every step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_rma import PendingList

from repro.mpi import SimMPI, Window
from repro.net import PerfModel

NPROCS = 3
RANKS = tuple(range(NPROCS))
#: far enough apart that a later small op to a target can complete before
#: an earlier large one, which only the max of the two completion times keeps
SIZES = (8, 512, 8192)
DATA = ("get", "put", "acc", "rget", "rput")


def ops_on(covered, flush_all: bool):
    """One step inside an open epoch covering ``covered``."""
    targets = st.sampled_from(sorted(covered))
    steps = [
        st.tuples(st.sampled_from(DATA), targets, st.sampled_from(SIZES)),
        st.tuples(st.sampled_from(("wait", "test")), st.integers(0, 7)),
        st.tuples(st.just("flush"), targets),
    ]
    if flush_all:
        steps.append(st.just(("flush_all",)))
    return st.one_of(steps)


@st.composite
def programs(draw):
    steps: list[tuple] = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("lock", "lock_all", "fence", "pscw", "bare")))
        if kind == "bare":
            steps.append(("fence",))
            continue
        if kind in ("lock", "pscw"):
            ranks = draw(st.lists(st.sampled_from(RANKS), min_size=1, unique=True))
        else:
            ranks = list(RANKS)
        opened = {
            "lock": [("lock", r) for r in ranks],
            "lock_all": [("lock_all",)],
            "fence": [("fence_enter",)],
            "pscw": [("start", tuple(ranks))],
        }[kind]
        passive = kind in ("lock", "lock_all")
        steps += opened
        steps += draw(st.lists(ops_on(ranks, passive), max_size=6))
        if kind == "lock":
            # unlock one rank at a time, with ops towards those still locked
            locked = list(ranks)
            for r in draw(st.permutations(ranks)):
                steps.append(("unlock", r))
                locked.remove(r)
                if locked:
                    steps += draw(st.lists(ops_on(locked, True), max_size=2))
        else:
            steps.append(
                {"lock_all": ("unlock_all",), "fence": ("fence_exit",),
                 "pscw": ("complete",)}[kind]
            )
    # requests may be completed after their epoch closed
    steps += draw(st.lists(st.tuples(st.sampled_from(("wait", "test")),
                                     st.integers(0, 7)), max_size=2))
    return steps


def program(mpi, steps):
    """Run ``steps``; the clock after window set-up and after each step."""
    comm = mpi.comm_world
    win = Window.allocate(comm, max(SIZES))
    comm.barrier()
    start = mpi.time
    buf = np.zeros(max(SIZES), np.uint8)
    requests = []
    fence = None
    clocks = []
    for step in steps:
        op = step[0]
        if op in DATA:
            target, n = step[1], step[2]
            if op == "get":
                win.get(buf[:n], target, 0)
            elif op == "put":
                win.put(buf[:n], target, 0)
            elif op == "acc":
                win.accumulate(buf[:n], target, 0)
            else:
                call = win.rget if op == "rget" else win.rput
                requests.append(call(buf[:n], target, 0))
        elif op in ("wait", "test"):
            if requests:
                getattr(requests[step[1] % len(requests)], op)()
        elif op == "fence_enter":
            fence = win.fence_epoch()
            fence.__enter__()
        elif op == "fence_exit":
            fence.__exit__(None, None, None)
        elif op == "start":
            win.start(step[1])
        else:  # lock, lock_all, unlock, unlock_all, flush, flush_all, fence, complete
            getattr(win, op)(*step[1:])
        clocks.append(mpi.time)
    return start, clocks, comm._tree_cost(0)


def model(perf: PerfModel, steps, starts, tree_cost) -> list[list[float]]:
    """Each rank's clock after each step, under the list of posted ops."""
    ranks = [PendingList(t) for t in starts]
    requests: list[list] = [[] for _ in RANKS]
    clocks: list[list[float]] = [[] for _ in RANKS]
    for step in steps:
        op = step[0]
        for me, m in enumerate(ranks):
            if op in DATA:
                target, n = step[1], step[2]
                _dist, issue, alpha, bw = perf.link(me, target)
                posted = m.post(target, issue, alpha + n / bw)
                if op in ("rget", "rput"):
                    requests[me].append(posted)
            elif op in ("wait", "test"):
                if requests[me]:
                    getattr(m, op)(requests[me][step[1] % len(requests[me])])
            elif op in ("unlock", "flush"):
                m.complete({step[1]})
            elif op in ("unlock_all", "flush_all", "complete"):
                m.complete(None)
            elif op in ("fence", "fence_enter", "fence_exit"):
                m.complete(None)
            elif op == "start":
                for r in sorted(step[1]):
                    m.clock += perf.issue_time(me, r, 0)
        if op in ("fence", "fence_enter", "fence_exit"):
            released = max(m.clock for m in ranks) + tree_cost
            for m in ranks:
                m.clock = released
        for me, m in enumerate(ranks):
            clocks[me].append(m.clock)
    return clocks


@settings(max_examples=80, deadline=None)
@given(programs())
def test_completion_times_charge_the_clocks_of_the_pending_list(steps):
    perf = PerfModel.spread(NPROCS)
    results = SimMPI(nprocs=NPROCS, perf=perf).run(program, steps)
    starts = [start for start, _clocks, _tree in results]
    expected = model(perf, steps, starts, results[0][2])
    for me, (_start, clocks, _tree) in enumerate(results):
        assert clocks == expected[me], f"rank {me}"
