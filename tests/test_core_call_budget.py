"""Host-independent perf guard: Python-level calls per cached operation.

A cache hit simulates no network at all, so on the host it must not cost
more than the plain get it replaces (docs/performance.md invariant 7).
Wall-clock cannot be asserted in tier-1; the number of Python frames an
operation enters can: ``sys.setprofile`` ``call`` events for code under
``src/repro`` on a rank thread, which depend on nothing but the code.

The budgets are the counts actually reached, so the next change cannot
silently give them back.  When one fails, the message splits the count by
package: the plain-window rows move with ``mpi`` / ``rma`` / ``runtime``,
the cached rows additionally with ``core``.  The measured paths hold no
list comprehension (inlined from CPython 3.12 on), so the counts are the
same on every supported interpreter.
"""

import os
import sys
from collections import Counter

import numpy as np
import pytest

import repro
from repro import clampi
from repro.mpi import SimMPI
from repro.mpi.window import Window
from repro.net import PerfModel

SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: calls per operation — (reached at this commit, at the parent 243c034)
BUDGET = {
    "cached_hit": (20, 42),          # full hit, CACHED entry
    "cached_miss": (69, 102),        # direct miss into free space, new key
    "cached_flush_idle": (12, 17),   # nothing pending on the cached window
    "plain_get": (20, 22),
    "plain_flush": (10, 10),
}


def count_calls(fn) -> Counter:
    """``call`` events under src/repro while ``fn`` runs, by package."""
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            path = frame.f_code.co_filename
            if path.startswith(SRC):
                calls[path[len(SRC) :].split(os.sep)[0]] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def program(mpi):
    comm = mpi.comm_world
    cached = clampi.window_allocate(comm, 1 << 12, mode=clampi.Mode.ALWAYS_CACHE)
    plain = Window.allocate(comm, 1 << 12)
    if mpi.rank:
        return None
    buf = np.empty(8, np.float64)  # Barnes-Hut's node records are float64
    out = {}
    with cached.lock_all_epoch():
        for _ in range(2):  # warm: entry CACHED, every memo filled
            cached.get(buf, 1, 0)
            cached.flush(1)
        out["cached_hit"] = count_calls(lambda: cached.get(buf, 1, 0))
        out["cached_flush_idle"] = count_calls(lambda: cached.flush(1))
        out["cached_miss"] = count_calls(lambda: cached.get(buf, 1, 128))
        cached.flush(1)
        snapshot = cached.stats.snapshot()
    with plain.lock_all_epoch():
        plain.get(buf, 1, 0)
        plain.flush(1)
        out["plain_get"] = count_calls(lambda: plain.get(buf, 1, 0))
        out["plain_flush"] = count_calls(lambda: plain.flush(1))
    return out, snapshot


@pytest.fixture(scope="module")
def measured():
    return SimMPI(2, perf=PerfModel.spread(2)).run(program)[0]


def test_the_counted_operations_are_what_they_claim(measured):
    _calls, snapshot = measured
    assert (snapshot["direct"], snapshot["hit_full"], snapshot["gets"]) == (2, 2, 4)


@pytest.mark.parametrize("op", BUDGET)
def test_call_budget(measured, op):
    calls, _snapshot = measured
    reached, parent = BUDGET[op]
    total = sum(calls[op].values())
    assert total <= reached, (
        f"{op}: {total} calls under src/repro, budget {reached} "
        f"(parent commit: {parent}); by package: {dict(calls[op])}"
    )


def test_a_hit_costs_about_a_plain_get(measured):
    """The design goal: parity with the get a hit replaces, not 2x."""
    calls, _snapshot = measured
    hit, plain = (sum(calls[op].values()) for op in ("cached_hit", "plain_get"))
    assert hit <= plain
    idle, flush = (
        sum(calls[op].values()) for op in ("cached_flush_idle", "plain_flush")
    )
    assert idle <= flush + 2
