"""LCC's per-neighbourhood host loop against the per-neighbour original.

The rank program counts triangles with one vectorised membership count per
vertex and fetches each neighbourhood into one arena; the loop it replaced
(``tests/reference_lcc.py``) made one ``np.empty``, one scalar location
lookup and one ``np.intersect1d`` per neighbour.  How the host counts is
not simulated, so everything observable must be identical: the per-rank
stream of posted gets (target, displacement, bytes, in order), the LCC
values bit for bit, the per-rank virtual phase times and the cache stats.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lcc import lcc_rank_program as reference_program

from repro import obs
from repro.apps import LCCApp, lcc
from repro.apps.cachespec import CacheSpec
from repro.verify.chaos import crash_plan
from repro.util import KiB

NPROCS = 4


@pytest.fixture(scope="module")
def app():
    return LCCApp(scale=6, edge_factor=8, seed=3)


def observe(run):
    """``run()``'s result and its posted gets, per rank, in issue order."""
    gets: dict[int, list[tuple[int, int, int]]] = {}

    def record(event: obs.Event) -> None:
        ops = event.attrs.get("ops", [event.attrs])
        gets.setdefault(event.rank, []).extend(
            (op["target"], op["disp"], op["nbytes"]) for op in ops
        )

    with obs.capture(obs.CallbackSink(record, kinds=(obs.RMA_GET, obs.RMA_GET_BATCH))):
        result = run()
    return result, gets


def assert_same_run(monkeypatch, run):
    new, new_gets = observe(run)
    with monkeypatch.context() as m:
        m.setattr(lcc, "_lcc_rank_program", reference_program)
        ref, ref_gets = observe(run)
    assert new_gets == ref_gets
    assert sum(map(len, new_gets.values())) > 0
    assert new.lcc.tobytes() == ref.lcc.tobytes()
    assert new.rank_times == ref.rank_times
    assert repr(new.cache_stats) == repr(ref.cache_stats)
    return new


@pytest.mark.parametrize(
    "spec",
    [CacheSpec.fompi(), CacheSpec.clampi_fixed(32, 8 * KiB)],
    ids=["fompi", "clampi-evicting"],
)
def test_serial_loop_is_the_reference(monkeypatch, app, spec):
    run = assert_same_run(monkeypatch, lambda: app.run(NPROCS, spec))
    assert run.merged_stats().get("evictions", 1) > 0


def test_batched_fetch_is_the_reference(monkeypatch, app):
    spec = CacheSpec.clampi_fixed(32, 8 * KiB)
    assert_same_run(monkeypatch, lambda: app.run(NPROCS, spec, batch=True))


@pytest.mark.parametrize("mode", ["invalidate", "serve-stale"])
def test_lost_neighbours_are_the_reference(monkeypatch, app, mode):
    """A rank dies mid-traversal: the survivors' lost neighbours count zero
    links and zero merge steps, exactly as the reference's empty lists."""
    spec = CacheSpec.clampi_fixed(256, 64 * KiB, recovery=mode)
    clean = app.run(NPROCS, spec)
    victim = NPROCS // 2
    setup = clean.makespan - clean.elapsed
    plan = crash_plan(0, victim, setup + 0.45 * clean.rank_times[victim])
    run = assert_same_run(monkeypatch, lambda: app.run(NPROCS, spec, faults=plan))
    assert len(run.rank_times) == NPROCS - 1
    assert run.merged_stats()["failed_target_gets"] > 0


# ---------------------------------------------------------------------------
# the count itself
# ---------------------------------------------------------------------------
NVERTICES = 40
sorted_unique = st.lists(
    st.integers(0, NVERTICES - 1), unique=True, max_size=NVERTICES
).map(sorted)


@settings(max_examples=200, deadline=None)
@given(
    adj_v=sorted_unique,
    neighbours=st.lists(st.tuples(sorted_unique, st.booleans()), max_size=12),
)
def test_count_links_is_the_sum_of_intersections(adj_v, neighbours):
    """Random sorted duplicate-free lists, empty ones included; a lost
    neighbour's slice is masked with -1 and contributes nothing."""
    adj_v = np.array(adj_v, dtype=np.int64)
    parts, expected = [np.empty(0, dtype=np.int64)], 0
    for adj_u, lost in neighbours:
        adj_u = np.array(adj_u, dtype=np.int64)
        if lost:
            parts.append(np.full(adj_u.size, -1, dtype=np.int64))
        else:
            parts.append(adj_u)
            expected += np.intersect1d(adj_v, adj_u, assume_unique=True).size
    mark = np.zeros(NVERTICES + 1, dtype=bool)
    assert lcc.count_links(mark, adj_v, np.concatenate(parts)) == expected
    assert not mark.any()
