"""Barnes-Hut's precomputed walk against the per-visit original.

The rank program walks each body's visit list from ``visit_sets`` and
issues only the remote gets and their flushes; the loop it replaced
(``tests/reference_bh.py``) ran a stack DFS per body with one ``tolist()``
per visited node.  How the host finds the nodes and sums the forces is not
simulated, so everything observable must be identical: the per-rank
stream of posted gets (target, displacement, bytes, in order), the forces
bit for bit, the per-rank phase times, the makespan and the cache stats,
with and without a rank crashing mid-walk.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_bh import bh_rank_program as reference_program

from repro import obs
from repro.apps import BarnesHutApp, barnes_hut
from repro.apps.barnes_hut import visit_sets
from repro.apps.cachespec import CacheSpec
from repro.util import KiB
from repro.verify.chaos import crash_plan

NPROCS = 4


@pytest.fixture(scope="module")
def app():
    return BarnesHutApp(nbodies=160, seed=5, theta=0.6)


def observe(run):
    """``run()``'s result and its posted gets, per rank, in issue order."""
    gets: dict[int, list[tuple[int, int, int]]] = {}

    def record(event: obs.Event) -> None:
        a = event.attrs
        gets.setdefault(event.rank, []).append((a["target"], a["disp"], a["nbytes"]))

    with obs.capture(obs.CallbackSink(record, kinds=(obs.RMA_GET,))):
        result = run()
    return result, gets


def reference(*args):
    """The reference takes the eight arguments the app passed before the
    precomputed walk."""
    return reference_program(*args[:8])


def assert_same_run(monkeypatch, run):
    new, new_gets = observe(run)
    with monkeypatch.context() as m:
        m.setattr(barnes_hut, "_bh_rank_program", reference)
        ref, ref_gets = observe(run)
    assert new_gets == ref_gets
    assert sum(map(len, new_gets.values())) > 0
    assert new.forces.tobytes() == ref.forces.tobytes()
    assert new.rank_times == ref.rank_times
    assert new.makespan == ref.makespan
    assert repr(new.cache_stats) == repr(ref.cache_stats)
    return new


@pytest.mark.parametrize(
    "spec",
    [
        CacheSpec.fompi(),
        CacheSpec.clampi_fixed(4096, 256 * KiB),
        CacheSpec.clampi_fixed(64, 8 * KiB),
    ],
    ids=["fompi", "clampi-user-defined", "clampi-evicting"],
)
def test_walk_is_the_reference(monkeypatch, app, spec):
    run = assert_same_run(monkeypatch, lambda: app.run(NPROCS, spec))
    if spec.kind.value == "clampi":
        assert run.merged_stats()["hit_full"] > 0
    if spec.label.startswith("CLaMPI-fixed(|I|=64,"):
        assert run.merged_stats()["evictions"] > 0


@pytest.mark.parametrize(
    "spec",
    [
        CacheSpec.fompi(),
        CacheSpec.clampi_fixed(4096, 256 * KiB, recovery="invalidate"),
        CacheSpec.clampi_fixed(4096, 256 * KiB, recovery="serve-stale"),
    ],
    ids=["fompi", "invalidate", "serve-stale"],
)
def test_lost_subtrees_are_the_reference(monkeypatch, app, spec):
    """A rank dies mid-walk: a failed get drops its node's subtree, with
    no gets into it and no visits counted, exactly as the reference's
    ``continue``."""
    clean = app.run(NPROCS, spec)
    victim = NPROCS // 2
    setup = clean.makespan - clean.elapsed
    plan = crash_plan(0, victim, setup + 0.45 * clean.rank_times[victim])
    run = assert_same_run(monkeypatch, lambda: app.run(NPROCS, spec, faults=plan))
    assert len(run.rank_times) == NPROCS - 1
    if spec.kind.value == "clampi":
        assert run.merged_stats()["failed_target_gets"] > 0


# ---------------------------------------------------------------------------
# the visit lists themselves
# ---------------------------------------------------------------------------
def loop_visits(tree, pos, b, theta, eps):
    """The reference loop's node visits for body ``b``: its stack DFS and
    opening test, with the fetch and the force sums taken out."""
    eps2, theta2 = eps * eps, theta * theta
    pbx, pby, pbz = pos[b].tolist()
    stack, out = [tree.root], []
    while stack:
        node = stack.pop()
        rec = tree.nodes[node].tolist()
        out.append(node)
        dx, dy, dz = rec[0] - pbx, rec[1] - pby, rec[2] - pbz
        r2 = dx * dx + dy * dy + dz * dz + eps2
        if int(rec[5]) and not rec[4] * rec[4] < theta2 * r2:
            stack.extend(int(rec[8 + c]) for c in range(int(rec[5])))
    return out


@pytest.mark.parametrize("theta", [0.3, 0.6, 1.0])
def test_visit_sets_follow_the_loop(theta):
    app = BarnesHutApp(nbodies=150, seed=2, theta=theta)
    walk = visit_sets(app.tree, app.pos, theta, 1e-3)  # three chunks
    assert walk.positions.dtype == np.int32
    assert walk.offsets[-1] == walk.positions.size
    for b in range(app.nbodies):
        at = walk.positions[walk.offsets[b] : walk.offsets[b + 1]]
        assert walk.order[at].tolist() == loop_visits(app.tree, app.pos, b, theta, 1e-3)


def test_a_subtree_is_a_preorder_range(app):
    """``[p, end[p])`` holds ``p`` and its descendants and nothing else."""
    walk = app.visits()
    tree = app.tree
    position = np.empty(tree.nnodes, dtype=np.int64)
    position[walk.order] = np.arange(tree.nnodes)
    for p, node in enumerate(walk.order.tolist()):
        below, todo = set(), [node]
        while todo:
            n = todo.pop()
            below.add(int(position[n]))
            rec = tree.nodes[n]
            todo.extend(int(c) for c in rec[8 : 8 + int(rec[5])])
        assert below == set(range(p, int(walk.end[p])))


def test_visits_are_computed_once_per_theta_and_eps(app):
    assert app.visits() is app.visits(1e-3)
    assert app.visits(1e-2) is not app.visits()
