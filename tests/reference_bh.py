"""The per-visit Barnes-Hut rank program, kept as a differential-test reference.

``repro.apps.barnes_hut._bh_rank_program`` as it stood before the force
phase became data (commit ``3927825``): a stack DFS per body, one
``tolist()`` per visited node, and the Python-float force sums.  The
rewritten program walks a precomputed visit list, so it must issue the
same get stream, charge the same virtual time and compute the same forces
bit for bit (``tests/test_apps_bh_differential.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro import recovery
from repro.apps.barnes_hut import (
    INTERACTION_TIME,
    NODE_BYTES,
    NODE_FLOATS,
    VISIT_TIME,
    Octree,
)
from repro.apps.cachespec import CacheSpec, cache_stats_of
from repro.graph.partition import BlockPartition
from repro.mpi.errors import TargetFailedError
from repro.mpi.simmpi import MPIProcess
from repro.trace import TraceRecorder


def bh_rank_program(
    mpi: MPIProcess,
    tree: Octree,
    pos: np.ndarray,
    mass: np.ndarray,
    theta: float,
    spec: CacheSpec,
    trace: bool,
    eps: float,
):
    recorder = TraceRecorder() if trace else None
    node_part = BlockPartition(tree.nnodes, mpi.size)
    nlo, nhi = node_part.range_of(mpi.rank)
    local_nodes = np.ascontiguousarray(tree.nodes[nlo:nhi]).reshape(-1)
    win = spec.make_window(mpi.comm_world, local_nodes.view(np.uint8), recorder)

    body_part = BlockPartition(tree.nbodies, mpi.size)
    blo, bhi = body_part.range_of(mpi.rank)
    recovery.barrier(mpi.comm_world)

    node_buf = np.empty(NODE_FLOATS, dtype=np.float64)
    blk = node_part.block  # hoisted: fetch_node runs millions of times

    def fetch_node(node_id: int) -> list[float]:
        # Python floats: the force loop indexes each record several times,
        # and a numpy scalar per index costs more than the same arithmetic.
        owner = node_id // blk
        local = node_id - owner * blk
        if owner == mpi.rank:
            start = local * NODE_FLOATS
            return local_nodes[start : start + NODE_FLOATS].tolist()
        win.get(node_buf, owner, local * NODE_BYTES)
        win.flush(owner)
        return node_buf.tolist()

    t0 = mpi.time
    # Scoped epoch: unlock_all on exit completes every outstanding get.
    with win.lock_all_epoch():
        eps2 = eps * eps
        theta2 = theta * theta
        sqrt = math.sqrt
        advance = mpi.proc.advance  # bypass the compute() wrapper in the hot loop
        forces = np.zeros((bhi - blo, 3))
        for b in range(blo, bhi):
            pbx, pby, pbz = pos[b].tolist()
            mb = float(mass[b])
            ax = ay = az = 0.0
            stack = [tree.root]
            visits = 0
            interactions = 0
            while stack:
                try:
                    rec = fetch_node(stack.pop())
                except TargetFailedError:
                    # The node's owner crashed and its record is not
                    # recoverable from the cache: the whole subtree is
                    # lost; sum the forces still reachable.
                    continue
                visits += 1
                nchildren = int(rec[5])
                dx = rec[0] - pbx
                dy = rec[1] - pby
                dz = rec[2] - pbz
                r2 = dx * dx + dy * dy + dz * dz + eps2
                if nchildren == 0:
                    if int(rec[6]) == b:
                        continue  # the body itself
                    f = mb * rec[3] / (r2 * sqrt(r2))
                    ax += f * dx
                    ay += f * dy
                    az += f * dz
                    interactions += 1
                elif rec[4] * rec[4] < theta2 * r2:
                    # size/dist < theta: far enough, use the centre of mass
                    f = mb * rec[3] / (r2 * sqrt(r2))
                    ax += f * dx
                    ay += f * dy
                    az += f * dz
                    interactions += 1
                else:
                    for c in range(nchildren):
                        stack.append(int(rec[8 + c]))
            advance(visits * VISIT_TIME + interactions * INTERACTION_TIME)
            forces[b - blo, 0] = ax
            forces[b - blo, 1] = ay
            forces[b - blo, 2] = az
        if hasattr(win, "invalidate"):
            win.invalidate()  # paper Listing 1: invalidate before the epoch ends
    phase_time = mpi.time - t0

    return blo, bhi, forces, phase_time, cache_stats_of(win), recorder
