"""Barnes-Hut N-body force computation over a distributed octree
(paper Sec. IV-B).

The Barnes-Hut algorithm (O(N log N)) organises bodies into an octree whose
inner nodes carry the centre of mass of their subtree.  The force phase
visits the tree top-down per body: a cell that is "far enough" (opening
criterion ``size / distance < theta``) contributes through its centre of
mass; otherwise its children are visited recursively.

Distribution follows the Global-Trees style of Larkins et al. (the paper's
reference implementation): the packed node array is block-partitioned in
DFS order over the ranks' RMA windows; every node visit that lands on a
remote block is a one-sided get of one fixed-size node record.  During the
force phase the tree is read-only, so CLaMPI runs in *user-defined* mode
and the cache is invalidated after each force phase (paper Listing 1).

Which nodes a body visits depends on the tree alone, so :func:`visit_sets`
computes every body's visit list once, in numpy, before the ranks start.
A rank walks each local body's list: local records by one fancy index,
each remote one by a ``get`` + ``flush``, then the body's forces in numpy.

Node record layout (16 float64 = 128 bytes, cache-line aligned)::

    [0:3]  centre of mass (or body position at leaves)
    [3]    mass
    [4]    cell size (side length)
    [5]    number of children (0 for leaves)
    [6]    body id at leaves (-1 otherwise)
    [7]    padding
    [8:16] child node ids (-1 padded)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice

import numpy as np

from repro import recovery
from repro.apps.cachespec import CacheSpec, PerRankStats, cache_stats_of
from repro.graph.partition import BlockPartition
from repro.mpi.errors import TargetFailedError
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.net import PerfModel
from repro.trace import TraceRecorder
from repro import clampi

NODE_FLOATS = 16
NODE_BYTES = NODE_FLOATS * 8

#: CPU cost of one body-cell interaction (a handful of flops).
INTERACTION_TIME = 25e-9
#: CPU cost of deciding whether to open a cell.
VISIT_TIME = 8e-9
#: Bodies per step of :func:`visit_sets`: its temporaries are a few
#: ``VISIT_CHUNK x nnodes`` arrays, so no dense bodies x nodes matrix forms.
VISIT_CHUNK = 64


# ----------------------------------------------------------------------
# Octree construction (sequential, shared by all simulated ranks)
# ----------------------------------------------------------------------
class Octree:
    """A packed octree over 3-D bodies."""

    def __init__(self, nodes: np.ndarray, root: int, nbodies: int):
        self.nodes = nodes        #: (nnodes, NODE_FLOATS) float64
        self.root = root
        self.nbodies = nbodies

    @property
    def nnodes(self) -> int:
        return self.nodes.shape[0]

    @classmethod
    def build(cls, pos: np.ndarray, mass: np.ndarray) -> "Octree":
        """Build from body positions (n, 3) and masses (n,)."""
        n = pos.shape[0]
        if n == 0:
            raise ValueError("cannot build a tree over zero bodies")
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        centre = (lo + hi) / 2.0
        size = float(max(np.max(hi - lo), 1e-12))
        records: list[np.ndarray] = []

        def new_record() -> int:
            records.append(np.zeros(NODE_FLOATS))
            records[-1][8:16] = -1.0
            return len(records) - 1

        def build_cell(idx_bodies: np.ndarray, centre: np.ndarray, size: float) -> int:
            me = new_record()
            rec = records[me]
            if idx_bodies.size == 1:
                b = int(idx_bodies[0])
                rec[0:3] = pos[b]
                rec[3] = mass[b]
                rec[4] = size
                rec[5] = 0.0
                rec[6] = float(b)
                return me
            # Partition bodies into octants.
            p = pos[idx_bodies]
            octant = (
                (p[:, 0] > centre[0]).astype(np.int64)
                | ((p[:, 1] > centre[1]).astype(np.int64) << 1)
                | ((p[:, 2] > centre[2]).astype(np.int64) << 2)
            )
            total_mass = float(mass[idx_bodies].sum())
            com = (pos[idx_bodies] * mass[idx_bodies, None]).sum(axis=0) / total_mass
            rec[0:3] = com
            rec[3] = total_mass
            rec[4] = size
            rec[6] = -1.0
            nchildren = 0
            half = size / 4.0
            for o in range(8):
                sel = idx_bodies[octant == o]
                if sel.size == 0:
                    continue
                offs = np.array(
                    [half if o & 1 else -half,
                     half if o & 2 else -half,
                     half if o & 4 else -half]
                )
                child = build_cell(sel, centre + offs, size / 2.0)
                # ``records`` may have grown; re-fetch our record.
                records[me][8 + nchildren] = float(child)
                nchildren += 1
            records[me][5] = float(nchildren)
            return me

        root = build_cell(np.arange(n), centre, size)
        return cls(np.vstack(records), root, n)


def morton_order(pos: np.ndarray, bits: int = 10) -> np.ndarray:
    """Sort order of bodies along a Morton (Z-order) curve.

    Used to assign spatially-close bodies to the same rank, like the
    space-filling-curve partitioning of the reference UPC implementation.
    """
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    q = ((pos - lo) / span * ((1 << bits) - 1)).astype(np.uint64)

    def spread(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for b in range(bits):
            out |= ((x >> np.uint64(b)) & np.uint64(1)) << np.uint64(3 * b)
        return out

    keys = spread(q[:, 0]) | (spread(q[:, 1]) << np.uint64(1)) | (
        spread(q[:, 2]) << np.uint64(2)
    )
    return np.argsort(keys, kind="stable")


@dataclass(frozen=True)
class VisitSets:
    """Every body's force-phase walk, as data (CSR over bodies).

    ``order`` lists node ids in the preorder of a stack DFS that pushes
    children 0..n-1 and pops the last first, and ``end[p]`` is the
    exclusive end of position ``p``'s subtree, so a pruned subtree is the
    range ``[p, end[p])``.  Body ``b`` visits the preorder positions
    ``positions[offsets[b]:offsets[b + 1]]``, ascending, which is its
    walk's order.
    """

    order: np.ndarray      #: (nnodes,) int64 node id per preorder position
    end: np.ndarray        #: (nnodes,) int64 subtree end per position
    offsets: np.ndarray    #: (nbodies + 1,) int64
    positions: np.ndarray  #: (visits,) int32


def visit_sets(tree: Octree, pos: np.ndarray, theta: float, eps: float) -> VisitSets:
    """The nodes each body's force walk visits, in visit order.

    A body visits a node iff every ancestor is opened: internal, and not
    far, where far is ``size*size < theta2*(dx*dx + dy*dy + dz*dz + eps2)``
    evaluated elementwise in that order (the scalar walk's float test, bit
    for bit).  Swept one depth level at a time over ``VISIT_CHUNK`` bodies.
    """
    nodes = tree.nodes
    order, parent, depth = [], [], []
    stack = [(tree.root, -1, 0)]
    while stack:
        node, up, d = stack.pop()
        order.append(node)
        parent.append(up)
        depth.append(d)
        kids = nodes[node, 8 : 8 + int(nodes[node, 5])].astype(np.int64).tolist()
        stack.extend((c, len(order) - 1, d + 1) for c in kids)
    size = [1] * len(order)
    for p in range(len(order) - 1, 0, -1):
        size[parent[p]] += size[p]
    parent, depth = np.array(parent), np.array(depth)
    levels = [np.flatnonzero(depth == d) for d in range(1, depth.max() + 1)]
    rec = nodes[order]
    internal = rec[:, 5] != 0
    size2 = rec[:, 4] * rec[:, 4]
    theta2, eps2 = theta * theta, eps * eps
    counts, parts = [], []
    for lo in range(0, pos.shape[0], VISIT_CHUNK):
        pb = pos[lo : lo + VISIT_CHUNK, :, None]
        dx, dy, dz = rec[:, 0] - pb[:, 0], rec[:, 1] - pb[:, 1], rec[:, 2] - pb[:, 2]
        opened = internal & ~(size2 < theta2 * (dx * dx + dy * dy + dz * dz + eps2))
        seen = np.zeros(opened.shape, dtype=bool)
        seen[:, 0] = True
        for lvl in levels:
            up = parent[lvl]
            seen[:, lvl] = seen[:, up] & opened[:, up]
        counts.append(seen.sum(axis=1))
        parts.append(np.nonzero(seen)[1].astype(np.int32))
    offsets = np.zeros(pos.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=offsets[1:])
    end = np.arange(len(order)) + np.array(size)
    return VisitSets(np.array(order), end, offsets, np.concatenate(parts))


# ----------------------------------------------------------------------
# Distributed force computation
# ----------------------------------------------------------------------
@dataclass
class BHRunResult(PerRankStats):
    """Outcome of one distributed Barnes-Hut force phase."""

    nprocs: int
    label: str
    elapsed: float                 #: virtual force-phase makespan (seconds)
    rank_times: list[float]
    time_per_body: float           #: elapsed / max local bodies
    forces: np.ndarray             #: (n, 3) accelerations-times-mass
    cache_stats: list[dict] = field(default_factory=list)
    traces: list[TraceRecorder] = field(default_factory=list)
    #: absolute virtual makespan incl. setup (window creation, barrier);
    #: chaos crash plans anchor their death times to this
    makespan: float = 0.0


class BarnesHutApp:
    """One N-body instance, runnable under any cache configuration."""

    def __init__(self, nbodies: int, seed: int = 1, theta: float = 0.5):
        if nbodies < 2:
            raise ValueError("need at least 2 bodies")
        rng = np.random.default_rng(seed)
        # Plummer-ish clustered distribution: denser core, sparse halo.
        r = rng.power(2.5, nbodies)
        phi = rng.uniform(0, 2 * np.pi, nbodies)
        costh = rng.uniform(-1, 1, nbodies)
        sinth = np.sqrt(1 - costh**2)
        self.pos = np.column_stack(
            [r * sinth * np.cos(phi), r * sinth * np.sin(phi), r * costh]
        )
        self.mass = rng.uniform(0.5, 1.5, nbodies)
        self.theta = theta
        self.nbodies = nbodies
        order = morton_order(self.pos)
        self.pos = self.pos[order]
        self.mass = self.mass[order]
        self.tree = Octree.build(self.pos, self.mass)
        self._visits: dict[tuple[float, float], VisitSets] = {}

    def visits(self, eps: float = 1e-3) -> VisitSets:
        """:func:`visit_sets` at this app's ``theta``, computed once."""
        key = (self.theta, eps)
        if key not in self._visits:
            self._visits[key] = visit_sets(self.tree, self.pos, self.theta, eps)
        return self._visits[key]

    # ------------------------------------------------------------------
    def reference_forces(self, eps: float = 1e-3) -> np.ndarray:
        """Exact O(N^2) force computation (ground truth for tests)."""
        n = self.nbodies
        forces = np.zeros((n, 3))
        for i in range(n):
            d = self.pos - self.pos[i]
            r2 = (d**2).sum(axis=1) + eps**2
            r2[i] = np.inf
            f = (self.mass * self.mass[i] / (r2 * np.sqrt(r2)))[:, None] * d
            forces[i] = f.sum(axis=0)
        return forces

    # ------------------------------------------------------------------
    def run(
        self,
        nprocs: int,
        spec: CacheSpec | None = None,
        trace: bool = False,
        perf: PerfModel | None = None,
        eps: float = 1e-3,
        faults=None,
        retry=None,
    ) -> BHRunResult:
        """Run the distributed force phase on ``nprocs`` ranks.

        ``faults`` (a :class:`repro.faults.FaultPlan`) and ``retry`` (a
        :class:`repro.faults.RetryPolicy`) are forwarded to the simulated
        MPI world for chaos runs; the forces must stay bit-identical.
        """
        spec = spec or CacheSpec.fompi()
        if spec.kind.value == "clampi":
            spec = spec.with_mode(clampi.Mode.USER_DEFINED)
        mpi = SimMPI(
            nprocs=nprocs,
            perf=perf or PerfModel.spread(nprocs),
            faults=faults,
            retry=retry,
        )
        results = mpi.run(
            _bh_rank_program, self.tree, self.pos, self.mass, self.theta, spec,
            trace, eps, self.visits(eps),
        )
        forces = np.zeros((self.nbodies, 3))
        rank_times: list[float] = []
        stats: list[dict] = []
        traces: list[TraceRecorder] = []
        max_local = 1
        for r in results:
            if r is None:
                # Rank crashed mid-run (chaos crash scenario): its bodies
                # keep zero force, the survivors' results stand.
                continue
            lo, hi, f, phase_time, st, rec = r
            forces[lo:hi] = f
            rank_times.append(phase_time)
            stats.append(st)
            if rec is not None:
                traces.append(rec)
            max_local = max(max_local, hi - lo)
        return BHRunResult(
            nprocs=nprocs,
            label=spec.label,
            elapsed=max(rank_times),
            rank_times=rank_times,
            time_per_body=max(rank_times) / max_local,
            forces=forces,
            cache_stats=stats,
            traces=traces,
            makespan=mpi.elapsed,
        )


def _bh_rank_program(
    mpi: MPIProcess,
    tree: Octree,
    pos: np.ndarray,
    mass: np.ndarray,
    theta: float,
    spec: CacheSpec,
    trace: bool,
    eps: float,
    walk: VisitSets,
):
    recorder = TraceRecorder() if trace else None
    node_part = BlockPartition(tree.nnodes, mpi.size)
    nlo, nhi = node_part.range_of(mpi.rank)
    local_nodes = np.ascontiguousarray(tree.nodes[nlo:nhi]).reshape(-1)
    win = spec.make_window(mpi.comm_world, local_nodes.view(np.uint8), recorder)

    body_part = BlockPartition(tree.nbodies, mpi.size)
    blo, bhi = body_part.range_of(mpi.rank)
    recovery.barrier(mpi.comm_world)

    records = local_nodes.reshape(-1, NODE_FLOATS)
    blk, rank = node_part.block, mpi.rank
    eps2, theta2 = eps * eps, theta * theta
    offsets = walk.offsets.tolist()
    get, flush = win.get, win.flush
    t0 = mpi.time
    # Scoped epoch: unlock_all on exit completes every outstanding get.
    with win.lock_all_epoch():
        advance = mpi.proc.advance  # bypass the compute() wrapper in the hot loop
        forces = np.zeros((bhi - blo, 3))
        for b in range(blo, bhi):
            at = walk.positions[offsets[b] : offsets[b + 1]]
            owner, disp = np.divmod(walk.order[at], blk)
            here = owner == rank
            arena = np.empty((at.size, NODE_FLOATS))
            arena[here] = records[disp[here]]
            far = np.flatnonzero(~here)
            fetched = np.empty((far.size, NODE_FLOATS))
            byte_disp = (disp[far] * NODE_BYTES).tolist()
            rows = zip(count(), fetched, owner[far].tolist(), byte_disp)
            keep = np.ones(at.size, dtype=bool)
            for i, row, target, offset in rows:
                try:
                    get(row, target, offset)
                    flush(target)
                except TargetFailedError:
                    # The owner crashed and the record is not recoverable
                    # from the cache: its subtree, a preorder range, is
                    # lost (no gets, no visits); sum the forces still
                    # reachable.
                    lo = far[i]
                    hi = np.searchsorted(at, walk.end[at[lo]])
                    keep[lo:hi] = False
                    skip = np.searchsorted(far, hi) - i - 1
                    next(islice(rows, skip, skip), None)
            arena[far] = fetched
            arena = arena[keep]
            # Each term elementwise in the scalar expression's order, and
            # each sum from 0.0 one interaction at a time (accumulate; a
            # pairwise np.sum rounds differently): the forces are the
            # scalar walk's (tests/reference_bh.py) bit for bit.
            dxyz = arena[:, :3] - pos[b]
            sq = dxyz * dxyz
            r2 = sq[:, 0] + sq[:, 1] + sq[:, 2] + eps2
            size2 = arena[:, 4] * arena[:, 4]
            acts = np.where(arena[:, 5] == 0, arena[:, 6] != b, size2 < theta2 * r2)
            r2 = r2[acts]
            f = float(mass[b]) * arena[acts, 3] / (r2 * np.sqrt(r2))
            terms = np.zeros((f.size + 1, 3))
            terms[1:] = f[:, None] * dxyz[acts]
            forces[b - blo] = np.add.accumulate(terms)[-1]
            advance(len(arena) * VISIT_TIME + f.size * INTERACTION_TIME)
        if hasattr(win, "invalidate"):
            win.invalidate()  # paper Listing 1: invalidate before the epoch ends
    phase_time = mpi.time - t0

    return blo, bhi, forces, phase_time, cache_stats_of(win), recorder
