"""The Sec. IV-A micro-benchmark workload and classifying runner.

Workload construction, verbatim from the paper:

1. a set of ``N = 1K`` gets targeting *different* data, each with a size
   drawn uniformly from ``{2^i | i = 0..16}`` bytes;
2. a sequence of ``Z >= N`` gets sampled from that set with a normal
   distribution ``N(N/2, N/4)`` — "a sequence in which a subset of gets is
   more frequent than the others".

The runner executes the sequence between two ranks (initiator/target on
different nodes), measures each get's blocking latency in virtual time and
classifies it by access type from the cache's counter deltas.  It replays
any one-rank :class:`~repro.trace.stream.GetStream` the same way
(:func:`replay`), checking every payload's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.cachespec import CacheSpec
from repro.mpi.simmpi import MPIProcess, SimMPI
from repro.net import PerfModel
from repro.trace import GetStream
from repro.util import align_up


@dataclass(frozen=True)
class MicroWorkload:
    """N distinct gets + a Z-long sampled access sequence."""

    sizes: np.ndarray          #: (N,) payload size of each distinct get
    displacements: np.ndarray  #: (N,) target displacement of each get
    sequence: np.ndarray       #: (Z,) indices into the distinct-get set
    window_bytes: int          #: target window size that fits all gets

    @property
    def n_distinct(self) -> int:
        return int(self.sizes.size)

    @property
    def length(self) -> int:
        return int(self.sequence.size)

    def stream(self) -> list[GetStream]:
        """The two ranks' gets: rank 0 fetches the sequence from rank 1."""
        n = self.length
        gets = GetStream(
            np.ones(n), self.displacements[self.sequence], self.sizes[self.sequence]
        )
        return [gets, GetStream([], [], [])]


def make_micro_workload(
    n_distinct: int = 1000,
    z: int = 20_000,
    seed: int = 7,
    max_exp: int = 16,
    distribution: str = "normal",
    zipf_s: float = 1.2,
) -> MicroWorkload:
    """Build the paper's micro-benchmark sequence.

    ``distribution`` controls how the Z accesses sample the distinct-get
    set:

    * ``"normal"`` — the paper's N(N/2, N/4) ("a subset of gets is more
      frequent than the others");
    * ``"uniform"`` — no skew, the adversarial case for any cache;
    * ``"zipf"`` — power-law skew with exponent ``zipf_s``, the shape of
      hub reuse in scale-free graph workloads.
    """
    if z < n_distinct:
        raise ValueError("Z must be >= N")
    rng = np.random.default_rng(seed)
    exps = rng.integers(0, max_exp + 1, size=n_distinct)
    sizes = (2**exps).astype(np.int64)
    # Distinct gets target disjoint, cache-line-separated regions.
    aligned = np.array([align_up(int(s)) for s in sizes], dtype=np.int64)
    displacements = np.concatenate([[0], np.cumsum(aligned)[:-1]])
    window_bytes = int(aligned.sum())
    if distribution == "normal":
        seq = rng.normal(n_distinct / 2.0, n_distinct / 4.0, size=z)
        sequence = np.clip(np.rint(seq), 0, n_distinct - 1).astype(np.int64)
    elif distribution == "uniform":
        sequence = rng.integers(0, n_distinct, size=z)
    elif distribution == "zipf":
        ranks = rng.zipf(zipf_s, size=z)
        # map the unbounded Zipf ranks onto the distinct-get ids, shuffled
        # so popularity does not correlate with displacement
        perm = rng.permutation(n_distinct)
        sequence = perm[np.minimum(ranks - 1, n_distinct - 1)]
    else:
        raise ValueError(f"unknown distribution: {distribution}")
    return MicroWorkload(sizes, displacements, sequence.astype(np.int64), window_bytes)


@dataclass
class MicroRunResult:
    """Per-get classified measurements of one micro-benchmark run."""

    completion_time: float                 #: initiator virtual time for the run
    makespan: float = 0.0                  #: the run's virtual makespan
    access_types: list[str] = field(default_factory=list)  #: per sequence slot
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    sizes: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    stats: dict = field(default_factory=dict)
    final_index_entries: int = 0
    final_storage_bytes: int = 0
    occupancy: np.ndarray | None = None    #: storage occupancy per get (optional)

    def median_latency(self, access: str, size: int | None = None) -> float | None:
        """Median latency of one access type (optionally one size)."""
        sel = [
            lat
            for lat, a, s in zip(self.latencies, self.access_types, self.sizes)
            if a == access and (size is None or s == size)
        ]
        if not sel:
            return None
        return float(np.median(sel))

    def count(self, access: str) -> int:
        return sum(1 for a in self.access_types if a == access)


def run_micro(
    workload: MicroWorkload,
    spec: CacheSpec,
    record_occupancy: bool = False,
) -> MicroRunResult:
    """Run the sequence initiator→target and classify every access."""
    return replay(workload.stream()[0], workload.window_bytes, spec, record_occupancy)


def replay(
    gets: GetStream,
    window_bytes: int,
    spec: CacheSpec,
    record_occupancy: bool = False,
) -> MicroRunResult:
    """Issue ``gets`` (their ``disp`` and ``nbytes``; the target is always
    rank 1, whose ``window_bytes`` window holds ``i % 251`` at byte ``i``)
    from rank 0 through ``spec``'s window, a get + flush each, and
    classify every access."""
    pattern = (bytes(range(251)) * (window_bytes // 251 + 1))[:window_bytes]
    mpi = SimMPI(nprocs=2, perf=PerfModel.spread(2))
    result = mpi.run(
        _micro_program, gets.disp.tolist(), gets.nbytes.tolist(), pattern, spec,
        record_occupancy,
    )[0]
    result.makespan = mpi.elapsed
    return result


def _micro_program(
    mpi: MPIProcess,
    disps: list[int],
    nbytes: list[int],
    pattern: bytes,
    spec: CacheSpec,
    record_occupancy: bool,
):
    from repro import clampi  # local import to avoid cycles

    local = np.zeros(len(pattern), np.uint8)
    if mpi.rank == 1:
        local[:] = np.frombuffer(pattern, np.uint8)
    win = spec.make_window(mpi.comm_world, local)
    mpi.comm_world.barrier()
    if mpi.rank == 1:
        return None

    cached = isinstance(win, clampi.CachedWindow)
    result = MicroRunResult(completion_time=0.0)
    latencies = np.zeros(len(disps))
    occupancy = np.zeros(len(disps)) if record_occupancy else None
    bufs = {size: np.empty(size, np.uint8) for size in set(nbytes)}

    win.lock_all()
    try:
        t_start = mpi.time
        for i, (dsp, size) in enumerate(zip(disps, nbytes)):
            buf = bufs[size]
            t0 = mpi.time
            win.get(buf, 1, dsp)
            win.flush(1)
            latencies[i] = mpi.time - t0
            if buf.tobytes() != pattern[dsp : dsp + size]:
                raise AssertionError(f"get returned wrong data at dsp={dsp}")
            if cached:
                access = win.stats.last_access
                result.access_types.append(access.value if access else "unknown")
                if occupancy is not None:
                    occupancy[i] = win.storage.used_bytes / win.storage.capacity
            else:
                result.access_types.append("uncached")
        result.completion_time = mpi.time - t_start
    finally:
        win.unlock_all()

    result.latencies = latencies
    result.sizes = np.array(nbytes, dtype=np.int64)
    result.occupancy = occupancy
    if cached:
        result.stats = win.stats.snapshot()
        result.final_index_entries = win.index_entries
        result.final_storage_bytes = win.storage_bytes
    return result
