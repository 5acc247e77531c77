"""The in-line miss side against its predecessor, op stream for op stream.

Two standalone engines — the current :class:`CacheEngine` and the
``ReferenceEngine`` of ``tests/reference_engine.py`` (the previous
miss-side code kept verbatim) — are driven with the same hypothesis op
stream: gets over two targets with sizes of 8-1000 bytes as bytes or
doubles, per-target and full epoch closes, span invalidations, purges
and injected storage faults.  The configurations reach index capacities
1-16 (conflicts and failed walks), stores of 1-16 lines and unaligned
sizes, samples smaller and larger than the index, every policy, every
mode and both allocator fits.

After every op both engines must agree on everything a run can observe:
the ordered list of virtual-time charges (float ``==``), the bytes
returned and written into the origin, the stats snapshot, the slot and
storage layouts, the stored bytes, both RNG states, the events and any
raised error.  ``test_the_streams_reach_every_path`` checks that the
strategies drive both engines through every access type, both eviction
kinds, the keep-scanning sample, storage faults and admission refusals.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import ReferenceEngine
from reference_structures import preorder

from repro.core.config import Config, Mode
from repro.core.engine import CacheEngine, CacheGetRequest
from repro.core.policy import available_policies
from repro.mpi.datatypes import BYTE, FLOAT64
from repro.mpi.errors import StorageFault
from repro.util import CACHE_LINE

TARGETS = (0, 1)
SIZES = (8, 64, 72, 200, 1000)
WINDOW = 4096  #: bytes of remote memory per target
POLICIES = sorted(available_policies())

#: what the streams of one test reached (read by the coverage test)
REACHED: Counter = Counter()

configs = st.builds(
    Config,
    index_entries=st.integers(1, 16),
    storage_bytes=st.one_of(
        st.integers(1, 16).map(lambda lines: lines * CACHE_LINE),
        st.integers(1, 16 * CACHE_LINE),  # unaligned
    ),
    mode=st.sampled_from(list(Mode)),
    policy=st.sampled_from(POLICIES),
    sample_size=st.integers(1, 20),
    num_hashes=st.integers(2, 4),
    max_insert_iterations=st.integers(1, 8),
    max_capacity_evictions=st.integers(0, 2),
    allocator_fit=st.sampled_from(["best", "first"]),
    seed=st.integers(0, 1 << 16),
)
#: few displacements, so keys repeat (hits, partial hits) and collide
DISPS = range(0, 1088, 136)
#: op kinds and their weights: mostly gets and closes, as a run is
KINDS = ("get", "close", "write", "purge", "fault")
WEIGHTS = (0.75, 0.15, 0.05, 0.02, 0.03)


def op_stream(seed: int, length: int) -> list[tuple]:
    """``length`` ops drawn with :data:`WEIGHTS` from ``seed``."""
    rs = np.random.default_rng(seed)
    stream: list[tuple] = []
    for kind in rs.choice(KINDS, size=length, p=WEIGHTS).tolist():
        trg = int(rs.choice(TARGETS))
        disp = int(rs.choice(DISPS))
        if kind == "get":
            size, doubles = int(rs.choice(SIZES)), bool(rs.integers(2))
            stream.append((kind, trg, disp, size, doubles))
        elif kind == "close":
            stream.append((kind, None if rs.integers(2) else {trg}))
        elif kind == "write":
            stream.append((kind, trg, disp, int(rs.integers(1, 300))))
        else:
            stream.append((kind,))
    return stream


class Harness:
    """One engine, its remote memory view, its sink, its events, its faults."""

    def __init__(self, cls, config: Config, memory: dict):
        self.memory = memory
        self.charges: list[float] = []
        self.events: list[tuple] = []
        self.faults = 0
        self.engine = cls(
            config,
            self.fetch,
            sink=self.charges.append,
            on_event=lambda kind, **attrs: self.events.append((kind, attrs)),
            miss_cost=lambda e: 1e-6 + e.size * 1e-9,
            fault_hook=self.fault_hook,
        )

    def fetch(self, req: CacheGetRequest) -> int:
        req.origin.view(np.uint8)[: req.size] = self.memory[req.target][
            req.disp : req.disp + req.size
        ]
        return req.size

    def fault_hook(self, nbytes: int) -> None:
        if self.faults:
            self.faults -= 1
            raise StorageFault(f"injected: {nbytes} B")

    def run(self, op) -> object:
        """Apply ``op``; its result, or the type and message it raised."""
        engine = self.engine
        try:
            if op[0] == "get":
                _, trg, disp, size, doubles = op
                dtype, count = (FLOAT64, size // 8) if doubles else (BYTE, size)
                origin = np.full(count, -1.0 if doubles else 0xAB, dtype.np_dtype)
                engine.seq += 1
                engine.size_sum += size
                served = engine.serve(
                    CacheGetRequest(origin, trg, disp, count, dtype, size, (trg, disp))
                )
                return served, engine.stats.last_access, origin.tobytes()
            if op[0] == "close":
                return engine.close_epoch(op[1])
            if op[0] == "write":
                _, trg, lo, length = op
                return engine.invalidate_span(trg, lo, lo + length)
            if op[0] == "purge":
                return engine.purge()
            self.faults += 1
            return None
        except Exception as exc:  # noqa: BLE001 - compared, not swallowed
            return type(exc), str(exc)

    def observed(self) -> dict:
        """Everything a run can observe, as plain comparable values."""
        engine = self.engine
        storage = engine.storage
        return {
            "charges": self.charges,
            "cost": engine.cost.total,
            "stats": engine.stats.snapshot(),
            "interval": engine.stats.interval.as_dict(),
            "slots": [
                e and (e.key, e.state, e.size, e.last, e.pinned, e.slot)
                for e in engine.index._slots
            ],
            "index_len": len(engine.index),
            "regions": [
                (d.offset, d.size, d.free, d.entry and d.entry.key)
                for d in storage.descriptors()
            ],
            "free_tree": preorder(storage._free_tree),
            "avl_steps": storage.steps,
            "used": storage.used_bytes,
            "data": storage.data.tobytes(),
            "pending": [(e.key, e.state) for e in engine.pending],
            "members": {t: [e.key for e in m] for t, m in engine._by_target.items()},
            "max_extent": engine._max_extent,
            "fault_streak": engine.fault_streak,
            "victim_rng": engine._rng.getstate(),
            "index_rng": engine.index._rng.getstate(),
            "events": self.events,
            "orphans": engine.orphan_waiter_bytes,
        }


def run_both(config: Config, stream) -> tuple[CacheEngine, int]:
    """Drive both engines with ``stream``; assert they agree after every op."""
    rng = np.random.default_rng(config.seed)
    memory = {t: rng.integers(0, 256, WINDOW, np.uint8) for t in TARGETS}
    new = Harness(CacheEngine, config, memory)
    ref = Harness(ReferenceEngine, config, memory)
    writes = 0
    for i, op in enumerate(stream):
        got, want = new.run(op), ref.run(op)
        assert got == want, (i, op)
        assert new.observed() == ref.observed(), (i, op)
        if op[0] == "write":  # the remote bytes change after both dropped
            _, trg, lo, length = op
            writes += 1
            memory[trg][lo : lo + length] = (np.arange(length) + writes) % 256
        REACHED[op[0]] += 1
        if op[0] == "get" and isinstance(got, tuple) and len(got) == 3:
            REACHED[got[1]] += 1
    new.engine.check_invariants()
    return new.engine, len(stream)


SETTINGS = settings(max_examples=250, deadline=None, derandomize=True)


@SETTINGS
@given(config=configs, seed=st.integers(0, 2**32 - 1), length=st.integers(20, 150))
def test_same_observables_as_the_reference(config, seed, length):
    engine, _n = run_both(config, op_stream(seed, length))
    t = engine.stats.total
    REACHED["capacity_evictions"] += t.capacity_evictions
    REACHED["conflict_evictions"] += t.conflict_evictions
    REACHED["storage_faults"] += t.storage_faults
    REACHED["admission_rejects"] += t.admission_rejects
    sampled = t.capacity_evictions * engine.config.sample_size
    REACHED["kept_scanning"] += t.eviction_visited > sampled
    REACHED[engine.config.mode] += 1
    REACHED[engine.config.policy] += 1


def test_the_streams_reach_every_path():
    from repro.core.stats import AccessType

    REACHED.clear()
    test_same_observables_as_the_reference()
    unreached = [
        name
        for name in (
            *AccessType,
            *Mode,
            *POLICIES,
            "close",
            "write",
            "purge",
            "fault",
            "capacity_evictions",
            "conflict_evictions",
            "storage_faults",
            "admission_rejects",
            "kept_scanning",
        )
        if not REACHED[name]
    ]
    assert unreached == []


@pytest.mark.parametrize("index_entries", [4, 64, 4096])
def test_a_long_evicting_stream(index_entries):
    """A store far too small for the keys: hundreds of capacity evictions,
    in a dense index and in one that is almost all empty slots."""
    config = Config(
        index_entries=index_entries,
        storage_bytes=7 * CACHE_LINE + 9,
        mode=Mode.ALWAYS_CACHE,
        sample_size=4,
    )
    rs = np.random.default_rng(index_entries)
    stream = []
    for _ in range(400):
        stream.append(
            ("get", int(rs.choice(TARGETS)), int(rs.choice(DISPS)),
             int(rs.choice(SIZES[:4])), bool(rs.integers(2)))
        )
        if rs.random() < 0.3:
            stream.append(("close", None))
    engine, _n = run_both(config, stream)
    assert engine.stats.total.capacity_evictions > 50
