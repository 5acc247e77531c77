"""Stateful test: a standalone CacheEngine against a model of remote memory.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`CacheEngine` —
no window, no world, no scheduler — whose ``fetch`` reads a dict of
per-target byte arrays.  Rules interleave gets (new keys and reuse),
writes near fetched bytes (model update plus span invalidation), epoch closes (per target or whole), purges and
resizes; every get must serve exactly the model's current bytes, and after
every rule the engine's structural audit, the stats conservation
identities and the cost ledger (``cost.total`` is the in-order float sum
of what the sink received) must hold.

The strategies reach index capacities 1-8 and stores of a few cache lines
— small enough that gets of up to 96 B force capacity and conflict
evictions and oversized failures — under all three modes and every
registered policy; ``test_the_machine_reaches_every_path`` checks that
they do.
"""

from collections import Counter

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import Config, Mode
from repro.core.engine import CacheEngine, CacheGetRequest
from repro.core.policy import available_policies
from repro.mpi.datatypes import BYTE
from repro.util import CACHE_LINE

TARGETS = (0, 1, 2)
WINDOW = 512  #: bytes of remote memory per target
POLICIES = sorted(available_policies())

index_sizes = st.integers(1, 8)
storage_sizes = st.integers(1, 10).map(lambda lines: lines * CACHE_LINE)
targets = st.sampled_from(TARGETS)
#: few distinct displacements, so keys repeat (hits) and collide (conflicts)
disps = st.sampled_from(range(0, WINDOW - 128, 24))

#: what the runs of one test reached (read by test_the_machine_reaches_every_path)
REACHED: Counter = Counter()


class EngineMachine(RuleBasedStateMachine):
    keys = Bundle("keys")  #: (target, disp) pairs already asked for

    @initialize(
        index_entries=index_sizes,
        storage_bytes=storage_sizes,
        mode=st.sampled_from(list(Mode)),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(0, 1 << 16),
    )
    def build(self, index_entries, storage_bytes, mode, policy, seed):
        rng = np.random.default_rng(seed)
        self.memory = {t: rng.integers(0, 256, WINDOW, np.uint8) for t in TARGETS}
        self.charges: list[float] = []
        cfg = Config(
            index_entries=index_entries,
            storage_bytes=storage_bytes,
            mode=mode,
            policy=policy,
            sample_size=4,
            seed=seed,
        )
        self.engine = CacheEngine(cfg, self.fetch, sink=self.charges.append)
        self.writes = 0
        REACHED[mode] += 1
        REACHED[policy] += 1

    def fetch(self, req: CacheGetRequest) -> int:
        """The network get: the model's bytes, now."""
        req.origin[: req.size] = self.memory[req.target][req.disp : req.disp + req.size]
        return req.size

    # -- rules ----------------------------------------------------------
    @rule(target=keys, trg=targets, disp=disps, nbytes=st.integers(1, 96))
    def get(self, trg, disp, nbytes):
        self.serve(trg, disp, nbytes)
        return trg, disp

    @rule(key=keys, nbytes=st.integers(1, 96))
    def get_again(self, key, nbytes):
        """Reuse: a hit, or a partial hit when ``nbytes`` grew."""
        self.serve(*key, nbytes)

    def serve(self, trg, disp, nbytes):
        origin = np.empty(nbytes, np.uint8)  # MPI: untouched until the close
        engine = self.engine
        engine.seq += 1
        engine.size_sum += nbytes
        served = engine.serve(
            CacheGetRequest(origin, trg, disp, nbytes, BYTE, nbytes, (trg, disp))
        )
        assert served == nbytes
        expected = self.memory[trg][disp : disp + nbytes]
        assert np.array_equal(origin, expected), (trg, disp, nbytes)

    @rule(key=keys, shift=st.integers(-64, 64), length=st.integers(1, 64))
    def write(self, key, shift, length):
        """A put near bytes asked for before (overlapping them or not)."""
        trg, disp = key
        lo = max(disp + shift, 0)
        hi = min(lo + length, WINDOW)
        self.writes += 1
        self.memory[trg][lo:hi] = (np.arange(lo, hi) + self.writes) % 256
        self.engine.invalidate_span(trg, lo, hi)

    @rule(only=st.none() | st.sets(targets, min_size=1))
    def close_epoch(self, only):
        self.engine.close_epoch(only)

    @rule()
    def purge(self):
        self.engine.purge()

    @rule(index_entries=index_sizes, storage_bytes=storage_sizes)
    def resize(self, index_entries, storage_bytes):
        self.engine.resize(index_entries, storage_bytes)

    # -- checked after every rule ----------------------------------------
    @invariant()
    def consistent(self):
        engine = self.engine
        engine.check_invariants()
        assert engine.stats.conservation_violations() == []
        total = 0.0
        for dt in self.charges:  # in issue order, as the sink received them
            total += dt
        assert engine.cost.total == total

    def teardown(self):
        t = self.engine.stats.total
        REACHED["capacity_evictions"] += t.capacity_evictions
        REACHED["conflict_evictions"] += t.conflict_evictions
        REACHED["hits"] += t.hits
        REACHED["hit_partial"] += t.hit_partial
        REACHED["hit_pending"] += t.hit_pending
        REACHED["failing"] += t.failing


SETTINGS = settings(
    max_examples=150, stateful_step_count=50, derandomize=True, deadline=None
)


def test_the_machine_reaches_every_path():
    REACHED.clear()
    run_state_machine_as_test(EngineMachine, settings=SETTINGS)
    unreached = [
        name
        for name in (
            *Mode,
            *POLICIES,
            "capacity_evictions",
            "conflict_evictions",
            "hits",
            "hit_partial",
            "hit_pending",
            "failing",
        )
        if not REACHED[name]
    ]
    assert unreached == []
