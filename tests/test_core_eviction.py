"""Unit tests for the cache engine's victim selection (sampling and scoring)."""

import numpy as np
import pytest

from repro.core.config import Config, Mode
from repro.core.engine import CacheEngine, CacheGetRequest
from repro.core.entry import CacheEntry
from repro.core.states import EntryState
from repro.core.stats import AccessType
from repro.mpi import BYTE


def cached_entry(engine, trg, dsp, size, last=1):
    e = CacheEntry(trg, dsp, BYTE, size)
    e.last = last
    assert engine.index.insert(e).success
    e.desc = engine.storage.allocate(size)
    assert e.desc is not None
    e.desc.entry = e
    e.state = EntryState.PENDING
    e.state = EntryState.CACHED
    return e


def make_engine(capacity=64, storage_bytes=8192, policy="clampi-full", M=4):
    cfg = Config(
        index_entries=capacity,
        storage_bytes=storage_bytes,
        policy=policy,
        sample_size=M,
        seed=2,  # index seed 2, victim RNG seed 3
    )
    return CacheEngine(cfg, fetch=None)


def at(engine, seq_index, avg_get_size):
    """Put ``engine`` at get ``seq_index`` with average size ``avg_get_size``."""
    engine.seq = seq_index
    engine.size_sum = seq_index * avg_get_size
    return engine


class TestSampling:
    def test_empty_index_returns_none(self):
        ev = at(make_engine(), 1, 100)
        victim, visited, _nonempty, _score = ev.sample_capacity_victim()
        assert victim is None
        assert visited == 64  # scanned the whole table

    def test_finds_the_only_entry(self):
        ev = make_engine()
        e = cached_entry(ev, 0, 0, 64)
        victim, _visited, nonempty, _score = at(ev, 10, 64.0).sample_capacity_victim()
        assert victim is e
        assert nonempty >= 1

    def test_visits_at_least_sample_size(self):
        ev = make_engine(M=8)
        for i in range(16):
            cached_entry(ev, 0, i * 64, 64)
        _victim, visited, _nonempty, _score = at(ev, 20, 64.0).sample_capacity_victim()
        assert visited >= 8

    def test_sparse_index_visits_more(self):
        ev = make_engine(capacity=512, M=4)
        cached_entry(ev, 0, 0, 64)  # single entry in a big table
        _victim, visited, _nonempty, _score = at(ev, 2, 64.0).sample_capacity_victim()
        assert visited > 4  # had to scan past empties

    def test_pending_entries_not_evictable(self):
        ev = make_engine()
        e = CacheEntry(0, 0, BYTE, 64)
        e.last = 1
        ev.index.insert(e)
        e.desc = ev.storage.allocate(64)
        e.state = EntryState.PENDING
        victim, _visited, nonempty, _score = at(ev, 5, 64.0).sample_capacity_victim()
        assert victim is None
        assert nonempty >= 1  # it was visited, just not evictable

    def test_lowest_score_selected(self):
        ev = make_engine(capacity=32, M=32)  # sample everything
        stale = cached_entry(ev, 0, 0, 64, last=1)
        fresh = cached_entry(ev, 0, 64, 64, last=99)
        victim, _visited, _nonempty, score = at(ev, 100, 0.0).sample_capacity_victim()
        # ags == 0 neutralises the positional part: pure LRU decision
        assert victim is stale
        assert victim is not fresh
        assert score == ev.score(stale)


class TestPolicies:
    def test_temporal_ignores_position(self):
        ev = make_engine(policy="clampi-temporal")
        e = cached_entry(ev, 0, 0, 64, last=50)
        assert at(ev, 100, 1e9).score(e) == pytest.approx(0.5)

    def test_positional_ignores_time(self):
        ev = at(make_engine(policy="clampi-positional"), 10, 100.0)
        e = cached_entry(ev, 0, 0, 64, last=1)
        s1 = ev.score(e)
        e.last = 9
        assert ev.score(e) == s1

    def test_full_is_product(self):
        ev_full = at(make_engine(policy="clampi-full"), 10, 100.0)
        e = cached_entry(ev_full, 0, 0, 64, last=5)
        ev_t = at(make_engine(policy="clampi-temporal"), 10, 100.0)
        ev_p = at(make_engine(policy="clampi-positional"), 10, 100.0)
        # d_c is read off the entry's own descriptor links
        assert ev_full.score(e) == pytest.approx(ev_t.score(e) * ev_p.score(e))


class TestConflictVictim:
    def test_picks_lowest_score_on_path(self):
        ev = make_engine()
        a = cached_entry(ev, 0, 0, 64, last=1)
        b = cached_entry(ev, 0, 64, 64, last=90)
        victim, score = at(ev, 100, 0.0).select_conflict_victim([a, b])
        assert victim is a
        assert score == ev.score(a)

    def test_excludes_requested_entry(self):
        ev = make_engine()
        a = cached_entry(ev, 0, 0, 64, last=1)
        b = cached_entry(ev, 0, 64, 64, last=90)
        victim, _score = at(ev, 100, 0.0).select_conflict_victim([a, b], exclude=a)
        assert victim is b

    def test_skips_non_cached(self):
        ev = at(make_engine(), 10, 0.0)
        pending = CacheEntry(0, 0, BYTE, 64)
        pending.state = EntryState.PENDING
        assert ev.select_conflict_victim([pending]) == (None, float("inf"))

    def test_empty_path(self):
        ev = at(make_engine(), 10, 0.0)
        assert ev.select_conflict_victim([])[0] is None


class TestOversizedFailFast:
    """Sec. III-D2: a get that can never be stored fails before it evicts."""

    @staticmethod
    def serve(engine, disp, nbytes):
        origin = np.zeros(nbytes, np.uint8)
        engine.seq += 1
        engine.size_sum += nbytes
        return engine.serve(
            CacheGetRequest(origin, 0, disp, nbytes, BYTE, nbytes, (0, disp))
        )

    def test_the_aligned_size_is_what_must_fit(self):
        """90 B fit in 100 B, but the 128 B region it needs does not: the
        get fails fast, and the entry already cached survives."""
        engine = CacheEngine(
            Config(mode=Mode.ALWAYS_CACHE, storage_bytes=100),
            lambda req: req.size,
        )
        self.serve(engine, 0, 64)
        engine.close_epoch()
        first = engine.index.lookup((0, 0))[0]
        assert first is not None and first.state is EntryState.CACHED
        self.serve(engine, 512, 90)
        t = engine.stats.total
        assert (t.evictions, t.failing, t.direct) == (0, 1, 1)
        assert engine.stats.last_access is AccessType.FAILING
        assert engine.index.lookup((0, 0))[0] is first
        assert first.state is EntryState.CACHED
        assert engine.index.lookup((0, 512))[0] is None
        assert len(engine.index) == 1
        engine.check_invariants()

    def test_an_aligned_size_that_fits_is_stored(self):
        engine = CacheEngine(
            Config(mode=Mode.ALWAYS_CACHE, storage_bytes=128),
            lambda req: req.size,
        )
        self.serve(engine, 0, 90)
        assert engine.stats.last_access is AccessType.DIRECT
