"""Unit tests for the eviction engine (victim sampling and scoring)."""

import pytest

from repro.core.cuckoo import CuckooIndex
from repro.core.entry import CacheEntry
from repro.core.eviction import EvictionEngine
from repro.core.states import EntryState
from repro.core.storage import Storage
from repro.mpi import BYTE


def cached_entry(idx, storage, trg, dsp, size, last=1):
    e = CacheEntry(trg, dsp, BYTE, size)
    e.last = last
    assert idx.insert(e).success
    e.desc = storage.allocate(size)
    assert e.desc is not None
    e.desc.entry = e
    e.state = EntryState.PENDING
    e.state = EntryState.CACHED
    return e


def make_engine(capacity=64, storage_bytes=8192, policy="clampi-full", M=4):
    idx = CuckooIndex(capacity, seed=2)
    st = Storage(storage_bytes)
    return idx, st, EvictionEngine(idx, st, policy, sample_size=M, seed=3)


class TestSampling:
    def test_empty_index_returns_none(self):
        _idx, _st, ev = make_engine()
        res = ev.sample_capacity_victim(seq_index=1, avg_get_size=100)
        assert res.victim is None
        assert res.visited == 64  # scanned the whole table

    def test_finds_the_only_entry(self):
        idx, st, ev = make_engine()
        e = cached_entry(idx, st, 0, 0, 64)
        res = ev.sample_capacity_victim(10, 64.0)
        assert res.victim is e
        assert res.nonempty >= 1

    def test_visits_at_least_sample_size(self):
        idx, st, ev = make_engine(M=8)
        for i in range(16):
            cached_entry(idx, st, 0, i * 64, 64)
        res = ev.sample_capacity_victim(20, 64.0)
        assert res.visited >= 8

    def test_sparse_index_visits_more(self):
        idx, st, ev = make_engine(capacity=512, M=4)
        cached_entry(idx, st, 0, 0, 64)  # single entry in a big table
        res = ev.sample_capacity_victim(2, 64.0)
        assert res.visited > 4  # had to scan past empties

    def test_pending_entries_not_evictable(self):
        idx, st, ev = make_engine()
        e = CacheEntry(0, 0, BYTE, 64)
        e.last = 1
        idx.insert(e)
        e.desc = st.allocate(64)
        e.state = EntryState.PENDING
        res = ev.sample_capacity_victim(5, 64.0)
        assert res.victim is None
        assert res.nonempty >= 1  # it was visited, just not evictable

    def test_lowest_score_selected(self):
        idx, st, ev = make_engine(capacity=32, M=32)  # sample everything
        stale = cached_entry(idx, st, 0, 0, 64, last=1)
        fresh = cached_entry(idx, st, 0, 64, 64, last=99)
        res = ev.sample_capacity_victim(seq_index=100, avg_get_size=0.0)
        # ags == 0 neutralises the positional part: pure LRU decision
        assert res.victim is stale
        assert res.victim is not fresh


class TestPolicies:
    def test_temporal_ignores_position(self):
        idx, st, ev = make_engine(policy="clampi-temporal")
        e = cached_entry(idx, st, 0, 0, 64, last=50)
        assert ev.score(e, 100, 1e9) == pytest.approx(0.5)

    def test_positional_ignores_time(self):
        idx, st, ev = make_engine(policy="clampi-positional")
        e = cached_entry(idx, st, 0, 0, 64, last=1)
        s1 = ev.score(e, 10, 100.0)
        e.last = 9
        assert ev.score(e, 10, 100.0) == s1

    def test_full_is_product(self):
        idx, st, ev_full = make_engine(policy="clampi-full")
        e = cached_entry(idx, st, 0, 0, 64, last=5)
        ev_t = EvictionEngine(idx, st, "clampi-temporal", 4)
        ev_p = EvictionEngine(idx, st, "clampi-positional", 4)
        assert ev_full.score(e, 10, 100.0) == pytest.approx(
            ev_t.score(e, 10, 100.0) * ev_p.score(e, 10, 100.0)
        )


class TestConflictVictim:
    def test_picks_lowest_score_on_path(self):
        idx, st, ev = make_engine()
        a = cached_entry(idx, st, 0, 0, 64, last=1)
        b = cached_entry(idx, st, 0, 64, 64, last=90)
        victim = ev.select_conflict_victim([a, b], 100, 0.0)
        assert victim is a

    def test_excludes_requested_entry(self):
        idx, st, ev = make_engine()
        a = cached_entry(idx, st, 0, 0, 64, last=1)
        b = cached_entry(idx, st, 0, 64, 64, last=90)
        victim = ev.select_conflict_victim([a, b], 100, 0.0, exclude=a)
        assert victim is b

    def test_skips_non_cached(self):
        idx, st, ev = make_engine()
        pending = CacheEntry(0, 0, BYTE, 64)
        pending.state = EntryState.PENDING
        assert ev.select_conflict_victim([pending], 10, 0.0) is None

    def test_empty_path(self):
        _idx, _st, ev = make_engine()
        assert ev.select_conflict_victim([], 10, 0.0) is None
