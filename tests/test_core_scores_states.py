"""Unit tests for entry scores, the state machine and stats accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import full_score, positional_score, temporal_score
from repro.core.states import EntryState, IllegalTransition, check_transition
from repro.core.stats import AccessType, CacheStats, Counters, merge_snapshots


class TestPositionalScore:
    def test_perfect_fit_scores_zero(self):
        """d_c == ags: evicting frees exactly a usable hole -> best victim."""
        assert positional_score(1024.0, 1024) == 0.0

    def test_no_adjacent_free_scores_high(self):
        assert positional_score(1024.0, 0) == 1.0

    def test_clamped_to_one(self):
        assert positional_score(100.0, 100000) == 1.0

    def test_between(self):
        assert positional_score(1000.0, 500) == pytest.approx(0.5)

    def test_zero_ags_neutral(self):
        assert positional_score(0.0, 512) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            positional_score(-1.0, 0)
        with pytest.raises(ValueError):
            positional_score(1.0, -1)


class TestTemporalScore:
    def test_recently_matched_scores_high(self):
        assert temporal_score(100, 100) == 1.0

    def test_stale_scores_low(self):
        assert temporal_score(1, 1000) == pytest.approx(0.001)

    def test_lru_ordering(self):
        i = 500
        assert temporal_score(499, i) > temporal_score(100, i) > temporal_score(3, i)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            temporal_score(1, 0)


class TestFullScore:
    def test_product_in_unit_interval(self):
        s = full_score(1000.0, 300, 40, 100)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(positional_score(1000.0, 300) * 0.4)

    @settings(max_examples=100, deadline=None)
    @given(
        ags=st.floats(0.0, 1e6, allow_nan=False),
        d_c=st.integers(0, 1 << 20),
        last=st.integers(0, 1000),
        i=st.integers(1, 1000),
    )
    def test_property_bounded(self, ags, d_c, last, i):
        assert 0.0 <= full_score(ags, d_c, last, i) <= 1.0


class TestStateMachine:
    def test_legal_lifecycle(self):
        check_transition(EntryState.MISSING, EntryState.PENDING)
        check_transition(EntryState.PENDING, EntryState.CACHED)
        check_transition(EntryState.CACHED, EntryState.MISSING)

    def test_invalidation_of_pending(self):
        check_transition(EntryState.PENDING, EntryState.MISSING)

    def test_partial_hit_refetch(self):
        check_transition(EntryState.CACHED, EntryState.PENDING)

    def test_self_transition_allowed(self):
        check_transition(EntryState.CACHED, EntryState.CACHED)

    def test_illegal_transitions_rejected(self):
        with pytest.raises(IllegalTransition):
            check_transition(EntryState.MISSING, EntryState.CACHED)

    def test_all_nonlisted_pairs_rejected(self):
        legal = {
            (EntryState.MISSING, EntryState.PENDING),
            (EntryState.PENDING, EntryState.CACHED),
            (EntryState.CACHED, EntryState.MISSING),
            (EntryState.PENDING, EntryState.MISSING),
            (EntryState.CACHED, EntryState.PENDING),
        }
        for old in EntryState:
            for new in EntryState:
                if old == new or (old, new) in legal:
                    check_transition(old, new)
                else:
                    with pytest.raises(IllegalTransition):
                        check_transition(old, new)


class TestStats:
    def test_access_recording(self):
        s = CacheStats()
        s.record_access(AccessType.HIT_FULL)
        s.record_access(AccessType.DIRECT)
        s.record_access(AccessType.FAILING)
        assert s.total.gets == 3
        assert s.total.hits == 1
        assert s.total.misses == 2
        assert s.total.hit_ratio == pytest.approx(1 / 3)

    def test_interval_resets_independently(self):
        s = CacheStats()
        s.record_access(AccessType.DIRECT)
        s.reset_interval()
        s.record_access(AccessType.HIT_FULL)
        assert s.total.gets == 2
        assert s.interval.gets == 1
        assert s.interval.hit_ratio == 1.0

    def test_eviction_recording(self):
        s = CacheStats()
        s.record_eviction(20, 5, conflict=False)
        s.record_eviction(0, 0, conflict=True)
        assert s.total.evictions == 2
        assert s.total.capacity_evictions == 1
        assert s.total.conflict_evictions == 1
        assert s.total.eviction_visited == 20
        assert s.total.eviction_nonempty == 5

    def test_breakdown_sums_to_one_when_all_classified(self):
        s = CacheStats()
        for a in AccessType:
            s.record_access(a)
        assert sum(s.breakdown().values()) == pytest.approx(1.0)

    def test_ratios_zero_on_empty(self):
        c = Counters()
        assert c.hit_ratio == 0.0
        assert c.conflict_ratio == 0.0

    def test_snapshot_is_plain_dict(self):
        s = CacheStats()
        s.record_access(AccessType.CAPACITY)
        snap = s.snapshot()
        assert snap["capacity"] == 1
        assert isinstance(snap, dict)

    def test_merge_snapshots_mixed_keys(self):
        a, b = CacheStats(policy="lru"), CacheStats(policy="lru")
        a.record_access(AccessType.HIT_FULL)
        b.record_access(AccessType.DIRECT)
        merged = merge_snapshots(
            [a.snapshot(), b.snapshot(), {"gets": 2, "block_hits": 5}]
        )
        assert "schema_version" not in merged and "policy" not in merged
        assert list(merged)[: len(a.total.as_dict())] == list(a.total.as_dict())
        assert list(merged)[-1] == "block_hits"  # first seen in the last rank
        assert (merged["gets"], merged["hit_full"], merged["direct"]) == (4, 1, 1)
        assert merged["block_hits"] == 5

    def test_merge_snapshots_all_empty(self):
        assert merge_snapshots([]) == {}
        assert merge_snapshots([{}, {}]) == {}
