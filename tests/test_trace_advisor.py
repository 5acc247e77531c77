"""Tests for the working-set-based parameter advisor."""

import numpy as np
import pytest

from repro.apps.cachespec import CacheSpec
from repro.bench import make_micro_workload, run_micro
from repro.trace import GetStream, recommend_parameters
from repro.util import KiB


def S(gets, size=64):
    """A stream of ``(trg, dsp)`` gets of ``size`` bytes, or of
    ``(trg, dsp, size)`` gets."""
    rows = [g if len(g) == 3 else (*g, size) for g in gets]
    return GetStream(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


class TestRecommendation:
    def test_empty_trace_gives_minimums(self):
        rec = recommend_parameters(S([]), min_index=128, min_storage=1 * KiB)
        assert rec.index_entries == 128
        assert rec.storage_bytes == 1 * KiB

    def test_peaks_computed(self):
        stream = S([(0, i, 100) for i in range(10)])  # 10 distinct gets
        rec = recommend_parameters(stream)
        assert rec.peak_working_set == 10
        assert rec.peak_footprint == 1000

    def test_index_headroom_over_peak(self):
        rec = recommend_parameters(S([(0, i) for i in range(1000)]), min_index=1)
        assert rec.index_entries > 1000  # load-factor + headroom margin

    def test_storage_covers_aligned_footprint(self):
        stream = S([(0, i * 64, 1) for i in range(100)])  # 1-byte gets
        rec = recommend_parameters(stream, min_storage=1)
        # each 1-byte entry occupies a 64-byte line
        assert rec.storage_bytes >= 100 * 64

    def test_smaller_tau_smaller_recommendation(self):
        # phase-structured access: 100 distinct, but any 10-window sees <= 10
        stream = S([(0, i) for i in range(100)])
        full = recommend_parameters(stream)
        phased = recommend_parameters(stream, tau=10)
        assert phased.index_entries <= full.index_entries

    def test_invalid_headroom(self):
        with pytest.raises(ValueError):
            recommend_parameters(S([(0, 0)]), headroom=0.5)


class TestAdvisorEndToEnd:
    def test_recommended_cache_mostly_hits(self):
        """Size the cache from a workload's stream, run it: high hit rate,
        (almost) no capacity/failing accesses."""
        wl = make_micro_workload(n_distinct=300, z=4000, seed=6)
        rec = recommend_parameters(wl.stream()[0])
        res = run_micro(
            wl, CacheSpec.clampi_fixed(rec.index_entries, rec.storage_bytes)
        )
        s = res.stats
        assert s["capacity"] == 0
        assert s["failing"] == 0
        hits = s["hit_full"] + s["hit_pending"] + s["hit_partial"]
        assert hits / s["gets"] > 0.85

    def test_adaptive_converges_near_recommendation(self):
        """The runtime controller should land in the advisor's ballpark."""
        from repro import clampi

        wl = make_micro_workload(n_distinct=200, z=6000, seed=6)
        rec = recommend_parameters(wl.stream()[0])
        res = run_micro(
            wl,
            CacheSpec.clampi_adaptive(
                64,
                64 * KiB,
                adaptive_params=clampi.AdaptiveParams(check_interval=256),
            ),
        )
        assert res.final_index_entries >= 0.25 * rec.peak_working_set
        assert res.final_storage_bytes >= 0.25 * rec.peak_footprint
