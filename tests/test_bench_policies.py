"""Tests for the policy-matrix ablation's workload pieces (repro.bench.policies).

The matrix itself is ablation A6 (tiny run in test_bench_ablations_smoke.py,
full run in benchmarks/test_figures.py); here we pin the cheap pieces: stream
flattening, its replay through the micro runner and the snapshot hit counter
it reports.
"""

import numpy as np
import pytest

from repro.apps.cachespec import CacheSpec
from repro.bench.micro import replay
from repro.bench.policies import flatten
from repro.core.stats import Counters, snapshot_hits
from repro.runtime import RankFailedError
from repro.trace import GetStream


def S(*gets):
    """A stream of ``(trg, dsp, size)`` gets."""
    return GetStream(*np.array(gets, dtype=np.int64).reshape(-1, 3).T)


def pairs(stream):
    return list(zip(stream.disp.tolist(), stream.nbytes.tolist()))


class TestFlattenTrace:
    def test_distinct_keys_stay_distinct(self):
        # same dsp on different target ranks, split over two source ranks
        gets, window = flatten([S((0, 0, 64), (1, 0, 64)), S((2, 0, 64), (1, 128, 32))])
        assert len(set(pairs(gets))) == 4
        assert all(dsp + size <= window for dsp, size in pairs(gets))
        assert set(gets.target.tolist()) == {1}

    def test_repeats_collapse_to_same_key(self):
        gets, _ = flatten([S(*[(1, 64, 32)] * 3, (2, 64, 32))])
        flat = pairs(gets)
        assert flat[0] == flat[1] == flat[2]
        assert flat[3] != flat[0]

    def test_order_preserved(self):
        gets, _ = flatten([S(*((0, i * 64, 64) for i in range(5)))])
        assert gets.disp.tolist() == [i * 64 for i in range(5)]


class TestReplayProgram:
    def test_replay_verifies_data_and_returns_snapshot(self):
        gets = S((1, 0, 64), (1, 128, 32), (1, 0, 64), (1, 0, 64))
        spec = CacheSpec.clampi_fixed(32, 4096, policy="lru")
        result = replay(gets, 1024, spec)
        snap = result.stats
        assert snap["gets"] == 4
        assert snap["policy"] == "lru"
        assert snapshot_hits(snap) == 2  # both repeats of the first get hit
        assert result.makespan > result.completion_time > 0

    def test_replay_rejects_a_payload_with_wrong_bytes(self):
        class Tampering:
            """Plain windows, with one byte of rank 1's changed."""

            def make_window(self, comm, local):
                win = CacheSpec.fompi().make_window(comm, local)
                local[130] ^= comm.rank
                return win

        gets = S((1, 0, 64), (1, 128, 32))
        with pytest.raises(RankFailedError) as failed:
            replay(gets, 1024, Tampering())
        assert "wrong data at dsp=128" in str(failed.value.__cause__)


class TestHitRate:
    def test_zero_on_empty(self):
        # an uncached run's merged_stats() is {}
        assert snapshot_hits({}) == 0

    def test_counts_all_hit_flavours(self):
        snap = {"gets": 10, "hit_full": 2, "hit_partial": 1, "hit_pending": 1}
        assert snapshot_hits(snap) == 4
        # the dict spelling and the Counters property are one definition
        counters = Counters(hit_full=2, hit_partial=1, hit_pending=1)
        assert snapshot_hits(counters.as_dict()) == counters.hits == 4
