"""Tests for the policy-matrix ablation's workload pieces (repro.bench.policies).

The matrix itself is ablation A6 (tiny run in test_bench_ablations_smoke.py,
full run in benchmarks/test_figures.py); here we pin the cheap pieces: trace
flattening, the replay program and the snapshot hit counter it reports.
"""

from repro.bench.policies import _flatten_trace, _replay_program
from repro.apps.cachespec import CacheSpec
from repro.core.stats import Counters, snapshot_hits
from repro.mpi import SimMPI
from repro.net import PerfModel
from repro.trace import GetRecord


class TestFlattenTrace:
    def test_distinct_keys_stay_distinct(self):
        records = [
            GetRecord(0, 0, 64),
            GetRecord(1, 0, 64),   # same dsp, different target rank
            GetRecord(2, 0, 64),
            GetRecord(1, 128, 32),
        ]
        gets, window = _flatten_trace(records)
        assert len(set(gets)) == 4
        assert all(dsp + size <= window for dsp, size in gets)

    def test_repeats_collapse_to_same_key(self):
        records = [GetRecord(1, 64, 32)] * 3 + [GetRecord(2, 64, 32)]
        gets, _ = _flatten_trace(records)
        assert gets[0] == gets[1] == gets[2]
        assert gets[3] != gets[0]

    def test_order_preserved(self):
        records = [GetRecord(0, i * 64, 64) for i in range(5)]
        gets, _ = _flatten_trace(records)
        assert [dsp for dsp, _ in gets] == [i * 64 for i in range(5)]


class TestReplayProgram:
    def test_replay_verifies_data_and_returns_snapshot(self):
        gets = [(0, 64), (128, 32), (0, 64), (0, 64)]
        spec = CacheSpec.clampi_fixed(32, 4096, policy="lru")
        mpi = SimMPI(nprocs=2, perf=PerfModel.spread(2))
        snap = mpi.run(_replay_program, gets, 1024, spec)[0]
        assert snap["gets"] == 4
        assert snap["policy"] == "lru"
        assert snapshot_hits(snap) == 2  # both repeats of the first get hit


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
