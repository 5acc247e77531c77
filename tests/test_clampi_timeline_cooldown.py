"""Tests for the epoch timeline, read from the ``cache.epoch`` events.

A cached window publishes one ``cache.epoch`` event per epoch close, with
the cumulative ``gets`` and ``hits`` at the closed epoch ``eph``; a
capture of those events is the per-rank timeline, and
``repro.obs.report.per_rank_timeline`` rebuilds it from a JSONL capture.
"""

import numpy as np

from repro import clampi, obs
from repro.mpi import SimMPI
from repro.obs.report import load_events, per_rank_timeline
from repro.util import KiB


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


def timeline_of(sink, rank=0):
    """``[(eph, gets, hits), ...]`` of one rank's captured epoch closes."""
    return [
        (e.attrs["eph"], e.attrs["gets"], e.attrs["hits"])
        for e in sink.events(kind=obs.CACHE_EPOCH, rank=rank)
    ]


def five_gets(m):
    """Rank 0 gets the same 64 bytes from rank 1 five times."""
    win = clampi.window_allocate(
        m.comm_world, 4 * KiB, mode=clampi.Mode.ALWAYS_CACHE
    )
    m.comm_world.barrier()
    if m.rank != 0:
        return
    buf = np.empty(64, np.uint8)
    win.lock_all()
    for _ in range(5):
        win.get_blocking(buf, 1, 0)
    win.unlock_all()


class TestTimeline:
    def test_disabled_by_default(self):
        # Nobody listens, so the window builds no epoch samples at all.
        def program(m):
            win = clampi.window_allocate(m.comm_world, 1024)
            return win.obs.wants(obs.CACHE_EPOCH)

        results, _ = run(1, program)
        assert results == [False]

    def test_samples_at_every_epoch_close(self):
        with obs.capture() as sink:
            run(2, five_gets)
        timeline = timeline_of(sink)
        assert len(timeline) == 6  # 5 flushes + unlock_all
        ephs = [t[0] for t in timeline]
        assert ephs == sorted(ephs)
        gets = [t[1] for t in timeline]
        hits = [t[2] for t in timeline]
        assert gets[-1] == 5
        assert hits[-1] == 4  # everything after the first get hit

    def test_hit_ratio_rises_as_cache_warms(self):
        def program(m):
            win = clampi.window_allocate(
                m.comm_world, 16 * KiB, mode=clampi.Mode.ALWAYS_CACHE
            )
            m.comm_world.barrier()
            if m.rank != 0:
                return
            rng = np.random.default_rng(1)
            buf = np.empty(64, np.uint8)
            win.lock_all()
            for _ in range(200):
                win.get_blocking(buf, 1, int(rng.integers(0, 32)) * 64)
            win.unlock_all()

        with obs.capture(obs.RingBufferSink(capacity=None)) as sink:
            run(2, program)
        timeline = timeline_of(sink)
        early = timeline[20]
        late = timeline[-1]
        assert late[2] / late[1] > early[2] / early[1]

    def test_report_rebuilds_the_timeline_from_jsonl(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        with obs.capture() as ring, obs.capture(obs.JSONLSink(path)):
            run(2, five_gets)
        in_run = timeline_of(ring)
        assert len(in_run) == 6
        assert [t[0] for t in in_run] == sorted(t[0] for t in in_run)
        assert in_run[-1][1:] == (5, 4)
        assert per_rank_timeline(load_events(path))[0] == in_run
