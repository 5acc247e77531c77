"""Tests for the repro.obs telemetry subsystem.

Covers the event model, bus enabling semantics (NullSink keeps the bus
disabled), sink behaviour, the instrumentation hooks in the MPI/CLaMPI
layers, the JSONL round-trip, the no-behavioural-change guarantee of the
disabled path, and the report CLI reconstruction of the access breakdown.
"""

import json

import numpy as np
import pytest

from repro import clampi, obs
from repro.mpi import SimMPI
from repro.util import KiB


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


def make_window(m, mode=clampi.Mode.ALWAYS_CACHE, nbytes=64 * KiB, **cfg_kwargs):
    cfg = clampi.Config(**cfg_kwargs) if cfg_kwargs else None
    win = clampi.window_allocate(m.comm_world, nbytes, mode=mode, config=cfg)
    win.local_view(np.uint8)[:] = (np.arange(nbytes) * (m.rank + 3)) % 251
    m.comm_world.barrier()
    return win


def cached_get_program(m):
    """Each rank: one miss then two hits against its neighbour's window."""
    win = make_window(m)
    peer = (m.rank + 1) % m.size
    with win.lock_all_epoch():
        buf = np.empty(256, np.uint8)
        win.get_blocking(buf, peer, 0)
        win.get_blocking(buf, peer, 0)
        win.get_blocking(buf, peer, 0)
    return win.stats.snapshot(), win.stats.breakdown()


# ---------------------------------------------------------------------------
# event model
# ---------------------------------------------------------------------------
class TestEvent:
    def test_json_round_trip(self):
        e = obs.Event(
            obs.RMA_GET,
            rank=2,
            time=1.5e-6,
            epoch=3,
            win=7,
            duration=2e-7,
            attrs={"target": 1, "nbytes": 64},
        )
        back = obs.Event.from_json(e.to_json())
        assert back == e
        assert back.is_span

    def test_counter_event_is_not_span(self):
        e = obs.Event(obs.CACHE_ACCESS, rank=0, time=0.0)
        assert not e.is_span

    def test_all_kinds_is_complete(self):
        assert obs.CACHE_ACCESS in obs.ALL_KINDS
        assert obs.NET_TRANSFER in obs.ALL_KINDS
        assert obs.SCHED_SWITCH in obs.ALL_KINDS


# ---------------------------------------------------------------------------
# bus semantics
# ---------------------------------------------------------------------------
class TestBus:
    def test_disabled_by_default(self):
        bus = obs.EventBus()
        assert not bus.enabled

    def test_ring_buffer_enables(self):
        bus = obs.EventBus()
        sink = bus.attach(obs.RingBufferSink())
        assert bus.enabled
        bus.emit(obs.Event(obs.RMA_GET, rank=0, time=0.0))
        assert len(sink) == 1
        bus.detach(sink)
        assert not bus.enabled

    def test_null_sink_keeps_bus_disabled(self):
        bus = obs.EventBus()
        bus.attach(obs.NullSink())
        assert not bus.enabled

    def test_parent_chaining(self):
        parent = obs.EventBus()
        child = obs.EventBus(parent=parent)
        assert not child.enabled
        sink = parent.attach(obs.RingBufferSink())
        assert child.enabled  # enabled via the parent
        child.emit(obs.Event(obs.CACHE_EVICT, rank=1, time=0.0))
        assert [e.kind for e in sink] == [obs.CACHE_EVICT]
        parent.detach(sink)

    def test_child_sink_does_not_reach_parent(self):
        parent = obs.EventBus()
        child = obs.EventBus(parent=parent)
        local = child.attach(obs.RingBufferSink())
        child.emit(obs.Event(obs.CACHE_EPOCH, rank=0, time=0.0))
        assert len(local) == 1
        assert not parent.enabled

    def test_callback_sink_kind_filter(self):
        seen = []
        bus = obs.EventBus()
        bus.attach(obs.CallbackSink(seen.append, kinds=(obs.RMA_PUT,)))
        bus.emit(obs.Event(obs.RMA_GET, rank=0, time=0.0))
        bus.emit(obs.Event(obs.RMA_PUT, rank=0, time=0.0))
        assert [e.kind for e in seen] == [obs.RMA_PUT]

    def test_capture_detaches_on_exit(self):
        bus = obs.get_bus()
        with obs.capture() as sink:
            assert bus.enabled
            assert isinstance(sink, obs.RingBufferSink)
        assert not bus.enabled


# ---------------------------------------------------------------------------
# instrumentation: events per get, hit vs miss
# ---------------------------------------------------------------------------
class TestInstrumentation:
    def test_cache_access_events_hit_vs_miss(self):
        with obs.capture() as sink:
            results, _ = run(2, cached_get_program)
        for r in range(2):
            accesses = [
                e.attrs["access"]
                for e in sink.events(kind=obs.CACHE_ACCESS, rank=r)
            ]
            assert accesses == ["direct", "hit_full", "hit_full"]
        snap, _ = results[0]
        assert snap["gets"] == 3

    def test_miss_emits_net_transfer_hit_does_not(self):
        with obs.capture() as sink:
            run(2, cached_get_program)
        # per rank: only the miss reaches the raw window (and the wire);
        # the two hits are served from local cache storage.
        gets = sink.events(kind=obs.RMA_GET, rank=0)
        assert len(gets) == 1
        assert gets[0].attrs["nbytes"] == 256
        assert len(sink.events(kind=obs.CACHE_ACCESS, rank=0)) == 3
        transfers = [
            e
            for e in sink.events(kind=obs.NET_TRANSFER, rank=0)
            if e.attrs.get("nbytes", 0) >= 256
        ]
        assert len(transfers) == 1

    def test_events_stamped_with_rank_time_epoch(self):
        with obs.capture() as sink:
            run(2, cached_get_program)
        per_rank = {0: [], 1: []}
        for e in sink.events(kind=obs.CACHE_ACCESS):
            assert e.rank in (0, 1)
            assert e.time >= 0.0
            assert e.win is not None
            per_rank[e.rank].append(e.epoch)
        # eph counts *closed* epochs: each blocking get flushes, so the
        # stamped epoch must be non-decreasing within a rank.
        for epochs in per_rank.values():
            assert epochs == sorted(epochs)

    def test_scheduler_emits_switches(self):
        with obs.capture() as sink:
            run(4, cached_get_program)
        switches = sink.events(kind=obs.SCHED_SWITCH)
        assert len(switches) > 0
        assert {e.rank for e in switches} <= {0, 1, 2, 3}

    def test_epoch_close_emits_cache_epoch(self):
        def program(m):
            win = make_window(m)
            own = win.obs.attach(obs.RingBufferSink())
            peer = (m.rank + 1) % m.size
            buf = np.empty(64, np.uint8)
            with win.lock_all_epoch():
                for _ in range(3):
                    win.get(buf, peer, 0)
                    win.flush(peer)
            samples = [
                (e.attrs["eph"], e.attrs["gets"], e.attrs["hits"])
                for e in own.events(kind=obs.CACHE_EPOCH)
            ]
            return samples, (win.stats.total.gets, win.stats.total.hits)

        with obs.capture() as sink:
            results, _ = run(2, program)
        samples, totals = results[0]
        epochs = sink.events(kind=obs.CACHE_EPOCH, rank=0)
        # the same samples arrive on the global bus and on the window's own
        assert [
            (e.attrs["eph"], e.attrs["gets"], e.attrs["hits"]) for e in epochs
        ] == samples
        assert len(samples) >= 3
        assert samples[-1][1:] == totals

    def test_virtual_time_ledger_notes_runs(self):
        before = obs.virtual_time.runs
        total0 = obs.virtual_time.total
        _, mpi = run(2, cached_get_program)
        assert obs.virtual_time.runs == before + 1
        assert obs.virtual_time.last == pytest.approx(mpi.elapsed)
        assert obs.virtual_time.total == pytest.approx(total0 + mpi.elapsed)


# ---------------------------------------------------------------------------
# JSONL round-trip + report
# ---------------------------------------------------------------------------
class TestJSONL:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        with obs.capture(obs.JSONLSink(path)):
            run(2, cached_get_program)
        from repro.obs import report

        events = report.load_events(path)
        assert events
        # every line is valid JSON and every event survives re-encoding
        for line, e in zip(path.read_text().splitlines(), events):
            assert obs.Event.from_dict(json.loads(line)) == e

    def test_breakdown_matches_live_stats_exactly(self, tmp_path):
        """Acceptance: capture-derived breakdown == CacheStats.breakdown()."""
        path = tmp_path / "capture.jsonl"
        with obs.capture(obs.JSONLSink(path)):
            results, _ = run(4, cached_get_program)
        from repro.obs import report

        events = report.load_events(path)
        for rank, (_snap, live_breakdown) in enumerate(results):
            assert report.access_breakdown(events, rank=rank) == live_breakdown

    def test_report_renders_sections(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        with obs.capture(obs.JSONLSink(path)):
            run(2, cached_get_program)
        from repro.obs import report

        text = report.render_report(report.load_events(path))
        assert "per-rank summary" in text
        assert "access breakdown" in text
        assert "contributors" in text

    def test_cli_report(self, tmp_path, capsys):
        path = tmp_path / "capture.jsonl"
        with obs.capture(obs.JSONLSink(path)):
            run(2, cached_get_program)
        from repro.obs.__main__ import main

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "access breakdown" in out

        assert main(["report", str(path), "--breakdown"]) == 0
        out = capsys.readouterr().out
        assert "rank 0:" in out and "hit_full=" in out

    def test_cli_missing_capture(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read capture" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# disabled path: no behavioural change
# ---------------------------------------------------------------------------
class TestNullSinkNoChange:
    def test_cache_decisions_and_virtual_time_identical(self):
        def once():
            mpi = SimMPI(nprocs=2)
            results = mpi.run(cached_get_program)
            return [snap for snap, _ in results], mpi.elapsed

        baseline_stats, baseline_elapsed = once()

        null = obs.get_bus().attach(obs.NullSink())
        try:
            assert not obs.get_bus().enabled
            null_stats, null_elapsed = once()
        finally:
            obs.get_bus().detach(null)

        with obs.capture():
            ring_stats, ring_elapsed = once()

        assert null_stats == baseline_stats
        assert null_elapsed == baseline_elapsed
        # even the *enabled* path must not change simulation results
        assert ring_stats == baseline_stats
        assert ring_elapsed == baseline_elapsed

    def test_disabled_bus_skips_event_construction(self, monkeypatch):
        """Hot paths gate on bus.enabled before building Event objects."""
        constructed = []
        real_init = obs.Event.__init__

        def counting_init(self, *a, **k):
            constructed.append(1)
            real_init(self, *a, **k)

        monkeypatch.setattr(obs.Event, "__init__", counting_init)
        run(2, cached_get_program)
        assert not constructed
        # sanity: the hook does fire once the bus is enabled
        with obs.capture():
            run(2, cached_get_program)
        assert constructed

    def test_sinkless_run_builds_zero_events_across_op_kinds(
        self, monkeypatch
    ):
        """Get, put, accumulate, flush, fence and epoch close all stay
        allocation-free for telemetry when no sink is attached."""

        def mixed_program(m):
            win = make_window(m)
            peer = (m.rank + 1) % m.size
            buf = np.empty(256, np.uint8)
            out = np.arange(256, dtype=np.uint8)
            with win.lock_all_epoch():
                win.get_blocking(buf, peer, 0)
                win.put(out, peer, 0)
                win.flush(peer)
                win.flush_all()
            win.fence()
            win.fence()
            return int(buf[0])

        constructed = []
        real_init = obs.Event.__init__

        def counting_init(self, *a, **k):
            constructed.append(1)
            real_init(self, *a, **k)

        monkeypatch.setattr(obs.Event, "__init__", counting_init)
        run(2, mixed_program)
        assert not constructed

    def test_kind_gate_skips_unwanted_event_construction(self, monkeypatch):
        """A sink subscribed to one kind must not force construction of
        the kinds nobody consumes (bus.wants() gating, not just .enabled)."""
        built = []
        real_init = obs.Event.__init__

        def counting_init(self, kind, *a, **k):
            built.append(kind)
            real_init(self, kind, *a, **k)

        monkeypatch.setattr(obs.Event, "__init__", counting_init)
        seen = []
        sink = obs.CallbackSink(seen.append, kinds=(obs.CACHE_ACCESS,))
        bus = obs.get_bus()
        bus.attach(sink)
        try:
            run(2, cached_get_program)
        finally:
            bus.detach(sink)
        assert built, "subscribed kind must still be emitted"
        assert set(built) == {obs.CACHE_ACCESS}
        assert [e.kind for e in seen] == built
