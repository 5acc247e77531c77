"""Unit tests for the get-stream format and the locality analyses."""

import numpy as np
import pytest

from repro.trace import (
    GetStream,
    capture,
    concat,
    reuse_fraction,
    reuse_histogram,
    size_distribution,
    working_set_bytes,
    working_set_sizes,
)


def S(*gets):
    """A stream of ``(trg, dsp)`` or ``(trg, dsp, size)`` gets (size 8)."""
    rows = [g if len(g) == 3 else (*g, 8) for g in gets]
    return GetStream(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


class TestGetStream:
    def test_arrays_and_length(self):
        s = GetStream([1, 2], [0, 64], [100, 200])
        assert len(s) == 2
        assert (s.target.dtype, s.disp.dtype, s.nbytes.dtype) == (
            np.int32,
            np.int64,
            np.int64,
        )
        assert s.nbytes.tolist() == [100, 200]
        assert s == S((1, 0, 100), (2, 64, 200))
        assert s != S((1, 0, 100), (2, 64, 201))

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ValueError):
            GetStream([1, 2], [0], [8, 8])

    def test_concat(self):
        assert concat([S((0, 0)), S(), S((1, 8), (2, 16))]) == S((0, 0), (1, 8), (2, 16))
        assert len(concat([])) == 0


class TestCapture:
    def test_capture_records_plain_gets(self):
        from repro.mpi import SimMPI, Window

        def program(m):
            win = Window.allocate(m.comm_world, 256)
            win.lock_all()
            if m.rank == 1:
                buf = np.empty(32, np.uint8)
                win.get(buf, 0, 0)
                win.flush(0)
                win.get_blocking(buf, 0, 64)
                win.get_batch([(buf[:8], 0, 128), (buf[:16], 1, 8)])
                win.flush_all()
            win.unlock_all()

        with capture(2) as streams:
            assert streams == []  # filled when the block exits
            SimMPI(nprocs=2).run(program)
        assert streams == [S(), S((0, 0, 32), (0, 64, 32), (0, 128, 8), (1, 8, 16))]


class TestReuseHistogram:
    def test_basic(self):
        stream = S((0, 0), (0, 0), (0, 0), (1, 0), (1, 8))
        assert reuse_histogram(stream) == {1: 2, 3: 1}

    def test_empty(self):
        assert reuse_histogram(S()) == {}

    def test_reuse_fraction(self):
        assert reuse_fraction(S((0, 0), (0, 0), (0, 0), (1, 0))) == pytest.approx(0.5)
        assert reuse_fraction(S()) == 0.0

    def test_distinct_only(self):
        stream = S(*((0, i) for i in range(10)))
        assert reuse_histogram(stream) == {1: 10}
        assert reuse_fraction(stream) == 0.0


class TestSizeDistribution:
    def test_counts_sum(self):
        stream = S(*((0, i, s) for i, s in enumerate([10, 100, 1000, 10000])))
        _edges, counts = size_distribution(stream)
        assert counts.sum() == 4

    def test_custom_bins(self):
        stream = S((0, 0, 5), (0, 1, 15), (0, 2, 25))
        edges, counts = size_distribution(stream, bin_edges=[0, 10, 20, 30])
        assert counts.tolist() == [1, 1, 1]


class TestWorkingSet:
    def test_distinct_window(self):
        ws = working_set_sizes(S(*((0, i % 3) for i in range(30))), tau=10)
        assert ws[-1] == 3  # only 3 distinct gets in any window

    def test_window_smaller_than_distinct(self):
        ws = working_set_sizes(S(*((0, i) for i in range(20))), tau=5)
        assert ws[-1] == 5

    def test_bytes_footprint(self):
        wb = working_set_bytes(S((0, 0, 100), (0, 1, 200), (0, 0, 100)), tau=10)
        assert wb.tolist() == [100, 300, 300]

    def test_bytes_keeps_largest_size_per_key(self):
        wb = working_set_bytes(S((0, 0, 100), (0, 0, 400)), tau=10)
        assert wb[-1] == 400

    def test_expiry(self):
        stream = S((0, 0, 64), *((0, i + 1, 8) for i in range(10)))
        wb = working_set_bytes(stream, tau=3)
        assert wb[-1] == 3 * 8  # the 64-byte get left the window long ago

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            working_set_sizes(S(), 0)
        with pytest.raises(ValueError):
            working_set_bytes(S(), -1)
