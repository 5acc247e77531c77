"""Unit tests for the MPI datatype library and flattening (paper Sec. II-B)."""

import numpy as np
import pytest

from repro.mpi import BYTE, FLOAT64, INT32, Contiguous, Indexed, Vector
from repro.mpi.datatypes import Predefined, from_numpy
from repro.mpi.errors import DatatypeError


class TestPredefined:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT32.size == 4
        assert FLOAT64.size == 8

    def test_extent_equals_size(self):
        for dt in (BYTE, INT32, FLOAT64):
            assert dt.extent == dt.size

    def test_blocks_single(self):
        assert FLOAT64.blocks() == [(0, 8)]

    def test_contiguity(self):
        assert INT32.is_contiguous()

    def test_flatten_coalesces_count(self):
        assert INT32.flatten(5) == [(0, 20)]

    def test_from_numpy_roundtrip(self):
        assert from_numpy(np.float64) is FLOAT64
        assert from_numpy(np.uint8) is BYTE
        assert from_numpy(np.int32) is INT32

    def test_from_numpy_unknown_dtype(self):
        dt = from_numpy(np.float16)
        assert dt.size == 2

    def test_size_and_extent_are_stored_values(self):
        """Plain instance attributes, not the base-class properties."""
        assert vars(FLOAT64)["size"] == vars(FLOAT64)["extent"] == 8
        assert FLOAT64.size == 8 and FLOAT64.extent == 8

    def test_identity_ignores_the_stored_values(self):
        twin = Predefined("FLOAT64", np.dtype(np.float64))
        assert twin == FLOAT64 and hash(twin) == hash(FLOAT64)
        assert twin != Predefined("DOUBLE", np.dtype(np.float64))
        assert repr(FLOAT64) == "MPI.FLOAT64"


class TestContiguous:
    def test_size_and_extent(self):
        dt = Contiguous(10, FLOAT64)
        assert dt.size == 80
        assert dt.extent == 80
        assert dt.is_contiguous()

    def test_nested(self):
        dt = Contiguous(3, Contiguous(2, INT32))
        assert dt.size == 24
        assert dt.flatten(2) == [(0, 48)]

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            Contiguous(-1, BYTE)

    def test_transfer_size(self):
        assert Contiguous(4, INT32).transfer_size(3) == 48


class TestVector:
    def test_strided_blocks(self):
        # 3 blocks of 2 int32, stride 4 elements
        dt = Vector(3, 2, 4, INT32)
        assert dt.size == 24
        assert dt.extent == (2 * 4 + 2) * 4
        assert dt.blocks() == [(0, 8), (16, 8), (32, 8)]
        assert not dt.is_contiguous()

    def test_dense_vector_coalesces(self):
        dt = Vector(3, 2, 2, INT32)
        assert dt.blocks() == [(0, 24)]
        assert dt.is_contiguous()

    def test_flatten_multiple_elements(self):
        dt = Vector(2, 1, 2, BYTE)  # blocks at 0 and 2, extent 3
        assert dt.extent == 3
        assert dt.flatten(2) == [(0, 1), (2, 2), (5, 1)]

    def test_overlapping_stride_rejected(self):
        with pytest.raises(DatatypeError):
            Vector(2, 4, 2, BYTE)

    def test_empty_vector(self):
        dt = Vector(0, 2, 4, INT32)
        assert dt.size == 0
        assert dt.extent == 0
        assert dt.flatten(3) == []


class TestIndexed:
    def test_irregular_blocks(self):
        dt = Indexed((2, 1), (0, 4), INT32)
        assert dt.size == 12
        assert dt.extent == 20
        assert dt.blocks() == [(0, 8), (16, 4)]

    def test_adjacent_blocks_coalesce(self):
        dt = Indexed((2, 3), (0, 2), BYTE)
        assert dt.blocks() == [(0, 5)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed((1, 2), (0,), BYTE)

    def test_overlap_rejected(self):
        with pytest.raises(DatatypeError):
            Indexed((4, 2), (0, 2), BYTE).blocks()

    def test_size_of_paper_definition(self):
        """size(x) = sum of block sizes * count (Sec. II-B)."""
        dt = Indexed((3, 5), (0, 10), BYTE)
        assert dt.transfer_size(4) == (3 + 5) * 4


class TestFlattenInvariants:
    def test_flatten_total_equals_size_times_count(self):
        cases = [
            (Contiguous(7, FLOAT64), 3),
            (Vector(4, 2, 5, INT32), 2),
            (Indexed((1, 2, 3), (0, 3, 9), BYTE), 5),
        ]
        for dt, count in cases:
            total = sum(size for _off, size in dt.flatten(count))
            assert total == dt.transfer_size(count)

    def test_flatten_blocks_sorted_and_disjoint(self):
        dt = Vector(5, 3, 7, BYTE)
        blocks = dt.flatten(4)
        for (o1, s1), (o2, _s2) in zip(blocks, blocks[1:]):
            assert o1 + s1 < o2  # disjoint and non-adjacent (coalesced)

    def test_negative_count_rejected(self):
        with pytest.raises(DatatypeError):
            BYTE.flatten(-1)
