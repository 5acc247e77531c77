"""Unit tests for 1-D partitioning and the distributed CSR graph."""

import numpy as np
import pytest

from repro.apps.cachespec import CacheSpec
from repro.graph import BlockPartition, CSRGraph, DistributedGraph, rmat_graph
from repro.mpi import SimMPI


class TestBlockPartition:
    def test_even_split(self):
        p = BlockPartition(100, 4)
        assert [p.size_of(i) for i in range(4)] == [25, 25, 25, 25]

    def test_uneven_split_last_smaller(self):
        p = BlockPartition(10, 3)
        assert [p.size_of(i) for i in range(3)] == [4, 4, 2]

    def test_more_parts_than_items(self):
        p = BlockPartition(2, 5)
        assert [p.size_of(i) for i in range(5)] == [1, 1, 0, 0, 0]

    def test_owner_roundtrip(self):
        p = BlockPartition(97, 8)
        for item in range(97):
            owner = p.owner(item)
            lo, hi = p.range_of(owner)
            assert lo <= item < hi

    def test_owners_vectorised_matches_scalar(self):
        p = BlockPartition(57, 5)
        items = np.arange(57)
        assert all(p.owners(items)[i] == p.owner(i) for i in range(57))

    def test_local_index(self):
        p = BlockPartition(30, 3)
        assert p.local_index(0) == 0
        assert p.local_index(10) == 0
        assert p.local_index(29) == 9

    def test_ranges_cover_everything(self):
        p = BlockPartition(41, 7)
        covered = []
        for i in range(7):
            lo, hi = p.range_of(i)
            covered.extend(range(lo, hi))
        assert covered == list(range(41))

    def test_out_of_range(self):
        p = BlockPartition(10, 2)
        with pytest.raises(ValueError):
            p.owner(10)
        with pytest.raises(ValueError):
            p.range_of(2)


class TestDistributedGraph:
    @staticmethod
    def _build_and_fetch(nprocs, scale=6, spec=None):
        spec = spec or CacheSpec.fompi()
        src, dst = rmat_graph(scale, 600, seed=8)
        csr = CSRGraph.from_edges(src, dst, 1 << scale)

        def program(mpi):
            g = DistributedGraph.build(
                mpi.comm_world, src, dst, csr.nvertices,
                lambda comm, buf: spec.make_window(comm, buf), csr=csr,
            )
            mpi.comm_world.barrier()
            g.window.lock_all()
            fetched = {}
            for v in range(csr.nvertices):
                deg = g.degree(v)
                buf = np.empty(deg, np.int64)
                owner, count = g.fetch_adjacency(v, buf)
                if owner != mpi.rank:
                    g.window.flush(owner)
                fetched[v] = buf.copy()
                assert count == deg
            g.window.unlock_all()
            return fetched

        return csr, SimMPI(nprocs=nprocs).run(program)

    def test_remote_adjacency_matches_csr(self):
        csr, results = self._build_and_fetch(4)
        for fetched in results:
            for v, adj in fetched.items():
                assert np.array_equal(adj, csr.neighbors(v)), f"vertex {v}"

    def test_with_clampi_cache(self):
        from repro.util import MiB

        csr, results = self._build_and_fetch(
            3, spec=CacheSpec.clampi_fixed(1024, 1 * MiB)
        )
        for fetched in results:
            for v, adj in fetched.items():
                assert np.array_equal(adj, csr.neighbors(v))

    def test_locate_is_remote_location_per_vertex(self):
        """Uneven blocks (64 vertices on 3 ranks), every vertex at once."""
        src, dst = rmat_graph(6, 600, seed=8)
        csr = CSRGraph.from_edges(src, dst, 64)

        def program(mpi):
            g = DistributedGraph.build(
                mpi.comm_world, src, dst, 64,
                lambda comm, buf: CacheSpec.fompi().make_window(comm, buf), csr=csr,
            )
            located = zip(*(a.tolist() for a in g.locate(np.arange(64))))
            return list(located) == [g.remote_location(v) for v in range(64)]

        assert SimMPI(nprocs=3).run(program) == [True] * 3

    def test_local_vertices_partitioned(self):
        src, dst = rmat_graph(5, 100, seed=8)
        csr = CSRGraph.from_edges(src, dst, 32)

        def program(mpi):
            g = DistributedGraph.build(
                mpi.comm_world, src, dst, 32,
                lambda comm, buf: CacheSpec.fompi().make_window(comm, buf), csr=csr,
            )
            return list(g.local_vertices)

        results = SimMPI(nprocs=4).run(program)
        merged = [v for r in results for v in r]
        assert merged == list(range(32))

    def test_local_adjacency_rejects_remote_vertex(self):
        from repro.runtime import RankFailedError

        src, dst = rmat_graph(5, 100, seed=8)
        csr = CSRGraph.from_edges(src, dst, 32)

        def program(mpi):
            g = DistributedGraph.build(
                mpi.comm_world, src, dst, 32,
                lambda comm, buf: CacheSpec.fompi().make_window(comm, buf), csr=csr,
            )
            other = (g.hi + 1) % 32
            if not (g.lo <= other < g.hi):
                g.local_adjacency(other)

        with pytest.raises(RankFailedError):
            SimMPI(nprocs=2).run(program)
