"""Integration tests for the distributed LCC application."""

import numpy as np
import pytest

from repro import clampi
from repro.apps import LCCApp
from repro.apps.cachespec import CacheSpec
from repro.util import KiB, MiB


@pytest.fixture(scope="module")
def app():
    return LCCApp(scale=7, edge_factor=8, seed=3)


class TestCorrectness:
    def test_matches_sequential_reference(self, app):
        run = app.run(4, CacheSpec.fompi())
        assert np.allclose(run.lcc, app.reference_lcc())

    def test_matches_networkx(self, app):
        nx = pytest.importorskip("networkx")
        run = app.run(4, CacheSpec.clampi_fixed(2048, 2 * MiB))
        src, dst = app._edges
        G = nx.Graph()
        G.add_nodes_from(range(app.nvertices))
        G.add_edges_from(zip(src.tolist(), dst.tolist()))
        ref = nx.clustering(G)
        for v in range(app.nvertices):
            assert run.lcc[v] == pytest.approx(ref[v]), f"vertex {v}"

    @pytest.mark.parametrize(
        "spec",
        [
            CacheSpec.fompi(),
            CacheSpec.clampi_fixed(1024, 1 * MiB),
            CacheSpec.clampi_fixed(64, 32 * KiB),  # thrashing cache
            CacheSpec.clampi_adaptive(128, 64 * KiB),
        ],
        ids=["fompi", "clampi", "clampi-tiny", "clampi-adaptive"],
    )
    def test_all_cache_variants_identical(self, app, spec):
        baseline = app.run(3, CacheSpec.fompi())
        run = app.run(3, spec)
        assert np.array_equal(run.lcc, baseline.lcc)

    def test_single_rank(self, app):
        run = app.run(1, CacheSpec.clampi_fixed(1024, 1 * MiB))
        assert np.allclose(run.lcc, app.reference_lcc())
        # no remote ranks: everything is a local memory access, no gets
        assert run.merged_stats().get("gets", 0) == 0


class TestPerformanceShape:
    def test_caching_reduces_network_traffic(self, app):
        uncached = app.run(4, CacheSpec.fompi())
        cached = app.run(4, CacheSpec.clampi_fixed(4096, 4 * MiB))
        st = cached.merged_stats()
        assert st["hit_full"] + st["hit_pending"] > 0
        assert cached.elapsed < uncached.elapsed

    def test_always_cache_mode_default(self, app):
        spec = CacheSpec.clampi_fixed(1024, 1 * MiB)
        assert spec.mode is clampi.Mode.ALWAYS_CACHE

    def test_deterministic_virtual_time(self, app):
        a = app.run(4, CacheSpec.clampi_fixed(1024, 1 * MiB))
        b = app.run(4, CacheSpec.clampi_fixed(1024, 1 * MiB))
        assert a.elapsed == b.elapsed
        assert a.rank_times == b.rank_times

    def test_vertex_time_positive_and_consistent(self, app):
        run = app.run(4, CacheSpec.fompi())
        assert run.vertex_time > 0
        assert run.elapsed == max(run.rank_times)

    def test_trace_collection(self, app):
        streams = app.stream(4)
        assert len(streams) == 4
        assert sum(map(len, streams)) > 0
        # every get targets a remote rank's window
        for rank, s in enumerate(streams):
            assert rank not in s.target.tolist()


class TestValidation:
    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            LCCApp(scale=1)
