"""Integration tests for the distributed Barnes-Hut application."""

import numpy as np
import pytest

from repro.apps import BarnesHutApp
from repro.apps.barnes_hut import NODE_FLOATS, Octree, morton_order
from repro.apps.cachespec import CacheSpec
from repro.util import KiB, MiB


@pytest.fixture(scope="module")
def app():
    return BarnesHutApp(nbodies=200, seed=7, theta=0.4)


class TestOctree:
    def test_build_covers_all_bodies(self, app):
        tree = app.tree
        # collect leaf body ids
        leaves = [
            int(rec[6]) for rec in tree.nodes if int(rec[5]) == 0 and rec[6] >= 0
        ]
        assert sorted(leaves) == list(range(app.nbodies))

    def test_root_mass_is_total(self, app):
        root = app.tree.nodes[app.tree.root]
        assert root[3] == pytest.approx(app.mass.sum())

    def test_root_com_matches(self, app):
        root = app.tree.nodes[app.tree.root]
        com = (app.pos * app.mass[:, None]).sum(axis=0) / app.mass.sum()
        assert np.allclose(root[0:3], com)

    def test_children_indices_valid(self, app):
        tree = app.tree
        for rec in tree.nodes:
            n = int(rec[5])
            for c in range(n):
                child = int(rec[8 + c])
                assert 0 <= child < tree.nnodes

    def test_internal_mass_is_sum_of_children(self, app):
        tree = app.tree
        for rec in tree.nodes:
            n = int(rec[5])
            if n:
                child_mass = sum(tree.nodes[int(rec[8 + c])][3] for c in range(n))
                assert rec[3] == pytest.approx(child_mass)

    def test_record_width(self, app):
        assert app.tree.nodes.shape[1] == NODE_FLOATS

    def test_single_body_rejected(self):
        with pytest.raises(ValueError):
            BarnesHutApp(nbodies=1)

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            Octree.build(np.empty((0, 3)), np.empty(0))


class TestMortonOrder:
    def test_is_permutation(self, seeded_rng):
        pos = seeded_rng.random((100, 3))
        order = morton_order(pos)
        assert sorted(order.tolist()) == list(range(100))

    def test_locality(self, seeded_rng):
        """Consecutive Morton positions are spatially close on average."""
        pos = seeded_rng.random((500, 3))
        order = morton_order(pos)
        sorted_pos = pos[order]
        consecutive = np.linalg.norm(np.diff(sorted_pos, axis=0), axis=1).mean()
        rand = np.linalg.norm(pos[1:] - pos[:-1], axis=1).mean()
        assert consecutive < rand


class TestForces:
    def test_bh_approximates_brute_force(self, app):
        run = app.run(2, CacheSpec.fompi())
        ref = app.reference_forces()
        rel = np.abs(run.forces - ref).max() / np.abs(ref).max()
        assert rel < 0.05  # theta=0.4 approximation error

    @pytest.mark.parametrize(
        "spec",
        [
            CacheSpec.clampi_fixed(2048, 1 * MiB),
            CacheSpec.clampi_fixed(32, 8 * KiB),  # thrashing
            CacheSpec.clampi_adaptive(128, 16 * KiB),
            CacheSpec.native(memory_bytes=64 * KiB, block_size=128),
        ],
        ids=["clampi", "clampi-tiny", "clampi-adaptive", "native"],
    )
    def test_cached_forces_bit_identical(self, app, spec):
        base = app.run(2, CacheSpec.fompi())
        run = app.run(2, spec)
        assert np.array_equal(run.forces, base.forces)

    def test_smaller_theta_more_accurate(self):
        loose = BarnesHutApp(nbodies=150, seed=5, theta=0.9)
        tight = BarnesHutApp(nbodies=150, seed=5, theta=0.2)
        ref = loose.reference_forces()
        err_loose = np.abs(loose.run(2, CacheSpec.fompi()).forces - ref).max()
        err_tight = np.abs(tight.run(2, CacheSpec.fompi()).forces - ref).max()
        assert err_tight < err_loose

    def test_partition_covers_all_bodies(self, app):
        run = app.run(3, CacheSpec.fompi())
        assert run.forces.shape == (app.nbodies, 3)
        assert not np.any(np.all(run.forces == 0, axis=1))


class TestCachingBehaviour:
    def test_user_defined_mode_forced(self, app):
        from repro import clampi

        run = app.run(2, CacheSpec.clampi_fixed(2048, 1 * MiB))
        assert "CLaMPI" in run.label
        st = run.merged_stats()
        assert st["invalidations"] >= 2  # one explicit invalidate per rank

    def test_caching_speeds_up_force_phase(self, app):
        uncached = app.run(4, CacheSpec.fompi())
        cached = app.run(4, CacheSpec.clampi_fixed(4096, 1 * MiB))
        assert cached.elapsed < 0.7 * uncached.elapsed

    def test_reuse_visible_in_trace(self, app):
        from repro.trace import concat, reuse_histogram

        hist = reuse_histogram(concat(app.stream(4)))
        assert max(hist) > 5  # tree roots are fetched once per body
