"""Fast smoke tests of the ablation studies (full runs live in benchmarks/)."""

import pytest

from repro.bench import ablations
from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.reporting import FigureResult


def check_shape(fig: FigureResult):
    assert isinstance(fig, FigureResult)
    assert fig.rows
    for row in fig.rows:
        assert len(row) == len(fig.headers)
    assert fig.claims
    fig.render()


class TestRegistry:
    def test_all_registered_and_documented(self):
        assert len(ALL_ABLATIONS) == 6
        for fn in ALL_ABLATIONS.values():
            assert fn.__doc__


class TestTinyRuns:
    def test_a1_cuckoo(self):
        check_shape(ablations.ablation_cuckoo_hashes(n_distinct=120, z=1200, ps=[2, 4, 8]))

    def test_a2_sample(self):
        check_shape(ablations.ablation_sample_size(n_distinct=120, z=1500, ms=[1, 16, 64]))

    def test_a3_weak_caching(self):
        check_shape(
            ablations.ablation_weak_caching(n_distinct=120, z=1500, budgets=[0, 1, 16])
        )

    def test_a4_allocator(self):
        check_shape(ablations.ablation_allocator_fit(n_distinct=120, z=1500))

    def test_a5_block_size(self):
        check_shape(
            ablations.ablation_native_block_size(
                scale=8, nprocs=4, block_sizes=[128, 1024, 4096]
            )
        )

    def test_a6_policy_matrix(self):
        policies = ["clampi-full", "clampi-temporal", "lru", "slru", "tinylfu"]
        fig = ablations.ablation_policy_matrix(
            nbodies=48, lcc_scale=5, policies=policies
        )
        check_shape(fig)
        # rows = workload x policy, grouped by workload
        assert [r[1] for r in fig.rows] == policies * 3
        assert len({r[0] for r in fig.rows}) == 3
        assert len(fig.claims) == 2
