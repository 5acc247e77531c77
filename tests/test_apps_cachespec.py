"""Unit tests for the cache-configuration switch used by all applications."""

import numpy as np
import pytest

from repro import clampi
from repro.apps.cachespec import CacheKind, CacheSpec, cache_stats_of
from repro.baselines import BlockCachedWindow
from repro.mpi import SimMPI, Window
from repro.util import KiB, MiB


def run(nprocs, program, **kwargs):
    mpi = SimMPI(nprocs=nprocs, **kwargs)
    return mpi.run(program), mpi


class TestConstructors:
    def test_fompi(self):
        spec = CacheSpec.fompi()
        assert spec.kind is CacheKind.NONE
        assert spec.label == "foMPI"

    def test_fixed(self):
        spec = CacheSpec.clampi_fixed(1024, 2 * MiB)
        assert spec.kind is CacheKind.CLAMPI
        assert not spec.config.adaptive
        assert "fixed" in spec.label

    def test_adaptive(self):
        spec = CacheSpec.clampi_adaptive(1024, 2 * MiB)
        assert spec.config.adaptive
        assert "adaptive" in spec.label

    def test_native(self):
        spec = CacheSpec.native(memory_bytes=1 * MiB, block_size=512)
        assert spec.kind is CacheKind.NATIVE
        assert "native" in spec.label

    def test_extra_config_kwargs_forwarded(self):
        spec = CacheSpec.clampi_fixed(64, 1 * MiB, num_hashes=3, sample_size=8)
        assert spec.config.num_hashes == 3
        assert spec.config.sample_size == 8

    def test_with_mode(self):
        spec = CacheSpec.clampi_fixed(64, 1 * MiB).with_mode(clampi.Mode.USER_DEFINED)
        assert spec.mode is clampi.Mode.USER_DEFINED


class TestMakeWindow:
    def test_window_flavours(self):
        def program(m):
            buf = np.zeros(1024, np.uint8)
            plain = CacheSpec.fompi().make_window(m.comm_world, buf.copy())
            cached = CacheSpec.clampi_fixed(64, 64 * KiB).make_window(
                m.comm_world, buf.copy()
            )
            native = CacheSpec.native(64 * KiB).make_window(m.comm_world, buf.copy())
            return type(plain).__name__, type(cached).__name__, type(native).__name__

        results, _ = run(2, program)
        assert results[0] == ("Window", "CachedWindow", "BlockCachedWindow")

    def test_cache_stats_of_each_flavour(self):
        def program(m):
            buf = np.zeros(1024, np.uint8)
            plain = CacheSpec.fompi().make_window(m.comm_world, buf.copy())
            cached = CacheSpec.clampi_fixed(64, 64 * KiB).make_window(
                m.comm_world, buf.copy()
            )
            native = CacheSpec.native(64 * KiB).make_window(m.comm_world, buf.copy())
            return (
                cache_stats_of(plain),
                "gets" in cache_stats_of(cached),
                "block_hits" in cache_stats_of(native),
            )

        results, _ = run(2, program)
        assert results[0] == ({}, True, True)


class TestPolicyField:
    def test_default_is_none(self):
        assert CacheSpec.clampi_fixed(64, 4096).policy is None

    def test_constructor_policy(self):
        spec = CacheSpec.clampi_fixed(64, 4096, policy="lru")
        assert spec.policy == "lru"
        assert "lru" in spec.label

    def test_with_policy(self):
        spec = CacheSpec.clampi_fixed(64, 4096).with_policy("gdsf")
        assert spec.policy == "gdsf"

    def test_label_without_policy_unchanged(self):
        assert "," not in CacheSpec.clampi_fixed(64, 4096).label.split("|S|")[1]

    def test_policy_reaches_window(self):
        from repro.mpi import SimMPI

        def program(m):
            spec = CacheSpec.clampi_fixed(64, 4096, policy="slru")
            win = spec.make_window(m.comm_world, np.zeros(1024, np.uint8))
            return win.policy_name

        assert SimMPI(nprocs=2).run(program)[0] == "slru"

    def test_adaptive_policy_plumbed(self):
        from repro.mpi import SimMPI

        def program(m):
            spec = CacheSpec.clampi_adaptive(64, 4096, policy="tinylfu")
            win = spec.make_window(m.comm_world, np.zeros(1024, np.uint8))
            return win.policy_name, win.config.adaptive

        name, adaptive = SimMPI(nprocs=2).run(program)[0]
        assert name == "tinylfu" and adaptive
