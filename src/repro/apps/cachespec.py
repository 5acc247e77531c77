"""Selecting the caching flavour for an application run.

The paper evaluates every application under (at least) four configurations:
*foMPI* (no cache), CLaMPI *fixed*, CLaMPI *adaptive*, and — for Barnes-Hut
— the *native* block cache.  :class:`CacheSpec` encodes that choice and
builds the right window wrapper over a shared local buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

import numpy as np

from repro import clampi
from repro.baselines import BlockCachedWindow
from repro.core.stats import merge_snapshots
from repro.mpi.comm import Communicator
from repro.mpi.window import Window
from repro.trace import TraceRecorder, TracingWindow
from repro.util import MiB


class CacheKind(Enum):
    NONE = "none"          #: plain window — the foMPI baseline
    CLAMPI = "clampi"      #: CLaMPI with fixed parameters
    NATIVE = "native"      #: direct-mapped block cache (UPC-style)


@dataclass(frozen=True)
class CacheSpec:
    """Which cache to layer on the application's window, and how."""

    kind: CacheKind = CacheKind.CLAMPI
    mode: clampi.Mode = clampi.Mode.ALWAYS_CACHE
    config: clampi.Config = field(default_factory=clampi.Config)
    #: eviction/admission policy registry name (None — defer to the
    #: config/environment via the clampi.resolve_config precedence)
    policy: str | None = None
    block_size: int = 1024        #: native cache block size
    memory_bytes: int = 1 * MiB   #: native cache memory

    # -- convenience constructors ---------------------------------------
    @classmethod
    def fompi(cls) -> "CacheSpec":
        return cls(kind=CacheKind.NONE)

    @classmethod
    def clampi_fixed(
        cls,
        index_entries: int,
        storage_bytes: int,
        mode: clampi.Mode = clampi.Mode.ALWAYS_CACHE,
        policy: str | None = None,
        **cfg: Any,
    ) -> "CacheSpec":
        return cls(
            kind=CacheKind.CLAMPI,
            mode=mode,
            policy=policy,
            config=clampi.Config(
                index_entries=index_entries,
                storage_bytes=storage_bytes,
                adaptive=False,
                **cfg,
            ),
        )

    @classmethod
    def clampi_adaptive(
        cls,
        index_entries: int,
        storage_bytes: int,
        mode: clampi.Mode = clampi.Mode.ALWAYS_CACHE,
        policy: str | None = None,
        **cfg: Any,
    ) -> "CacheSpec":
        return cls(
            kind=CacheKind.CLAMPI,
            mode=mode,
            policy=policy,
            config=clampi.Config(
                index_entries=index_entries,
                storage_bytes=storage_bytes,
                adaptive=True,
                **cfg,
            ),
        )

    @classmethod
    def native(cls, memory_bytes: int, block_size: int = 1024) -> "CacheSpec":
        return cls(
            kind=CacheKind.NATIVE, memory_bytes=memory_bytes, block_size=block_size
        )

    def with_mode(self, mode: clampi.Mode) -> "CacheSpec":
        return replace(self, mode=mode)

    def with_policy(self, policy: str | None) -> "CacheSpec":
        """Copy with a different eviction/admission policy name."""
        return replace(self, policy=policy)

    @property
    def label(self) -> str:
        from repro.util import format_bytes

        if self.kind is CacheKind.NONE:
            return "foMPI"
        if self.kind is CacheKind.NATIVE:
            return f"native({format_bytes(self.memory_bytes)})"
        flavour = "adaptive" if self.config.adaptive else "fixed"
        pol = f", {self.policy}" if self.policy else ""
        return (
            f"CLaMPI-{flavour}(|I|={self.config.index_entries}, "
            f"|S|={self.config.storage_bytes // 1024} KiB{pol})"
        )

    # --------------------------------------------------------------------
    def make_window(
        self,
        comm: Communicator,
        local_bytes: np.ndarray,
        recorder: TraceRecorder | None = None,
    ) -> Any:
        """Collectively create the window wrapper this spec describes."""
        raw = Window.create(comm, local_bytes)
        if self.kind is CacheKind.NONE:
            win: Any = raw
        elif self.kind is CacheKind.NATIVE:
            win = BlockCachedWindow(
                raw, block_size=self.block_size, memory_bytes=self.memory_bytes
            )
        else:
            win = clampi.wrap(
                raw, mode=self.mode, config=self.config, policy=self.policy
            )
        if recorder is not None:
            win = TracingWindow(win, recorder)
        return win


class PerRankStats:
    """Stats of an app run result holding one ``cache_stats`` dict per rank."""

    def merged_stats(self) -> dict[str, float]:
        """Sum of per-rank cache counters ({} for an uncached run)."""
        return merge_snapshots(self.cache_stats)

    def max_stat(self, key: str) -> float:
        """Maximum of one counter over ranks (e.g. per-rank adjustments)."""
        return max((s.get(key, 0) for s in self.cache_stats), default=0)


def cache_stats_of(window: Any) -> dict[str, float]:
    """Uniform stats snapshot across window flavours ({} for plain)."""
    inner = window._win if isinstance(window, TracingWindow) else window
    if isinstance(inner, clampi.CachedWindow):
        return inner.stats.snapshot()
    if isinstance(inner, BlockCachedWindow):
        return inner.stats.as_dict()
    return {}
