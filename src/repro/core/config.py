"""CLaMPI configuration: operational modes, eviction policies, parameters.

``Mode`` mirrors the paper's three strategies (Sec. III-A):

* ``TRANSPARENT`` — every window is caching-enabled with zero code changes;
  because nothing is known about write accesses, the cache is invalidated at
  every epoch closure (only intra-epoch reuse is exploited).
* ``ALWAYS_CACHE`` — the window is read-only for its whole lifespan (e.g.
  static graphs); no automatic invalidation ever happens.
* ``USER_DEFINED`` — like ALWAYS_CACHE but the application brackets
  read-only phases and calls ``invalidate()`` (CLAMPI_Invalidate) when a
  phase ends (e.g. Barnes-Hut between force-computation steps).

``Config.policy`` names an eviction/admission policy from the
:mod:`repro.core.policy` registry (``"clampi-full"`` — the paper's
``R = R_P x R_T`` score — by default; ``"lru"``, ``"slru"``, ``"gdsf"``,
``"tinylfu"`` and any user-registered policy are selectable the same
way; ``"clampi-temporal"`` and ``"clampi-positional"`` are the Figs. 10/11
ablations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Mapping

from repro.core.policy import canonical_policy_name
from repro.util import KiB, MiB

#: MPI_Info key used to enable caching at window creation (Sec. III-A).
INFO_MODE_KEY = "clampi_mode"

#: MPI_Info key selecting the eviction/admission policy by registry name.
INFO_POLICY_KEY = "clampi_policy"

#: MPI_Info key selecting the crash-recovery mode ("invalidate" or
#: "serve-stale"); see ``Config.recovery`` and docs/resilience.md.
INFO_RECOVERY_KEY = "clampi_recovery"

#: Valid values of ``Config.recovery``.
RECOVERY_MODES = ("invalidate", "serve-stale")


class Mode(Enum):
    TRANSPARENT = "transparent"
    ALWAYS_CACHE = "always_cache"
    USER_DEFINED = "user_defined"


@dataclass(frozen=True)
class AdaptiveParams:
    """Thresholds and factors of the adaptive strategy (Sec. III-E1)."""

    check_interval: int = 512           #: gets between controller decisions
    conflict_threshold: float = 0.05    #: conflicting/total above -> grow I_w
    sparsity_threshold: float = 0.25    #: eviction non-empty ratio q below -> shrink I_w
    capacity_threshold: float = 0.10    #: (capacity+failed)/total above -> grow S_w
    stable_threshold: float = 0.60      #: hits/total above -> working set stable
    free_space_threshold: float = 0.75  #: free/|S_w| above (and stable) -> shrink S_w
    index_increase_factor: float = 2.0
    index_decrease_factor: float = 2.0
    memory_increase_factor: float = 2.0
    memory_decrease_factor: float = 2.0
    min_index_entries: int = 64
    max_index_entries: int = 1 << 24
    min_storage_bytes: int = 64 * KiB
    max_storage_bytes: int = 4 << 30

    def __post_init__(self) -> None:
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        for name in (
            "index_increase_factor",
            "index_decrease_factor",
            "memory_increase_factor",
            "memory_decrease_factor",
        ):
            if getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be > 1")


@dataclass(frozen=True)
class Config:
    """Static configuration of one caching-enabled window.

    ``index_entries`` is |I_w| (number of indexable entries) and
    ``storage_bytes`` is |S_w| (cache memory buffer size) — the two
    performance-critical parameters of Sec. III-E.  With ``adaptive=True``
    they are starting values that the controller adjusts at runtime.
    """

    index_entries: int = 4096
    storage_bytes: int = 4 * MiB
    mode: Mode = Mode.TRANSPARENT
    #: eviction/admission policy, by repro.core.policy registry name
    policy: str = "clampi-full"
    adaptive: bool = False
    adaptive_params: AdaptiveParams = AdaptiveParams()
    sample_size: int = 16        #: M, victim-sample size (Sec. III-D)
    num_hashes: int = 4          #: p, cuckoo hash functions (Sec. III-C1)
    max_insert_iterations: int = 32  #: cuckoo cycle-detection bound
    max_capacity_evictions: int = 1  #: constant eviction budget (Sec. III-D2)
    allocator_fit: str = "best"  #: "best" (paper) or "first" (ablation)
    seed: int = 0xC1A09          #: deterministic hashing / sampling
    #: consecutive storage faults before the cache quarantines itself
    #: (self-disables and serves all gets direct); see docs/resilience.md
    quarantine_threshold: int = 4
    #: degraded gets to serve before probing whether the fault cleared
    quarantine_probe_interval: int = 512
    #: what happens to a dead rank's cached entries when its crash is
    #: observed: "invalidate" (drop them; further gets raise
    #: TargetFailedError) or "serve-stale" (pin epoch-consistent entries
    #: read-only and keep serving exact-match reads from them); see
    #: docs/resilience.md
    recovery: str = "invalidate"

    def __post_init__(self) -> None:
        canonical_policy_name(self.policy)  # unknown names fail here
        if self.index_entries < 1:
            raise ValueError("index_entries must be >= 1")
        if self.storage_bytes < 1:
            raise ValueError("storage_bytes must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.num_hashes < 2:
            raise ValueError("num_hashes must be >= 2")
        if self.max_insert_iterations < 1:
            raise ValueError("max_insert_iterations must be >= 1")
        if self.max_capacity_evictions < 0:
            raise ValueError("max_capacity_evictions must be >= 0")
        if self.allocator_fit not in ("best", "first"):
            raise ValueError(f"unknown allocator_fit: {self.allocator_fit}")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        if self.quarantine_probe_interval < 1:
            raise ValueError("quarantine_probe_interval must be >= 1")
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.recovery!r}; "
                f"expected one of {RECOVERY_MODES}"
            )


def resolve_config(
    config: Config | None = None,
    mode: Mode | None = None,
    info: Mapping[str, Any] | None = None,
    policy: str | None = None,
    recovery: str | None = None,
) -> Config:
    """Resolve the effective :class:`Config` from every channel.

    Mode, policy and crash-recovery mode (see :data:`RECOVERY_MODES` and
    ``docs/resilience.md``) each resolve the same way, highest wins: the
    window's info key (``clampi_mode`` / ``clampi_policy`` /
    ``clampi_recovery`` — the MPI-standard-compatible channel of paper
    Sec. III-A) > the keyword > the ``config`` field > the
    :class:`Config` default.

    This is the one place the precedence lives: every facade entry point
    and :class:`~repro.core.window.CachedWindow` itself delegate here.
    """
    info = info or {}
    if info.get(INFO_MODE_KEY) is not None:
        mode = Mode(info[INFO_MODE_KEY])
    if info.get(INFO_POLICY_KEY) is not None:
        policy = info[INFO_POLICY_KEY]
    if info.get(INFO_RECOVERY_KEY) is not None:
        recovery = info[INFO_RECOVERY_KEY]
    chosen = {"mode": mode, "policy": policy, "recovery": recovery}
    return replace(
        config or Config(),
        **{k: v for k, v in chosen.items() if v is not None},
    )
