"""Public CLaMPI facade — the user-facing API of the caching library.

Mirrors how the paper's library is used from C:

===========================  =========================================
Paper / MPI                  This module
===========================  =========================================
``MPI_Win_allocate`` + info  :func:`window_allocate` (``mode=...``)
``MPI_Win_create`` + info    :func:`window_create`
cache-enabling a window      :func:`wrap`
``CLAMPI_Invalidate(win)``   :func:`invalidate`
info key ``clampi_mode``     :data:`INFO_MODE_KEY`
===========================  =========================================

Configuration resolution
------------------------
Three channels can name the operational mode; :func:`resolve_config` is
the single place that arbitrates them.  Highest priority first:

1. ``info["clampi_mode"]`` — the MPI-standard-compatible channel of paper
   Sec. III-A (an installation can flip modes without touching code);
2. the ``mode=`` keyword — the pythonic shortcut;
3. ``config.mode`` — whatever the explicit :class:`Config` carries;
4. the :class:`Config` default (``TRANSPARENT``).

The eviction/admission **policy** resolves through the same funnel, by
:mod:`repro.core.policy` registry name.  Highest priority first:

1. ``info["clampi_policy"]`` — per-window info key (:data:`INFO_POLICY_KEY`);
2. the ``policy=`` keyword on :func:`window_allocate` / :func:`window_create`
   / :func:`wrap`;
3. ``config.policy`` — an explicit, non-default :class:`Config` value;
4. the ``CLAMPI_POLICY`` environment variable (:data:`ENV_POLICY_VAR`) —
   the channel of last resort, consulted **only** when every channel above
   left the policy at the default;
5. the registry default (``"clampi-full"``, the paper's score policy).

Any channel accepts a registry name (``"lru"``, ``"gdsf"``, ...) or a name
registered at runtime via :func:`register`.

Example (user-defined mode, paper Listing 1)::

    win = clampi.window_allocate(comm, nbytes, mode=clampi.Mode.USER_DEFINED)
    with win.lock_epoch(peer):
        while not terminate:
            win.get(lbuf1, peer, off1)
            win.get(lbuf2, peer, off2)
            win.flush(peer)                 # closes epoch
            terminate = computation(lbuf1, lbuf2)
        clampi.invalidate(win)

Statistics come back through :func:`stats` / :meth:`CacheStats.snapshot`
(a versioned, stable schema) and, for structured per-event telemetry,
through the :mod:`repro.obs` subsystem.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from repro.core.config import (
    ENV_POLICY_VAR,
    INFO_MODE_KEY,
    INFO_POLICY_KEY,
    INFO_RECOVERY_KEY,
    RECOVERY_MODES,
    AdaptiveParams,
    Config,
    Mode,
)
from repro.core.policy import (
    DEFAULT_POLICY,
    CachePolicy,
    PolicyContext,
    available_policies,
    canonical_policy_name,
    make_policy,
    register,
)
from repro.core.stats import SCHEMA_VERSION, AccessType, CacheStats
from repro.core.window import CachedWindow
from repro.mpi.comm import Communicator
from repro.mpi.window import Window

__all__ = [
    "AccessType",
    "AdaptiveParams",
    "CachePolicy",
    "CacheStats",
    "CachedWindow",
    "Config",
    "DEFAULT_POLICY",
    "ENV_POLICY_VAR",
    "INFO_MODE_KEY",
    "INFO_POLICY_KEY",
    "INFO_RECOVERY_KEY",
    "Mode",
    "PolicyContext",
    "RECOVERY_MODES",
    "SCHEMA_VERSION",
    "available_policies",
    "canonical_policy_name",
    "configure",
    "degraded",
    "invalidate",
    "make_policy",
    "register",
    "resolve_config",
    "stats",
    "window_allocate",
    "window_create",
    "wrap",
]


def resolve_config(
    config: Config | None = None,
    mode: Mode | None = None,
    info: Mapping[str, Any] | None = None,
    policy: str | None = None,
    recovery: str | None = None,
) -> Config:
    """Resolve the effective :class:`Config` from every facade channel.

    Mode precedence (highest wins): ``info["clampi_mode"]`` > ``mode=`` >
    ``config.mode`` > the :class:`Config` default.

    Policy precedence (highest wins): ``info["clampi_policy"]`` >
    ``policy=`` > a non-default ``config.policy`` > the ``CLAMPI_POLICY``
    environment variable > the registry default (``"clampi-full"``).  The
    environment variable is a channel of *last resort*: it is consulted
    only when neither the info key, the keyword nor the config named a
    non-default policy, so a program that pins a specific policy can
    never be perturbed by the environment.

    The crash-recovery mode (see :data:`RECOVERY_MODES` and
    ``docs/resilience.md``) resolves like the mode:
    ``info["clampi_recovery"]`` > ``recovery=`` > ``config.recovery`` >
    the default (``"invalidate"``).

    This is the one place the precedence lives; every facade entry point
    delegates here.
    """
    cfg = config or Config()
    if mode is not None:
        cfg = replace(cfg, mode=mode)
    if policy is not None:
        cfg = replace(cfg, policy=policy)
    if recovery is not None:
        cfg = replace(cfg, recovery=recovery)
    if info is not None:
        info_mode = info.get(INFO_MODE_KEY)
        if info_mode is not None:
            cfg = replace(cfg, mode=Mode(info_mode))
        info_policy = info.get(INFO_POLICY_KEY)
        if info_policy is not None:
            cfg = replace(cfg, policy=info_policy)
        info_recovery = info.get(INFO_RECOVERY_KEY)
        if info_recovery is not None:
            cfg = replace(cfg, recovery=info_recovery)
    if (
        cfg.policy == DEFAULT_POLICY
        and policy is None
        and (info is None or info.get(INFO_POLICY_KEY) is None)
    ):
        env_policy = os.environ.get(ENV_POLICY_VAR)
        if env_policy:
            cfg = replace(cfg, policy=env_policy)
    return cfg


def configure(**kwargs: Any) -> Config:
    """Build a :class:`Config` from keyword arguments.

    Convenience mirror of ``Config(**kwargs)`` exported on the facade so
    callers never import from ``repro.core``::

        cfg = clampi.configure(index_entries=1 << 14, adaptive=True)
    """
    return Config(**kwargs)


def window_allocate(
    comm: Communicator,
    nbytes: int,
    disp_unit: int = 1,
    mode: Mode | None = None,
    config: Config | None = None,
    info: Mapping[str, Any] | None = None,
    policy: str | None = None,
    recovery: str | None = None,
) -> CachedWindow:
    """Collectively allocate a caching-enabled window.

    Mode, policy and recovery precedence follow :func:`resolve_config`:
    ``info["clampi_mode"]`` > ``mode=`` > ``config.mode``,
    ``info["clampi_policy"]`` > ``policy=`` > ``config.policy`` >
    ``CLAMPI_POLICY``, and ``info["clampi_recovery"]`` > ``recovery=`` >
    ``config.recovery``.
    """
    win = Window.allocate(comm, nbytes, disp_unit=disp_unit, info=info)
    return CachedWindow(
        win, resolve_config(config, mode, info, policy, recovery)
    )


def window_create(
    comm: Communicator,
    buffer: np.ndarray,
    disp_unit: int = 1,
    mode: Mode | None = None,
    config: Config | None = None,
    info: Mapping[str, Any] | None = None,
    policy: str | None = None,
    recovery: str | None = None,
) -> CachedWindow:
    """Collectively cache-enable a window over an existing local buffer.

    Mode, policy and recovery precedence follow :func:`resolve_config`.
    """
    win = Window.create(comm, buffer, disp_unit=disp_unit, info=info)
    return CachedWindow(
        win, resolve_config(config, mode, info, policy, recovery)
    )


def wrap(
    window: Window,
    mode: Mode | None = None,
    config: Config | None = None,
    policy: str | None = None,
    recovery: str | None = None,
) -> CachedWindow:
    """Cache-enable an already-created plain window (local operation).

    The window's creation-time info dict participates in the mode,
    policy and recovery resolution exactly as in :func:`window_allocate`.
    """
    return CachedWindow(
        window, resolve_config(config, mode, window.info, policy, recovery)
    )


def invalidate(window: CachedWindow) -> None:
    """``CLAMPI_Invalidate``: drop all cached entries of ``window``."""
    window.invalidate()


def degraded(window: CachedWindow) -> bool:
    """True while ``window``'s cache is quarantined (serving gets direct).

    A streak of storage faults self-disables the cache until a probe
    window of direct gets has passed — see ``docs/resilience.md``.  The
    ``quarantines`` / ``degraded_gets`` counters of :func:`stats` carry
    the cumulative history.
    """
    return window.degraded


def stats(window: CachedWindow) -> CacheStats:
    """The :class:`CacheStats` of a caching-enabled window.

    Facade accessor so callers need not know the attribute layout:
    ``clampi.stats(win).snapshot()`` / ``.breakdown()`` are the public,
    schema-versioned views.
    """
    return window.stats
