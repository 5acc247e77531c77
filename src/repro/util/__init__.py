"""Shared utilities: alignment helpers, unit constants and formatting.

These helpers are deliberately dependency-light; everything in
:mod:`repro` builds on top of them.
"""

from repro.util.units import (
    CACHE_LINE,
    GiB,
    KiB,
    MiB,
    align_up,
    format_bytes,
    format_table,
    format_time,
)

__all__ = [
    "CACHE_LINE",
    "GiB",
    "KiB",
    "MiB",
    "align_up",
    "format_bytes",
    "format_table",
    "format_time",
]
