"""Shared utilities: statistics, alignment helpers and unit constants.

These helpers are deliberately dependency-light; everything in
:mod:`repro` builds on top of them.
"""

from repro.util.stats import (
    RunStats,
    confidence_interval_median,
    median,
    repeat_until_confident,
)
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
    "RunStats",
    "align_up",
    "confidence_interval_median",
    "format_bytes",
    "format_table",
    "format_time",
    "median",
    "repeat_until_confident",
]
