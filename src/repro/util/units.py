"""Byte/time unit constants, alignment arithmetic and plain-text tables.

The storage layer (:mod:`repro.core.storage`) aligns every allocation to the
CPU cache-line size, mirroring the paper's Sec. III-C2 ("We allocate memory
regions of size as multiple of the CPU cache line size").
"""

from __future__ import annotations

from typing import Any, Sequence

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: Cache-line granularity used for storage allocations (bytes).
CACHE_LINE = 64


def align_up(nbytes: int, alignment: int = CACHE_LINE) -> int:
    """Round ``nbytes`` up to the next multiple of ``alignment``.

    >>> align_up(1)
    64
    >>> align_up(64)
    64
    >>> align_up(65)
    128
    >>> align_up(0)
    0
    """
    if nbytes < 0:
        raise ValueError(f"negative size: {nbytes}")
    if alignment <= 0:
        raise ValueError(f"non-positive alignment: {alignment}")
    return ((nbytes + alignment - 1) // alignment) * alignment


def format_bytes(nbytes: float) -> str:
    """Human-readable byte count (``4.0 KiB``, ``1.5 MiB`` ...)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} {unit}"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_time(seconds: float) -> str:
    """Human-readable time (``1.23 us``, ``4.5 ms`` ...)."""
    if seconds < 0:
        return "-" + format_time(-seconds)
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def format_cell(value: Any) -> str:
    """One table cell: floats to at most 3 significant decimals."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render a monospaced table with aligned columns."""
    cells = [[format_cell(h) for h in headers]]
    cells += [[format_cell(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
