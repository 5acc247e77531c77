"""Offline analysis of JSONL telemetry captures.

Loads the event stream written by :class:`repro.obs.JSONLSink` and
reconstructs the paper's measurement views without re-running anything:

* :func:`access_breakdown` — the Fig. 13/16/18 normalised per-get
  classification, computed with *identical arithmetic* to
  :meth:`repro.core.stats.CacheStats.breakdown` (integer count divided by
  integer total), so a capture-derived breakdown matches the live one
  exactly;
* :func:`per_rank_timeline` — the ``(epoch, gets, hits)`` samples of every
  rank (Fig. 9-style adaptation/warm-up timelines);
* :func:`top_contributors` — span events aggregated by kind (and transfer
  distance / peer), ranked by total virtual time;
* :func:`render_report` — the human-readable report the
  ``python -m repro.obs report`` CLI prints.

The breakdown keys are :data:`repro.obs.events.ACCESS_TYPES`, the cache's
access vocabulary held by value, so this module imports nothing above
``repro.obs``.
"""

from __future__ import annotations

import io
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

from repro.obs.events import (
    ACCESS_TYPES,
    CACHE_ACCESS,
    CACHE_EPOCH,
    NET_TRANSFER,
    SCHED_SWITCH,
    Event,
)
from repro.util import format_bytes, format_time


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------
def iter_events(fh: io.TextIOBase) -> Iterator[Event]:
    """Yield events from an open JSONL stream, skipping blank lines."""
    for line in fh:
        line = line.strip()
        if line:
            yield Event.from_json(line)


def load_events(path: str | Path) -> list[Event]:
    """Read a whole JSONL capture into memory."""
    with open(path, encoding="utf-8") as fh:
        return list(iter_events(fh))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def ranks_of(events: Iterable[Event]) -> list[int]:
    return sorted({e.rank for e in events})


def access_counts(
    events: Iterable[Event], rank: int | None = None, win: int | None = None
) -> dict[str, int]:
    """Raw per-classification counts of ``cache.access`` events."""
    counts = dict.fromkeys(ACCESS_TYPES, 0)
    for e in events:
        if e.kind != CACHE_ACCESS:
            continue
        if rank is not None and e.rank != rank:
            continue
        if win is not None and e.win != win:
            continue
        access = e.attrs["access"]
        if access in counts:
            counts[access] += 1
    return counts


def access_breakdown(
    events: Iterable[Event], rank: int | None = None, win: int | None = None
) -> dict[str, float]:
    """Normalised access breakdown, keyed by :data:`ACCESS_TYPES`.

    Uses the same integer-count / integer-total division as
    :meth:`repro.core.stats.CacheStats.breakdown`, so for a capture that
    saw every get of a window the two dictionaries compare equal.
    """
    counts = access_counts(events, rank=rank, win=win)
    gets = sum(counts.values())
    return {k: (v / gets if gets else 0.0) for k, v in counts.items()}


def per_rank_timeline(
    events: Iterable[Event], win: int | None = None
) -> dict[int, list[tuple[int, int, int]]]:
    """``rank -> [(epoch, cumulative gets, cumulative hits), ...]``."""
    out: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for e in events:
        if e.kind != CACHE_EPOCH:
            continue
        if win is not None and e.win != win:
            continue
        out[e.rank].append(
            (int(e.attrs["eph"]), int(e.attrs["gets"]), int(e.attrs["hits"]))
        )
    return dict(out)


def _contributor_label(e: Event) -> str:
    if "distance" in e.attrs:
        return f"{e.kind}[{e.attrs['distance']}]"
    return e.kind


def top_contributors(
    events: Iterable[Event], n: int = 10
) -> list[tuple[str, float, int]]:
    """Span events grouped by label: ``(label, total duration, count)``.

    Sorted by total virtual time, descending; at most ``n`` rows.
    """
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for e in events:
        if not e.is_span:
            continue
        label = _contributor_label(e)
        totals[label] += e.duration
        counts[label] += 1
    rows = [(label, totals[label], counts[label]) for label in totals]
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:n]


def summarize(events: list[Event]) -> dict[int, dict[str, float]]:
    """Per-rank event count, virtual-time extent and bytes moved."""
    out: dict[int, dict[str, float]] = {}
    for r in ranks_of(events):
        mine = [e for e in events if e.rank == r]
        times = [e.time for e in mine]
        nbytes = sum(
            int(e.attrs.get("nbytes", 0))
            for e in mine
            if e.kind == CACHE_ACCESS or e.kind == NET_TRANSFER
        )
        out[r] = {
            "events": len(mine),
            "t_first": min(times),
            "t_last": max(times),
            "switches": sum(1 for e in mine if e.kind == SCHED_SWITCH),
            "bytes": nbytes,
        }
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def _render_timeline_row(samples: list[tuple[int, int, int]], width: int = 40) -> str:
    """A coarse hit-ratio sparkline over the epoch samples."""
    if not samples:
        return "(no epoch samples)"
    shades = " .:-=+*#%@"
    step = max(1, len(samples) // width)
    cells = []
    prev_gets = prev_hits = 0
    for i in range(0, len(samples), step):
        _, gets, hits = samples[min(i + step - 1, len(samples) - 1)]
        dg, dh = gets - prev_gets, hits - prev_hits
        prev_gets, prev_hits = gets, hits
        ratio = dh / dg if dg else 0.0
        cells.append(shades[min(len(shades) - 1, int(ratio * (len(shades) - 1)))])
    return "".join(cells)


def render_report(events: list[Event], top: int = 10) -> str:
    """The full multi-section text report of one capture."""
    lines: list[str] = []
    if not events:
        return "empty capture (no events)\n"

    lines.append(f"capture: {len(events)} events, ranks {ranks_of(events)}")
    lines.append("")

    lines.append("== per-rank summary ==")
    lines.append(
        f"{'rank':>4}  {'events':>8}  {'switches':>8}  {'bytes':>10}  "
        f"{'first':>10}  {'last':>10}"
    )
    for r, s in summarize(events).items():
        lines.append(
            f"{r:>4}  {int(s['events']):>8}  {int(s['switches']):>8}  "
            f"{format_bytes(int(s['bytes'])):>10}  "
            f"{format_time(s['t_first']):>10}  {format_time(s['t_last']):>10}"
        )
    lines.append("")

    if any(e.kind == CACHE_ACCESS for e in events):
        lines.append("== access breakdown (fraction of gets, per rank) ==")
        keys = ACCESS_TYPES
        lines.append(f"{'rank':>4}  " + "  ".join(f"{k:>11}" for k in keys))
        for r in ranks_of(events):
            bd = access_breakdown(events, rank=r)
            if not any(bd.values()):
                continue
            lines.append(
                f"{r:>4}  " + "  ".join(f"{bd[k]:>11.4f}" for k in keys)
            )
        lines.append("")

    timelines = per_rank_timeline(events)
    if timelines:
        lines.append("== per-rank timeline (hit-ratio per epoch bucket) ==")
        for r in sorted(timelines):
            samples = timelines[r]
            eph, gets, hits = samples[-1]
            lines.append(
                f"rank {r:>3} |{_render_timeline_row(samples)}| "
                f"epochs={eph} gets={gets} hits={hits}"
            )
        lines.append("")

    contributors = top_contributors(events, n=top)
    if contributors:
        lines.append(f"== top-{top} virtual-time contributors (span events) ==")
        lines.append(f"{'label':<32}  {'total':>10}  {'count':>8}  {'mean':>10}")
        for label, total, count in contributors:
            lines.append(
                f"{label:<32}  {format_time(total):>10}  {count:>8}  "
                f"{format_time(total / count):>10}"
            )
        lines.append("")

    return "\n".join(lines)
