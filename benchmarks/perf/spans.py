"""Benchmark-owned tracing: spans at the window boundary, counts from the bus.

Nothing here lives inside ``repro``: spans are recorded from this file,
around the calls an application makes into its window.  A span is
``[name, rank, start_ns, end_ns, parent]`` (``parent`` is an index into the
same list, ``-1`` for the root).  Rank threads run one at a time, so the
shared list needs no lock.

Exactly one rank thread runs at a time, and a rank is descheduled only inside
a blocking call (``fence``, collective window creation, a barrier).  The bus
sink stamps every ``sched.switch`` event with the host clock, which gives
each rank's dispatched intervals; a rank span's *on-CPU* time is its overlap
with those intervals, and what is left of a blocking span is *wait* (other
ranks' work plus handoff).  Self time is computed over on-CPU durations.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro import obs, rma

NAME, RANK, START, END, PARENT = range(5)

#: window methods recorded as one span per call
TIMED = (
    "get", "get_batch", "put", "flush", "flush_all", "lock", "lock_all",
    "unlock", "unlock_all", "fence", "invalidate",
)
#: scoped epochs: (method, span name on entry, span name on exit)
SCOPED = (
    ("lock_epoch", "lock", "unlock"),
    ("lock_all_epoch", "lock_all", "unlock_all"),
    ("fence_epoch", "fence", "fence"),
)
#: spans inside which the calling rank may be descheduled
BLOCKING = frozenset({"fence", "win_create"})
#: summary bucket of every non-blocking window span
BUCKET = {
    "get": "window.get_s", "get_batch": "window.get_s", "put": "window.put_s",
    "flush": "window.flush_s", "flush_all": "window.flush_s",
    "lock": "window.flush_s", "lock_all": "window.flush_s",
    "unlock": "window.flush_s", "unlock_all": "window.flush_s",
    "invalidate": "window.flush_s",
}

_now = time.perf_counter_ns


class Trace:
    """Spans, the windows they came from, and bus counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.windows: list[Any] = []     #: unwrapped windows, one per rank
        self.counts: Counter[str] = Counter()
        self.switches: list[tuple[int, int]] = []  #: (host ns, rank dispatched)
        self._rank_span: dict[int, int] = {}

    # -- spans ----------------------------------------------------------
    def open(self, name: str, rank: int = -1, parent: int = -1) -> int:
        self.spans.append([name, rank, _now(), None, parent])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][END] = _now()

    @contextmanager
    def span(self, name: str, rank: int = -1, parent: int = -1) -> Iterator[int]:
        sid = self.open(name, rank, parent)
        try:
            yield sid
        finally:
            self.close(sid)

    def rank_program(self, rank: int) -> int:
        """The ``rank_program`` span of ``rank``, child of the ``pass`` span (0)."""
        sid = self._rank_span.get(rank)
        if sid is None:
            sid = self._rank_span[rank] = self.open("rank_program", rank, 0)
        return sid

    def finish(self) -> None:
        """Stretch every rank span over the (closed) pass span.

        The apps own their rank programs, so the benchmark sees neither
        their first nor their last statement; a rank is charged its whole
        on-CPU time within the pass instead.
        """
        for sid in self._rank_span.values():
            self.spans[sid][START:END + 1] = self.spans[0][START:END + 1]

    # -- windows --------------------------------------------------------
    def window(self, inner: Any, rank: int, created_ns: int | None = None) -> "SpanWindow":
        """Wrap ``inner`` (already created) for ``rank``."""
        parent = self.rank_program(rank)
        if created_ns is not None:
            self.spans.append(["win_create", rank, created_ns, _now(), parent])
        self.windows.append(inner)
        return SpanWindow(inner, self.spans.append, rank, parent)

    def spec(self, spec: Any) -> "SpanSpec":
        return SpanSpec(spec, self)

    # -- bus counts -----------------------------------------------------
    @contextmanager
    def counting(self) -> Iterator[None]:
        """Count every bus event by kind, and by access type / reason."""
        counts = self.counts

        def count(event: obs.Event) -> None:
            kind = event.kind
            counts["events"] += 1
            counts[kind] += 1
            attrs = event.attrs
            if kind == obs.SCHED_SWITCH:
                self.switches.append((_now(), event.rank))
            elif kind == obs.CACHE_ACCESS:
                counts[f"{kind}.{attrs['access']}"] += 1
            elif kind == obs.CACHE_EVICT:
                counts[f"{kind}.{attrs.get('reason')}"] += 1
            elif kind == obs.NET_TRANSFER:
                counts["net.bytes"] += attrs["nbytes"]
            elif kind in (obs.RMA_GET_BATCH, obs.CACHE_ACCESS_BATCH):
                counts[f"{kind}.ops"] += attrs.get("count", 0)

        with obs.capture(obs.CallbackSink(count, kinds=obs.ALL_KINDS)):
            yield

    def staged_windows(self) -> int:
        """Windows whose data ops take the staged (unfused) rma pipeline."""
        return sum(
            not rma.build_data_pipeline(getattr(w, "raw", w)).fused
            for w in self.windows
        )


class SpanWindow:
    """Window proxy recording one span per call into the wrapped window."""

    def __init__(self, inner: Any, add: Any, rank: int, parent: int):
        self._inner = inner
        self._add = add
        self._rank = rank
        self._parent = parent
        for name in TIMED:
            fn = getattr(inner, name, None)
            if fn is not None:
                setattr(self, name, self._timed(name, fn))
        for name, enter, leave in SCOPED:
            if hasattr(inner, name):
                setattr(self, name, self._scoped(getattr(inner, name), enter, leave))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _timed(self, name: str, fn: Any) -> Any:
        add, rank, parent = self._add, self._rank, self._parent

        def call(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                add([name, rank, t0, _now(), parent])

        return call

    def _scoped(self, factory: Any, enter: str, leave: str) -> Any:
        add, rank, parent = self._add, self._rank, self._parent

        @contextmanager
        def scope(*args: Any, **kwargs: Any) -> Iterator["SpanWindow"]:
            cm = factory(*args, **kwargs)
            t0 = _now()
            cm.__enter__()
            add([enter, rank, t0, _now(), parent])
            exc: tuple = (None, None, None)
            try:
                yield self
            except BaseException:
                exc = sys.exc_info()
                raise
            finally:
                t0 = _now()
                try:
                    cm.__exit__(*exc)
                finally:
                    add([leave, rank, t0, _now(), parent])

        return scope


class SpanSpec:
    """Duck-typed ``CacheSpec`` whose windows come back wrapped.

    The apps only call ``make_window`` / ``with_mode`` and read ``kind`` /
    ``label``; everything but ``make_window`` is the wrapped spec's.
    """

    def __init__(self, spec: Any, trace: Trace):
        self._spec = spec
        self._trace = trace

    def __getattr__(self, name: str) -> Any:
        return getattr(self._spec, name)

    def with_mode(self, mode: Any) -> "SpanSpec":
        return SpanSpec(self._spec.with_mode(mode), self._trace)

    def make_window(self, comm: Any, local_bytes: Any, recorder: Any = None) -> SpanWindow:
        t0 = _now()
        inner = self._spec.make_window(comm, local_bytes, recorder)
        return self._trace.window(inner, comm.rank, created_ns=t0)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def on_cpu(spans: list[list], switches: list[tuple[int, int]]) -> list[int]:
    """ns each span spent dispatched; wall duration for rank-less spans."""
    out = [s[END] - s[START] for s in spans]
    if not switches:
        return out
    base = spans[0][START]
    edges = np.array([t - base for t, _ in switches] + [spans[0][END] - base], dtype=np.float64)
    who = np.array([r for _, r in switches])
    widths = np.diff(edges)
    by_rank: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[RANK] >= 0:
            by_rank.setdefault(s[RANK], []).append(i)
    for rank, ids in by_rank.items():
        # dispatched time of ``rank`` up to each switch; linear in between
        cum = np.concatenate(([0.0], np.cumsum(np.where(who == rank, widths, 0.0))))
        lo = np.array([spans[i][START] - base for i in ids], dtype=np.float64)
        hi = np.array([spans[i][END] - base for i in ids], dtype=np.float64)
        for i, ns in zip(ids, np.interp(hi, edges, cum) - np.interp(lo, edges, cum)):
            out[i] = int(ns)
    return out


def self_times(spans: list[list], durations: list[int] | None = None) -> list[int]:
    """Self time of every span: its duration minus its children's."""
    if durations is None:
        durations = [s[END] - s[START] for s in spans]
    out = list(durations)
    for s, d in zip(spans, durations):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= d
    return out


def summarise(spans: list[list], switches: list[tuple[int, int]]) -> dict[str, Any]:
    """On-CPU seconds per bucket, summed over ranks, plus span counts by name."""
    busy = on_cpu(spans, switches)
    own = self_times(spans, busy)
    out: dict[str, Any] = {
        "apps.self_s": 0.0, "window.get_s": 0.0, "window.put_s": 0.0, "window.flush_s": 0.0,
        "window.sync_busy_s": 0.0, "window.sync_wait_s": 0.0,
    }
    names: Counter[str] = Counter()
    for s, on, self_ns in zip(spans, busy, own):
        name = s[NAME]
        names[name] += 1
        if name == "rank_program":
            out["apps.self_s"] += self_ns / 1e9
        elif name in BLOCKING:
            out["window.sync_busy_s"] += on / 1e9
            out["window.sync_wait_s"] += (s[END] - s[START] - on) / 1e9
        elif name in BUCKET:
            out[BUCKET[name]] += on / 1e9
    out["pass_s"] = (spans[0][END] - spans[0][START]) / 1e9
    out["spans"] = dict(names)
    return out
