"""Recording get traces from application runs.

Since the ``repro.obs`` redesign, tracing rides the one telemetry
pipeline: :class:`TracingWindow` publishes a ``trace.get`` event per get to
an :class:`~repro.obs.EventBus` (chained to the process-global bus, so a
JSONL capture sees the same stream) and :class:`TraceRecorder` is simply a
sink over those events that keeps the historical ``(trg, dsp, size)``
tuple API used by the analysis helpers and the parameter advisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs import TRACE_GET, Event, EventBus, Sink, get_bus


@dataclass(frozen=True)
class GetRecord:
    """One recorded get: identity (trg, dsp) plus payload size in bytes."""

    trg: int
    dsp: int
    size: int


class TraceRecorder(Sink):
    """Accumulates :class:`GetRecord` tuples (one recorder per rank).

    Doubles as an event sink: attached to a bus it records every
    ``trace.get`` event, which is how :class:`TracingWindow` feeds it.
    """

    def __init__(self) -> None:
        self.records: list[GetRecord] = []

    def record(self, trg: int, dsp: int, size: int) -> None:
        self.records.append(GetRecord(trg, dsp, size))

    # -- Sink interface -------------------------------------------------
    def handle(self, event: Event) -> None:
        if event.kind == TRACE_GET:
            a = event.attrs
            self.record(a["target"], a["disp"], a["nbytes"])

    def __len__(self) -> int:
        return len(self.records)

    def sizes(self) -> np.ndarray:
        return np.array([r.size for r in self.records], dtype=np.int64)

    def keys(self) -> list[tuple[int, int]]:
        """The (trg, dsp) identity of every recorded get, in order."""
        return [(r.trg, r.dsp) for r in self.records]


class TracingWindow:
    """Window wrapper that records every get before forwarding it.

    Works over any get-capable window (plain, CLaMPI, block-cached), so the
    same application code produces both measurements and traces.  Gets are
    published as ``trace.get`` events on a private bus carrying the
    recorder as a sink and forwarding to the global telemetry bus.
    """

    def __init__(self, window: Any, recorder: TraceRecorder):
        self._win = window
        self.recorder = recorder
        self.obs = EventBus(parent=get_bus())
        self.obs.attach(recorder)
        comm = getattr(window, "comm", None)
        self._rank = comm.rank if comm is not None else -1
        self._proc = comm.proc if comm is not None else None

    def __getattr__(self, name: str) -> Any:
        return getattr(self._win, name)

    def _emit(self, target_rank: int, target_disp: int, nbytes: int) -> None:
        self.obs.emit(
            Event(
                TRACE_GET,
                self._rank,
                self._proc.clock if self._proc is not None else 0.0,
                getattr(self._win, "eph", 0),
                getattr(self._win, "win_id", None),
                attrs={
                    "target": target_rank,
                    "disp": target_disp,
                    "nbytes": nbytes,
                },
            )
        )

    def get(self, origin, target_rank, target_disp, count=None, datatype=None) -> int:
        nbytes = self._win.get(origin, target_rank, target_disp, count, datatype)
        self._emit(target_rank, target_disp, nbytes)
        return nbytes

    def get_blocking(self, origin, target_rank, target_disp, count=None, datatype=None) -> int:
        nbytes = self._win.get_blocking(origin, target_rank, target_disp, count, datatype)
        self._emit(target_rank, target_disp, nbytes)
        return nbytes

    def get_batch(self, requests) -> list[int]:
        # Explicit (not __getattr__ passthrough): every element must still
        # produce its trace.get record, or traces would go blind to
        # batched workloads.
        sizes = self._win.get_batch(requests)
        for req, nbytes in zip(requests, sizes):
            self._emit(req[1], req[2], nbytes)
        return sizes
