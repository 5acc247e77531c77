"""``repro.obs`` — the structured telemetry subsystem.

One pipeline for every measurement in the reproduction: the MPI window
layer, the CLaMPI caching engine, the network cost model and the
deterministic scheduler all publish typed events — stamped with
``(rank, virtual_time, epoch)`` — to an :class:`EventBus`; pluggable sinks
(ring buffer, JSONL file, null) consume them, and the
``python -m repro.obs report`` CLI renders per-rank timelines, access
breakdowns and top-N cost contributors from a JSONL capture.

Typical capture::

    from repro import obs
    from repro.mpi import SimMPI

    with obs.capture(obs.JSONLSink("capture.jsonl")):
        SimMPI(nprocs=4).run(program)

    # later: python -m repro.obs report capture.jsonl

When nothing is attached (or only a :class:`NullSink`), the global bus
stays disabled and instrumented hot paths pay a single boolean check —
cache decisions and virtual-time results are bit-identical either way,
which the test suite asserts.

Layering note: this package imports nothing above ``repro.util`` (the
report module holds the cache's access vocabulary by value, as
:data:`~repro.obs.events.ACCESS_TYPES`), so every layer may instrument
itself without import cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.bus import EventBus
from repro.obs.events import (
    ALL_KINDS,
    ANALYSIS_VIOLATION,
    CACHE_ACCESS,
    CACHE_ACCESS_BATCH,
    CACHE_ADAPT,
    CACHE_ADMIT,
    CACHE_DEGRADED,
    CACHE_EPOCH,
    CACHE_EVICT,
    CACHE_INVALIDATE,
    CACHE_RECOVERED,
    FAULT_INJECTED,
    FAULT_RETRY,
    NET_TRANSFER,
    RANK_CRASHED,
    RMA_ACCUMULATE,
    RMA_FENCE,
    RMA_FLUSH,
    RMA_GET,
    RMA_GET_BATCH,
    RMA_LOCK,
    RMA_PUT,
    RMA_UNLOCK,
    SCHED_SWITCH,
    TRACE_GET,
    WINDOW_REVOKED,
    Event,
)
from repro.obs.sinks import CallbackSink, JSONLSink, NullSink, RingBufferSink, Sink

__all__ = [
    "ALL_KINDS",
    "ANALYSIS_VIOLATION",
    "CACHE_ACCESS",
    "CACHE_ACCESS_BATCH",
    "CACHE_ADAPT",
    "CACHE_ADMIT",
    "CACHE_DEGRADED",
    "CACHE_EPOCH",
    "CACHE_EVICT",
    "CACHE_INVALIDATE",
    "CACHE_RECOVERED",
    "CallbackSink",
    "Event",
    "EventBus",
    "FAULT_INJECTED",
    "FAULT_RETRY",
    "JSONLSink",
    "NET_TRANSFER",
    "NullSink",
    "RANK_CRASHED",
    "RMA_ACCUMULATE",
    "RMA_FENCE",
    "RMA_FLUSH",
    "RMA_GET",
    "RMA_GET_BATCH",
    "RMA_LOCK",
    "RMA_PUT",
    "RMA_UNLOCK",
    "RingBufferSink",
    "SCHED_SWITCH",
    "Sink",
    "TRACE_GET",
    "WINDOW_REVOKED",
    "capture",
    "get_bus",
    "virtual_time",
]

#: The process-global bus all instrumented layers publish to by default.
_GLOBAL_BUS = EventBus()


def get_bus() -> EventBus:
    """The process-global :class:`EventBus` singleton."""
    return _GLOBAL_BUS


@contextmanager
def capture(
    sink: Sink | None = None, bus: EventBus | None = None
) -> Iterator[Sink]:
    """Attach ``sink`` (default: a fresh ring buffer) for the duration.

    Yields the sink; detaches and closes it on exit, so a JSONL capture is
    flushed and complete as soon as the ``with`` block ends.
    """
    b = bus if bus is not None else _GLOBAL_BUS
    s = sink if sink is not None else RingBufferSink()
    b.attach(s)
    try:
        yield s
    finally:
        b.detach(s)
        s.close()


class VirtualTimeLedger:
    """Accumulates the virtual makespan of completed simulated runs.

    :class:`repro.runtime.SimWorld` notes every successful run here, giving
    wall-clock-independent "how much simulated time did this figure cover"
    accounting (used by ``python -m repro.bench``).
    """

    def __init__(self) -> None:
        self.total = 0.0   #: sum of run makespans (virtual seconds)
        self.last = 0.0    #: makespan of the most recent run
        self.runs = 0      #: number of completed runs

    def note_run(self, makespan: float) -> None:
        self.last = makespan
        self.total += makespan
        self.runs += 1


#: Process-global virtual-time ledger (always on; one float add per run).
virtual_time = VirtualTimeLedger()
