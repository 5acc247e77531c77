"""Event sinks: where telemetry events go.

A sink implements ``handle(event)`` (and optionally ``close()``).  The
deterministic scheduler serialises rank threads — exactly one rank runs at
any instant — so sinks need no internal locking.

* :class:`NullSink` — swallows everything and, crucially, does **not**
  enable its bus: instrumented call sites check ``bus.enabled`` before even
  constructing an :class:`~repro.obs.events.Event`, so the disabled path
  costs one attribute check per operation.
* :class:`RingBufferSink` — bounded in-memory capture (``deque(maxlen)``),
  the default for tests and interactive use.
* :class:`JSONLSink` — streams one JSON object per line to a file; the
  format the ``python -m repro.obs report`` CLI consumes.
* :class:`CallbackSink` — adapter invoking a callable, optionally filtered
  by event kind (e.g. ``repro.trace.capture``'s get-stream recorder).
"""

from __future__ import annotations

import io
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.obs.events import Event


class Sink:
    """Base class: receives events; ``close`` releases resources."""

    #: Event kinds this sink consumes; ``None`` means every kind.  The
    #: bus unions these over attached enabling sinks into its per-kind
    #: gate (``bus.wants``), so hot paths skip constructing events no
    #: sink would keep.  ``handle`` may still see other kinds (delivery
    #: is per-bus, not per-sink) and must self-filter if it cares.
    kinds: frozenset[str] | None = None

    #: A passive sink receives whatever events *other* sinks caused to be
    #: constructed but contributes nothing to the bus kind-gate: attaching
    #: it never widens ``bus.wants`` (nor enables a disabled bus).  Used
    #: by piggybacking observers like the scheduler's failure-report
    #: recorder, which must not change hot-path allocation behaviour.
    passive: bool = False

    def handle(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class NullSink(Sink):
    """Discards events — and keeps the bus *disabled* (zero-cost path)."""

    #: marker consulted by :class:`~repro.obs.bus.EventBus`
    enables_bus = False

    def handle(self, event: Event) -> None:
        pass


class RingBufferSink(Sink):
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int | None = 65536):
        self._buf: deque[Event] = deque(maxlen=capacity)

    def handle(self, event: Event) -> None:
        self._buf.append(event)

    def events(
        self, kind: str | None = None, rank: int | None = None
    ) -> list[Event]:
        """Captured events, optionally filtered by kind and/or rank."""
        return [
            e
            for e in self._buf
            if (kind is None or e.kind == kind)
            and (rank is None or e.rank == rank)
        ]

    def clear(self) -> None:
        self._buf.clear()

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._buf)


class CallbackSink(Sink):
    """Calls ``fn(event)`` for every event (of the given kinds)."""

    def __init__(
        self,
        fn: Callable[[Event], None],
        kinds: Iterable[str] | None = None,
        passive: bool = False,
    ):
        self._fn = fn
        self._kinds = frozenset(kinds) if kinds is not None else None
        #: advertised to the bus kind-gate: only these kinds need exist
        self.kinds = self._kinds
        self.passive = passive

    def handle(self, event: Event) -> None:
        if self._kinds is None or event.kind in self._kinds:
            self._fn(event)


class JSONLSink(Sink):
    """Writes one JSON object per line to ``path`` (or an open text file)."""

    def __init__(self, path: str | Path | io.TextIOBase):
        if isinstance(path, io.TextIOBase):
            self._fh: io.TextIOBase | None = path
            self._owns = False
        else:
            self._fh = open(path, "w", encoding="utf-8")
            self._owns = True

    def handle(self, event: Event) -> None:
        assert self._fh is not None, "sink already closed"
        self._fh.write(event.to_json())
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is None:
            return
        self._fh.flush()
        if self._owns:
            self._fh.close()
        self._fh = None
