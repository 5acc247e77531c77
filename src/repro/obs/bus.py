"""The event bus: one measurement pipeline for the whole stack.

Emitting layers (``repro.mpi``, ``repro.core``, ``repro.runtime``)
publish :class:`~repro.obs.events.Event` objects to a bus;
sinks attached to the bus consume them.  Buses can be *chained*: a child
bus (e.g. one per :class:`~repro.core.window.CachedWindow`) forwards
every event to its parent — normally the
process-global bus returned by :func:`repro.obs.get_bus` — so a single
JSONL capture sees the merged stream of all layers.

The overhead contract is *per kind*: every bus precomputes the set of
event kinds some enabling sink — here or anywhere up the parent chain —
actually consumes, and instrumented paths check ``bus.wants(kind)`` —
on the per-op hot paths the same gate as a bare membership test,
``kind in bus._wanted``, which costs no call — *before constructing the
event*.  A sink declares its interest through a
``kinds`` attribute (``None`` means "every kind"); attaching only
:class:`NullSink` keeps the bus disabled, and attaching e.g. a sink
with ``kinds=(CACHE_EPOCH,)`` enables *only* that kind — the
per-get ``cache.access`` events are then never constructed at all.

Kind-gates propagate both ways along the chain: each bus tracks its child
buses (weakly — windows create one child bus each) and re-derives the
effective wanted-kind set whenever any bus on the chain attaches or
detaches a sink, so a child never constructs an event only its parent
would drop.
"""

from __future__ import annotations

import weakref

from repro.obs.events import Event
from repro.obs.sinks import Sink

#: Sentinel wanted-set meaning "every kind" (sink without a ``kinds`` attr).
_ALL = None


class _EveryKind(frozenset):
    """The effective gate of a bus some sink wants every kind on: an empty
    frozenset that contains every kind, so ``kind in bus._wanted`` is the
    whole gate on every bus."""

    __slots__ = ()

    def __contains__(self, kind: object) -> bool:
        return True


_EVERY_KIND = _EveryKind()


class EventBus:
    """Fan-out of telemetry events to attached sinks (plus a parent bus)."""

    def __init__(self, parent: "EventBus | None" = None):
        self._sinks: list[Sink] = []
        self._parent = parent
        self._children: "weakref.WeakSet[EventBus]" = weakref.WeakSet()
        self._local_enabled = False
        #: kinds wanted by enabling sinks attached *here* (None = all)
        self._local_kinds: frozenset[str] | None = frozenset()
        #: effective gate: local ∪ parent-effective.  ``_wanted`` contains
        #: every kind when ``_wants_all`` holds; hot paths read
        #: ``kind in bus._wanted`` afresh on each op (attach/detach rebinds it)
        self._wants_all = False
        self._wanted: frozenset[str] = frozenset()
        if parent is not None:
            parent._children.add(self)
            self._recompute()

    # ------------------------------------------------------------------
    @property
    def parent(self) -> "EventBus | None":
        return self._parent

    @property
    def enabled(self) -> bool:
        """True when some enabling sink (here or upstream) wants any kind."""
        return self._wants_all or bool(self._wanted)

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    # ------------------------------------------------------------------
    def wants(self, kind: str) -> bool:
        """True when some attached sink — local or upstream — consumes
        events of ``kind``.  O(1); emit sites call this *before* paying
        for ``Event`` construction, and per-op hot paths test
        ``kind in bus._wanted`` in line, the same gate without the call."""
        return kind in self._wanted

    # ------------------------------------------------------------------
    def attach(self, sink: Sink) -> Sink:
        """Register ``sink``; returns it (handy for inline construction)."""
        self._sinks.append(sink)
        self._refresh()
        return sink

    def detach(self, sink: Sink) -> None:
        """Unregister ``sink`` (must be attached)."""
        self._sinks.remove(sink)
        self._refresh()

    def _refresh(self) -> None:
        """Recompute the local gate from attached sinks, then re-derive
        the effective gate here and in every (transitive) child bus."""
        enabled = False
        kinds: set[str] | None = set()
        for s in self._sinks:
            if not getattr(s, "enables_bus", True):
                continue
            if getattr(s, "passive", False):
                # piggybacking observer: receives what other sinks caused
                # to exist, never widens the gate or enables the bus
                continue
            enabled = True
            sink_kinds = getattr(s, "kinds", _ALL)
            if sink_kinds is _ALL:
                kinds = _ALL
            elif kinds is not None:
                kinds.update(sink_kinds)
        self._local_enabled = enabled
        self._local_kinds = _ALL if kinds is _ALL else frozenset(kinds)
        self._recompute()

    def _recompute(self) -> None:
        """Re-derive ``_wants_all``/``_wanted`` = local ∪ parent-effective
        and push the result down the child chain."""
        p = self._parent
        parent_all = p is not None and p._wants_all
        if self._local_kinds is _ALL or parent_all:
            self._wants_all = True
            self._wanted = _EVERY_KIND
        else:
            self._wants_all = False
            wanted = self._local_kinds
            if p is not None and p._wanted:
                wanted = wanted | p._wanted
            self._wanted = wanted
        for child in self._children:
            child._recompute()

    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        """Deliver ``event`` to local sinks, then forward to the parent."""
        if self._local_enabled:
            for s in self._sinks:
                s.handle(event)
        p = self._parent
        if p is not None and p.enabled:
            p.emit(event)
