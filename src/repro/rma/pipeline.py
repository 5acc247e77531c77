"""The bound op handler a window issues its descriptors through."""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.rma.descriptor import OpDescriptor

#: runs one descriptor through a chain; returns the same descriptor
Handler = Callable[[OpDescriptor], OpDescriptor]


class BoundPipeline(NamedTuple):
    """One chain (data or sync) bound to one window at construction time."""

    issue: Handler
    #: no resilience wrapper was bound: ``issue`` is the bare attempt
    fused: bool
