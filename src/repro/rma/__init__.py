"""``repro.rma`` — op descriptors and the handlers they are issued through.

The architectural seam between window APIs and everything that happens to
an RMA operation.  Ops are *described* once
(:class:`~repro.rma.descriptor.OpDescriptor`: kind, target footprint,
dtype, origin identity, policy switches) and *issued* through one
straight-line handler per chain (:mod:`repro.rma.interceptors`) whose
statement order is the ordering contract — byte movement, fault
injection, cost-model pricing, telemetry, epoch closure — with one shared
retry/fail-fast wrapper bound only on windows that can see faults.  The
CLaMPI cached get is :meth:`repro.core.window.CachedWindow._serve`, which
issues its network gets through this package.

A data-plane change (a new transport, a new charge) is one edit in one
handler.  See ``docs/architecture.md`` for the layering diagram and
ordering invariants, ``docs/api.md`` for the descriptor / ``get_batch`` API.
"""

from repro.rma.descriptor import (
    DATA_KINDS,
    SYNC_KINDS,
    OpDescriptor,
    describe_accumulate,
    describe_get,
    describe_get_batch,
    describe_lock,
    describe_put,
    describe_sync,
)
from repro.rma.interceptors import (
    build_data_pipeline,
    build_sync_pipeline,
    emit_get_batch,
)
from repro.rma.pipeline import BoundPipeline

__all__ = [
    "BoundPipeline",
    "DATA_KINDS",
    "OpDescriptor",
    "SYNC_KINDS",
    "build_data_pipeline",
    "build_sync_pipeline",
    "describe_accumulate",
    "describe_get",
    "describe_get_batch",
    "describe_lock",
    "describe_put",
    "describe_sync",
    "emit_get_batch",
]
