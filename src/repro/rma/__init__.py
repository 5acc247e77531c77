"""The op path's former import name: a re-export of :mod:`repro.mpi.ops`."""

from repro.mpi.ops import (
    DATA_KINDS,
    SYNC_KINDS,
    BoundPipeline,
    OpDescriptor,
    build_data_pipeline,
    build_sync_pipeline,
    describe_accumulate,
    describe_get,
    describe_get_batch,
    describe_lock,
    describe_put,
    describe_sync,
    emit_get_batch,
)

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
