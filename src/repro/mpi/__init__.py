"""Simulated MPI-3 one-sided (RMA) library.

This package is a from-scratch, single-machine re-implementation of the
slice of MPI-3 that CLaMPI builds on (paper Sec. I-A):

* :class:`~repro.mpi.simmpi.SimMPI` — launcher: runs one program per rank on
  the deterministic :mod:`repro.runtime` scheduler.
* :class:`~repro.mpi.comm.Communicator` — ``rank``/``size``, ``barrier``,
  ``bcast``, ``allgather``, ``allreduce``, ``gather``.
* :class:`~repro.mpi.window.Window` — ``win_allocate``/``win_create``,
  passive-target epochs (``lock``/``unlock``/``lock_all``/``unlock_all``/
  ``flush``/``flush_all``) and active-target ``fence``; non-blocking ``get``
  and ``put`` completed at synchronisation calls; per-window epoch counter
  ``eph`` incremented at every epoch-closure event.
* :mod:`~repro.mpi.datatypes` — an MPI datatype library with flattening to
  ``(offset, size)`` block lists (paper Sec. II-B).

Timing: every operation charges virtual time through the job's
:class:`repro.net.PerfModel`; non-blocking gets charge injection cost at
issue time and complete (clock-wise) at the next synchronisation, which is
what makes the overlap study (Fig. 8) reproducible.

Importing the package loads only its value types (datatypes, errors);
the launcher, communicator and window load on first use of their names
(PEP 562), so a layer that needs a datatype does not load the world.
"""

import importlib

from repro.mpi.datatypes import (
    BYTE,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    Contiguous,
    Datatype,
    Indexed,
    Predefined,
    Vector,
)
from repro.mpi.errors import (
    EpochError,
    EpochMisuseError,
    FaultError,
    MPIError,
    RMARaceError,
    RMATimeoutError,
    StorageFault,
    TransientNetworkError,
    WindowError,
)

#: names served on first access, with the module that defines them
_LAZY = {
    "Communicator": "repro.mpi.comm",
    "ReduceOp": "repro.mpi.comm",
    "MPIProcess": "repro.mpi.simmpi",
    "SimMPI": "repro.mpi.simmpi",
    "LOCK_EXCLUSIVE": "repro.mpi.window",
    "LOCK_SHARED": "repro.mpi.window",
    "Request": "repro.mpi.window",
    "Window": "repro.mpi.window",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value

__all__ = [
    "BYTE",
    "Communicator",
    "Contiguous",
    "Datatype",
    "EpochError",
    "EpochMisuseError",
    "FLOAT32",
    "FaultError",
    "FLOAT64",
    "INT32",
    "INT64",
    "Indexed",
    "LOCK_EXCLUSIVE",
    "LOCK_SHARED",
    "MPIError",
    "MPIProcess",
    "Predefined",
    "RMARaceError",
    "RMATimeoutError",
    "ReduceOp",
    "Request",
    "SimMPI",
    "StorageFault",
    "TransientNetworkError",
    "Vector",
    "Window",
    "WindowError",
]
