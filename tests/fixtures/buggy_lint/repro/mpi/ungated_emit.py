"""Seeded ANL014 fixture: ungated Event construction on a hot path.

This file deliberately violates the kind-gated telemetry discipline —
the lint gate must keep flagging it (see tests/test_analysis_lint.py and
the CI analysis job).  It lives under a ``repro/mpi/`` path so the
hot-path scoping of ANL014 applies.
"""

from repro.obs import RMA_GET, Event, get_bus


def issue_get(rank, clock):
    # BUG: constructs the Event unconditionally — allocates per op even
    # when no sink subscribes to RMA_GET.  Must be wrapped in a
    # wants()-gated _emit* helper.
    get_bus().emit(Event(RMA_GET, rank, clock))
    return 0
