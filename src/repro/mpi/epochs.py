"""The MPI-3 RMA epoch rules, written once as a table.

A rank's access epoch on a window is in one of five modes: CLOSED, LOCK
(``lock`` towards some ranks), LOCK_ALL, FENCE (inside ``fence_epoch``)
and PSCW (between ``start`` and ``complete``).  :data:`EPOCHS` maps (mode,
call) to the mode the call leaves behind, or to the text of the
:class:`~repro.mpi.errors.EpochError` it raises, which leaves the mode as
it was.  A bare ``fence`` is a completion boundary, not an opener.  Flush,
unlock, fence and complete also close a *consistency* epoch (paper
Listing 1, ``eph``), whatever mode they leave.

LOCK and PSCW cover only the ranks named when they opened (the locked
ranks, the started group).  For calls towards a rank in those modes the
table holds a pair: the outcome when the rank is covered, and when it is
not.  The static verifier cannot see ranks and takes the first.  LOCK is
left when its last lock is released.

:class:`repro.mpi.window.Window` raises from this table,
:mod:`repro.analysis.typestate` uses it as its transfer function, and
:mod:`repro.analysis.epochs` steps it on the sync events.
"""

from __future__ import annotations

CLOSED = "closed"
LOCK = "lock"
LOCK_ALL = "lock_all"
FENCE = "fence"
PSCW = "pscw"
MODES = (CLOSED, LOCK, LOCK_ALL, FENCE, PSCW)
#: the modes that hold an access epoch open
OPEN_MODES = MODES[1:]

#: calls that move data
DATA_OPS = frozenset({"get", "put", "accumulate"})
#: calls only an open epoch allows (the static verifier's ANL012)
NEEDS_EPOCH = DATA_OPS | {"flush", "flush_all"}
#: calls that complete outstanding operations (epoch-closure events)
COMPLETES = frozenset(
    {"flush", "flush_all", "unlock", "unlock_all", "fence", "fence_enter",
     "fence_exit", "complete"}
)

_OUTSIDE = (
    "{call} towards rank {rank} outside an access epoch "
    "(call lock/lock_all/start first)"
)
_LOCKED = "rank {rank} is already locked"
_UNLOCK = "unlock({rank}): rank {rank} is not locked by rank {me} ({state})"
_UNLOCK_ALL = "unlock_all on rank {me} without a lock_all epoch ({state})"
_LOCK_ALL = "lock_all inside an existing epoch"
_FENCE = "fence inside another access epoch"
_START = "start inside an existing access epoch"
_COMPLETE = "complete without a matching start"
_FLUSH_ALL = "flush_all outside an access epoch"
_FREE = "free called inside an open access epoch"
_ANY_RANK = (_OUTSIDE, (LOCK, _OUTSIDE), LOCK_ALL, FENCE, (PSCW, _OUTSIDE))

#: call -> its outcome in each mode: CLOSED, LOCK, LOCK_ALL, FENCE, PSCW
_COLUMNS = {
    "lock": (LOCK, (_LOCKED, LOCK), _LOCKED, "lock inside a fence epoch",
             "lock inside a PSCW epoch"),
    "lock_all": (LOCK_ALL, _LOCK_ALL, _LOCK_ALL, _LOCK_ALL, _LOCK_ALL),
    "unlock": (_UNLOCK, (CLOSED, _UNLOCK), _UNLOCK, _UNLOCK, _UNLOCK),
    "unlock_all": (_UNLOCK_ALL, _UNLOCK_ALL, CLOSED, _UNLOCK_ALL,
                   _UNLOCK_ALL),
    "fence": (CLOSED, _FENCE, _FENCE, FENCE, _FENCE),
    "fence_enter": (FENCE, _FENCE, _FENCE, FENCE, _FENCE),
    "fence_exit": (CLOSED, _FENCE, _FENCE, CLOSED, _FENCE),
    "start": (PSCW, _START, _START, _START, _START),
    "complete": (_COMPLETE, _COMPLETE, _COMPLETE, _COMPLETE, CLOSED),
    "flush": _ANY_RANK,
    "flush_all": (_FLUSH_ALL, LOCK, LOCK_ALL, _FLUSH_ALL, _FLUSH_ALL),
    "get": _ANY_RANK,
    "put": _ANY_RANK,
    "accumulate": _ANY_RANK,
    "free": (CLOSED, _FREE, _FREE, _FREE, _FREE),
}
#: (mode, call) -> next mode, error text, or a scoped (covered, not) pair
EPOCHS = {
    (mode, call): out
    for call, column in _COLUMNS.items()
    for mode, out in zip(MODES, column)
}

#: window method -> the calls it makes, in order: each call but the
#: fence_epoch halves is the window method of its name, plus four more
VERBS = {c: (c,) for c in _COLUMNS if not c.startswith("fence_")}
VERBS.update(
    rget=("get",), rput=("put",), get_batch=("get",),
    get_blocking=("get", "flush"),
)
#: scoped epoch context manager -> (call on entry, call on exit)
SCOPES = {
    "lock_epoch": ("lock", "unlock"),
    "lock_all_epoch": ("lock_all", "unlock_all"),
    "fence_epoch": ("fence_enter", "fence_exit"),
}


def step(mode: str, call: str, covered: bool = True) -> str:
    """The mode ``call`` leaves behind in ``mode``, or its error text.

    ``covered`` says whether the call's rank is in the open epoch's
    access set; only the scoped rows of LOCK and PSCW read it.  The
    result is an error exactly when it is not in :data:`MODES`.
    """
    out = EPOCHS[mode, call]
    if type(out) is tuple:
        out = out[not covered]
    return out
