"""Cache-entry state machine (paper Fig. 5).

Every cache entry is conceptually in one of three states:

* ``MISSING`` — not present (the initial state, and the state after
  eviction/invalidation);
* ``PENDING`` — the data has been requested by a get in the current epoch
  but the epoch has not closed yet, so the payload is not in ``S_w``;
* ``CACHED`` — the payload sits in ``S_w`` and can be copied to any
  destination buffer.

Legal transitions (Fig. 5): MISSING→PENDING on a successful *direct*,
*conflicting* or *capacity* access; PENDING→CACHED at epoch closure;
CACHED→MISSING on eviction or invalidation; PENDING→MISSING on invalidation
(transparent-mode closure).  Everything else is a bug and
:func:`check_transition` raises.
"""

from __future__ import annotations

from enum import Enum


class EntryState(Enum):
    MISSING = "missing"
    PENDING = "pending"
    CACHED = "cached"

    #: states this one may legally move to (filled in from ``_LEGAL`` below)
    successors: "tuple[EntryState, ...]"


_LEGAL: frozenset[tuple[EntryState, EntryState]] = frozenset(
    {
        (EntryState.MISSING, EntryState.PENDING),   # successful miss access
        (EntryState.PENDING, EntryState.CACHED),    # epoch closure
        (EntryState.CACHED, EntryState.MISSING),    # eviction / invalidation
        (EntryState.PENDING, EntryState.MISSING),   # invalidation before close
        (EntryState.CACHED, EntryState.PENDING),    # partial-hit extension refetch
    }
)


# The per-transition check, derived from ``_LEGAL`` (which stays the single
# statement of Fig. 5): each state carries the tuple of states it may move
# to, so a check is an identity scan instead of hashing an (Enum, Enum)
# pair through the Python-level ``Enum.__hash__`` twice per transition.
for _old in EntryState:
    _old.successors = tuple(n for n in EntryState if (_old, n) in _LEGAL)


class IllegalTransition(RuntimeError):
    """Raised when an entry attempts a transition not present in Fig. 5."""


def check_transition(old: EntryState, new: EntryState) -> None:
    """Validate a state change; raises :class:`IllegalTransition` if bogus."""
    if new is old or new in old.successors:
        return
    raise IllegalTransition(f"illegal cache-entry transition {old} -> {new}")
