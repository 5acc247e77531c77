"""Cache entries: the values stored in ``I_w`` pointing into ``S_w``.

Paper Sec. II-A: an index entry is ``i = (trg, dsp, dtype, count, ptr)``;
``ptr`` is our storage :class:`~repro.core.storage.Descriptor`.  We add the
bookkeeping the algorithms need: the Fig. 5 state, ``last`` (index of the
last matching get in ``C_w.G``, for the temporal score) and, while PENDING,
a view of the source buffer the payload will be materialised from at epoch
closure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.states import EntryState, check_transition
from repro.mpi.datatypes import Block, Datatype

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.storage import Descriptor

#: a module constant: ``EntryState.MISSING`` is a Python-level descriptor
#: call on CPython 3.11, and every miss builds an entry
_MISSING = EntryState.MISSING


def payload_prefix_blocks(blocks: list[Block], nbytes: int) -> list[Block]:
    """Clip a flattened block list to its first ``nbytes`` payload bytes.

    Used to decide whether a smaller get is layout-compatible with a cached
    entry: the get is a *full hit* iff its own flattened blocks equal the
    prefix of the entry's blocks covering the same payload size.
    """
    if nbytes < 0:
        raise ValueError(f"negative prefix size: {nbytes}")
    out: list[Block] = []
    remaining = nbytes
    for off, size in blocks:
        if remaining == 0:
            break
        take = min(size, remaining)
        out.append((off, take))
        remaining -= take
    if remaining:
        raise ValueError(f"prefix {nbytes} exceeds payload {nbytes - remaining}")
    return out


class CacheEntry:
    """One cached get: identity, layout, storage pointer and metadata."""

    __slots__ = (
        "trg",
        "dsp",
        "key",
        "dtype",
        "count",
        "size",
        "state",
        "desc",
        "last",
        "slot",
        "pending_source",
        "pinned",
    )

    def __init__(
        self,
        trg: int,
        dsp: int,
        dtype: Datatype,
        count: int,
        key: tuple[int, int] | None = None,
        size: int | None = None,
    ):
        self.trg = trg
        self.dsp = dsp
        #: index key — the paper's hit rule is (trg, dsp) equality.  Stored
        #: (the index compares it on every probe); a missing get hands over
        #: the tuple it already looked up with.
        self.key = key if key is not None else (trg, dsp)
        self.dtype = dtype
        self.count = count
        #: payload bytes (size(x)); a missing get hands over its transfer size
        self.size = size if size is not None else dtype.transfer_size(count)
        self.state = _MISSING
        self.desc: Descriptor | None = None
        self.last = 0
        self.slot = -1  #: cuckoo slot (managed by the index)
        #: while PENDING: byte view of the origin buffer of the fetching
        #: get (a memoryview, or a numpy view where the hit's memoryview
        #: test fails); MPI forbids touching it before the epoch closes, so
        #: it is a valid materialisation source at closure time.
        self.pending_source: memoryview | np.ndarray | None = None
        #: read-only survivor of a crashed target (recovery="serve-stale");
        #: pinned entries are never eviction victims and outlive epoch-close
        #: invalidation, but explicit invalidate() still drops them.
        self.pinned = False

    # ------------------------------------------------------------------
    def transition(self, new_state: EntryState) -> None:
        """Move to ``new_state``; :func:`check_transition` raises for a
        move Fig. 5 does not allow (the test is its passing case)."""
        old = self.state
        if new_state is not old and new_state not in old.successors:
            check_transition(old, new_state)
        self.state = new_state

    def blocks(self) -> list[Block]:
        """Flattened target-side layout of this entry."""
        return self.dtype.flatten(self.count)

    def covers(
        self, dtype: Datatype, count: int, want: int | None = None
    ) -> bool:
        """Full-hit test: is a get of (dtype, count) served by this entry?

        Same datatype: a prefix in element count suffices (payload flattening
        is element-major, so fewer elements are always a payload prefix).
        Different datatype: fall back to comparing flattened blocks against
        the matching payload prefix of this entry.  ``want`` is the get's
        transfer size when the caller already has it.
        """
        if want is None:
            want = dtype.transfer_size(count)
        if want > self.size:
            return False
        # identity first: predefined datatypes are singletons, and the
        # frozen-dataclass ``==`` builds and compares two field tuples
        if dtype is self.dtype or dtype == self.dtype:
            return count <= self.count
        try:
            return dtype.flatten(count) == payload_prefix_blocks(self.blocks(), want)
        except ValueError:
            return False

    def relayout(self, dtype: Datatype, count: int) -> None:
        """Adopt a new layout (partial-hit extension, Sec. III-B1)."""
        self.dtype = dtype
        self.count = count
        self.size = dtype.transfer_size(count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheEntry(trg={self.trg}, dsp={self.dsp}, size={self.size}, "
            f"state={self.state.value}, last={self.last})"
        )
