"""Virtual-time charges for cache-management work (Fig. 7 decomposition).

CLaMPI's promise is *bounded overhead in the miss case*; to evaluate that
(micro-benchmarks of Sec. IV-A) every management step must cost virtual
time:

* ``lookup``     — the constant-time cuckoo query;
* ``probes``     — extra hash-table probes during insertion walks;
* ``avl_steps``  — AVL search/rebalance steps (allocation and release);
* ``eviction_visits`` — slots visited while sampling a victim;
* ``descriptor_updates`` — linked-list / ``d_c`` bookkeeping;
* ``copy``       — payload memcpy (hit path and materialisation);
* ``invalidate`` — clearing the structures;
* ``adjust``     — adaptive resize: structure re-allocation + invalidation.

A :class:`~repro.core.engine.CacheEngine` owns one.  Behind a
``CachedWindow`` the sink is ``SimProcess.advance``; a standalone engine
(no world at all) passes any callable or none and reads
:attr:`CostModel.total`.
"""

from __future__ import annotations

from typing import Callable

from repro.net.model import MemoryModel

#: fixed cost of tearing down the structures on invalidation
INVALIDATE_BASE = 1.0e-6
#: per-live-entry cost of invalidation (descriptor/score teardown)
INVALIDATE_PER_ENTRY = 30e-9
#: per-slot cost of (re)initialising the index (memset-like)
SLOT_INIT = 1.0e-9
#: per-byte cost of (re)allocating the storage buffer (page touch)
STORAGE_INIT_PER_BYTE = 0.05e-9


class CostModel:
    """Accumulates management time and forwards it to a clock sink.

    Charged several times per get, so each method is one add and one sink
    call; virtual time is a float sum in issue order: never merge charges.
    A full hit makes its ``lookup`` and ``copy`` charges in line in
    :meth:`CacheEngine.serve`, which must stay in step with them.
    """

    def __init__(
        self,
        memory: MemoryModel | None = None,
        sink: Callable[[float], None] | None = None,
    ):
        self.memory = memory or MemoryModel()
        self._sink = sink or (lambda _seconds: None)  # standalone: total only
        self.total = 0.0  #: cumulative management time (seconds)
        #: copy_time per size: pure (the model is frozen), few distinct sizes
        self._copy_times: dict[int, float] = {}

    # ------------------------------------------------------------------
    def lookup(self) -> None:
        dt = self.memory.lookup_time
        self.total += dt
        self._sink(dt)

    def probes(self, n: int) -> None:
        dt = n * self.memory.probe_time
        self.total += dt
        self._sink(dt)

    def copy(self, nbytes: int) -> None:
        dt = self._copy_times.get(nbytes)
        if dt is None:
            if len(self._copy_times) >= 4096:
                self._copy_times.clear()
            dt = self._copy_times[nbytes] = self.memory.copy_time(nbytes)
        self.total += dt
        self._sink(dt)

    def avl_steps(self, n: int) -> None:
        dt = n * self.memory.avl_step_time
        self.total += dt
        self._sink(dt)

    def eviction_visits(self, n: int) -> None:
        dt = n * self.memory.eviction_visit_time
        self.total += dt
        self._sink(dt)

    def descriptor_updates(self, n: int) -> None:
        dt = n * self.memory.descriptor_update_time
        self.total += dt
        self._sink(dt)

    def invalidate(self, live_entries: int) -> None:
        dt = INVALIDATE_BASE + live_entries * INVALIDATE_PER_ENTRY
        self.total += dt
        self._sink(dt)

    def adjust(self, new_slots: int, new_storage_bytes: int) -> None:
        """Adaptive resize: rebuild index + storage (then invalidate)."""
        dt = new_slots * SLOT_INIT + new_storage_bytes * STORAGE_INIT_PER_BYTE
        self.total += dt
        self._sink(dt)
