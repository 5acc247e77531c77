"""Typed telemetry events.

Every event is stamped with the emitting rank, the rank's *virtual* time
(seconds on the simulated clock — never wall time) and the window epoch
counter at emission, matching the measurement axes of the paper's
evaluation (per-get classification, Fig. 13/16/18; virtual-time latency,
Fig. 1/7; adaptation timeline, Fig. 9).

Two shapes share one class:

* **counter events** — a point occurrence (``duration == 0``), e.g. one
  classified cached get (``cache.access``);
* **span events** — an occurrence with a virtual-time extent
  (``duration > 0``), e.g. one network transfer (``net.transfer``).

Events are immutable and JSON-serialisable (``to_json``/``from_json``),
which is what the JSONL sink and the ``python -m repro.obs report`` CLI
build on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

# ---------------------------------------------------------------------------
# Event kinds.  Dotted names group by emitting layer.
# ---------------------------------------------------------------------------
RMA_GET = "rma.get"                  #: a one-sided get was posted
RMA_GET_BATCH = "rma.get_batch"      #: a batch of gets issued in one pass
RMA_PUT = "rma.put"                  #: a one-sided put was posted
RMA_ACCUMULATE = "rma.accumulate"    #: an accumulate was applied
RMA_FLUSH = "rma.flush"              #: flush/flush_all completed operations
RMA_FENCE = "rma.fence"              #: an active-target fence completed
RMA_LOCK = "rma.lock"                #: a passive-target epoch opened
RMA_UNLOCK = "rma.unlock"            #: a passive-target epoch closed
NET_TRANSFER = "net.transfer"        #: the network model charged a transfer
SCHED_SWITCH = "sched.switch"        #: the scheduler dispatched another rank
CACHE_ACCESS = "cache.access"        #: one classified get_c (hit/miss/...)
CACHE_ACCESS_BATCH = "cache.access_batch"  #: one accounting pass for a get_batch
CACHE_EVICT = "cache.evict"          #: a cache entry was evicted
CACHE_ADMIT = "cache.admit"          #: the admission policy ruled on a miss
CACHE_INVALIDATE = "cache.invalidate"  #: the cache content was dropped
CACHE_ADAPT = "cache.adapt"          #: the adaptive controller resized C_w
CACHE_EPOCH = "cache.epoch"          #: per-epoch-closure stats sample
CACHE_DEGRADED = "cache.degraded"    #: the cache quarantined / re-enabled itself
TRACE_GET = "trace.get"              #: a TracingWindow recorded a get
FAULT_INJECTED = "fault.injected"    #: the fault injector fired at a site
FAULT_RETRY = "fault.retry"          #: a faulted RMA op was retried (backoff)
ANALYSIS_VIOLATION = "analysis.violation"  #: the RMA sanitizer found a hazard
RANK_CRASHED = "rank.crashed"        #: a rank died permanently (crash-stop)
WINDOW_REVOKED = "window.revoked"    #: a window was revoked after a failure
CACHE_RECOVERED = "cache.recovered"  #: the cache recovered a dead rank's entries

#: the ``access`` values a ``cache.access`` event carries, in the order of
#: :class:`repro.core.stats.AccessType` (a tier-1 test holds them equal)
ACCESS_TYPES = (
    "hit_full",
    "hit_partial",
    "hit_pending",
    "direct",
    "conflicting",
    "capacity",
    "failing",
)

ALL_KINDS = frozenset(
    {
        ANALYSIS_VIOLATION,
        RMA_GET,
        RMA_GET_BATCH,
        RMA_PUT,
        RMA_ACCUMULATE,
        RMA_FLUSH,
        RMA_FENCE,
        RMA_LOCK,
        RMA_UNLOCK,
        NET_TRANSFER,
        SCHED_SWITCH,
        CACHE_ACCESS,
        CACHE_ACCESS_BATCH,
        CACHE_EVICT,
        CACHE_ADMIT,
        CACHE_INVALIDATE,
        CACHE_ADAPT,
        CACHE_EPOCH,
        CACHE_DEGRADED,
        TRACE_GET,
        FAULT_INJECTED,
        FAULT_RETRY,
        RANK_CRASHED,
        WINDOW_REVOKED,
        CACHE_RECOVERED,
    }
)


@dataclass(frozen=True)
class Event:
    """One telemetry event, stamped ``(rank, virtual time, epoch)``.

    ``win`` identifies the originating window (``Window.win_id``) when the
    event is window-scoped, else ``None``.  ``attrs`` carries kind-specific
    payload (target rank, byte counts, access classification, ...).
    """

    kind: str
    rank: int
    time: float                      #: virtual seconds of the emitting rank
    epoch: int = 0                   #: window epoch counter (w.eph)
    win: int | None = None
    duration: float = 0.0            #: virtual extent; 0 for counter events
    attrs: Mapping[str, Any] = field(default_factory=dict)

    @property
    def is_span(self) -> bool:
        return self.duration > 0.0

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "kind": self.kind,
            "rank": self.rank,
            "time": self.time,
            "epoch": self.epoch,
        }
        if self.win is not None:
            d["win"] = self.win
        if self.duration:
            d["duration"] = self.duration
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Event":
        return cls(
            kind=d["kind"],
            rank=int(d["rank"]),
            time=float(d["time"]),
            epoch=int(d.get("epoch", 0)),
            win=d.get("win"),
            duration=float(d.get("duration", 0.0)),
            attrs=dict(d.get("attrs", {})),
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        return cls.from_dict(json.loads(line))
