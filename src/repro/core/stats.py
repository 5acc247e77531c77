"""Access-type accounting for a caching layer.

The paper classifies every get_c (Sec. III-B):

* *hitting* — lookup found a CACHED or PENDING entry (full or partial);
* *direct* — miss served without any eviction;
* *conflicting* — miss that required an index (cuckoo insertion-path)
  eviction;
* *capacity* — miss that required a storage eviction which then freed
  enough space;
* *failing* — miss that could not be cached (no resources even after the
  bounded eviction attempt).

Figures 13, 16 and 18 plot exactly these counters normalised by the total
number of gets; the adaptive controller (Sec. III-E) consumes the same
counters over a sliding interval, so :class:`CacheStats` keeps both a
cumulative and a resettable *interval* view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable

#: Version of the public ``CacheStats.snapshot()`` schema.  Bump whenever a
#: counter is added, removed or renamed so downstream consumers (captures,
#: dashboards, the obs report CLI) can detect incompatible dumps.
#: v2: added the resilience counters (faults_injected, retries,
#: storage_faults, degraded_gets, quarantines).
#: v3: added the resolved eviction/admission policy name (``policy``, a
#: string — the one non-numeric snapshot value besides schema_version)
#: and the ``admission_rejects`` counter.
#: v4: added the crash-recovery counters (rank_failures,
#: failed_target_gets, recovered_gets, recovery_pinned, recovery_dropped).
SCHEMA_VERSION = 4


class AccessType(Enum):
    HIT_FULL = "hit_full"
    HIT_PARTIAL = "hit_partial"
    HIT_PENDING = "hit_pending"
    DIRECT = "direct"
    CONFLICTING = "conflicting"
    CAPACITY = "capacity"
    FAILING = "failing"


@dataclass
class Counters:
    """Raw event counters (one instance per accounting scope)."""

    gets: int = 0
    hit_full: int = 0
    hit_partial: int = 0
    hit_pending: int = 0
    direct: int = 0
    conflicting: int = 0
    capacity: int = 0
    failing: int = 0
    evictions: int = 0
    eviction_visited: int = 0       #: index slots visited by capacity evictions
    eviction_nonempty: int = 0      #: of those, how many held an entry
    capacity_evictions: int = 0     #: evictions triggered by storage pressure
    conflict_evictions: int = 0     #: evictions triggered by cuckoo cycles
    invalidations: int = 0
    adjustments: int = 0            #: adaptive parameter changes
    bytes_from_cache: int = 0
    bytes_from_network: int = 0
    # -- resilience counters (schema v2) --------------------------------
    faults_injected: int = 0        #: injected get/put/flush faults observed
    retries: int = 0                #: backoff retries performed underneath
    storage_faults: int = 0         #: injected S_w allocation failures
    degraded_gets: int = 0          #: gets served direct while quarantined
    quarantines: int = 0            #: times the cache self-disabled
    # -- policy counters (schema v3) ------------------------------------
    admission_rejects: int = 0      #: misses the admission policy refused
    # -- crash-recovery counters (schema v4) ----------------------------
    rank_failures: int = 0          #: crashed target ranks this cache observed
    failed_target_gets: int = 0     #: gets refused because the target is dead
    recovered_gets: int = 0         #: gets served from a dead rank's entries
    recovery_pinned: int = 0        #: entries pinned read-only on target death
    recovery_dropped: int = 0       #: entries invalidated on target death

    @property
    def hits(self) -> int:
        return self.hit_full + self.hit_partial + self.hit_pending

    @property
    def misses(self) -> int:
        return self.direct + self.conflicting + self.capacity + self.failing

    def ratio(self, value: int) -> float:
        """``value`` normalised by total gets (0.0 when no gets yet)."""
        return value / self.gets if self.gets else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.ratio(self.hits)

    @property
    def conflict_ratio(self) -> float:
        return self.ratio(self.conflicting)

    @property
    def capacity_failed_ratio(self) -> float:
        return self.ratio(self.capacity + self.failing)

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def snapshot_hits(snapshot: "dict[str, int | str]") -> int:
    """:attr:`Counters.hits` for the plain-dict form of the counters.

    Takes a ``CacheStats.snapshot()`` or an app run's ``merged_stats()``;
    absent keys count as zero, so the empty dict of an uncached run has
    no hits.
    """
    return (
        snapshot.get("hit_full", 0)
        + snapshot.get("hit_partial", 0)
        + snapshot.get("hit_pending", 0)
    )


def merge_snapshots(
    per_rank: "Iterable[dict[str, int | str]]",
) -> dict[str, int | float]:
    """Sum per-rank snapshots counter by counter (an app run's merged stats).

    Keys keep their first-seen order and a key a rank lacks counts as zero
    there; ``schema_version`` and non-numeric values (the ``policy`` name)
    are skipped — only counters add up across ranks.  No snapshots, or only
    the empty ones of an uncached run, merge to ``{}``.
    """
    merged: dict[str, int | float] = {}
    for snapshot in per_rank:
        for key, value in snapshot.items():
            if key != "schema_version" and isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class CacheStats:
    """Cumulative + interval counters for one caching layer."""

    total: Counters = field(default_factory=Counters)
    interval: Counters = field(default_factory=Counters)
    #: classification of the most recent get (handy for per-get benchmarks)
    last_access: AccessType | None = None
    #: resolved eviction/admission policy name (schema v3; set by the
    #: owning CachedWindow, None for standalone CacheStats instances)
    policy: str | None = None

    def record_access(self, access: AccessType) -> None:
        # Once per get: plain arithmetic on both views.  ``_value_`` is the
        # member's stored value (``.value`` is a descriptor call) and names
        # the ``Counters`` field to bump.  A full hit bumps the same
        # fields in line in CacheEngine.serve.
        name = access._value_
        total, interval = self.total, self.interval
        total.gets += 1
        interval.gets += 1
        total.__dict__[name] += 1
        interval.__dict__[name] += 1
        self.last_access = access

    def record_eviction(self, visited: int, nonempty: int, *, conflict: bool) -> None:
        for c in (self.total, self.interval):
            c.evictions += 1
            if conflict:
                c.conflict_evictions += 1
            else:
                c.capacity_evictions += 1
                c.eviction_visited += visited
                c.eviction_nonempty += nonempty

    def record_invalidation(self) -> None:
        self.total.invalidations += 1
        self.interval.invalidations += 1

    def record_adjustment(self) -> None:
        self.total.adjustments += 1
        self.interval.adjustments += 1

    def record_faults(self, n: int = 1) -> None:
        self.total.faults_injected += n
        self.interval.faults_injected += n

    def record_retries(self, n: int = 1) -> None:
        self.total.retries += n
        self.interval.retries += n

    def record_storage_fault(self) -> None:
        self.total.storage_faults += 1
        self.interval.storage_faults += 1

    def record_degraded_get(self) -> None:
        self.total.degraded_gets += 1
        self.interval.degraded_gets += 1

    def record_quarantine(self) -> None:
        self.total.quarantines += 1
        self.interval.quarantines += 1

    def record_admission_reject(self) -> None:
        self.total.admission_rejects += 1
        self.interval.admission_rejects += 1

    def record_rank_failure(self, pinned: int = 0, dropped: int = 0) -> None:
        """One crashed target observed, with the entry disposition counts."""
        for c in (self.total, self.interval):
            c.rank_failures += 1
            c.recovery_pinned += pinned
            c.recovery_dropped += dropped

    def record_failed_target_get(self) -> None:
        self.total.failed_target_gets += 1
        self.interval.failed_target_gets += 1

    def record_recovered_get(self) -> None:
        self.total.recovered_gets += 1
        self.interval.recovered_gets += 1

    def record_cache_bytes(self, nbytes: int) -> None:
        self.total.bytes_from_cache += nbytes
        self.interval.bytes_from_cache += nbytes

    def record_network_bytes(self, nbytes: int) -> None:
        self.total.bytes_from_network += nbytes
        self.interval.bytes_from_network += nbytes

    def reset_interval(self) -> None:
        self.interval.reset()

    def snapshot(self) -> dict[str, int | str]:
        """Cumulative counters as a plain dict (cheap to gather/compare).

        The dict carries a ``schema_version`` key (see
        :data:`SCHEMA_VERSION`) alongside the raw counters; the counter
        names are stable across releases within one schema version.
        Since v3 it also carries ``policy`` — the resolved
        eviction/admission policy name ("" when unattached).
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "policy": self.policy or "",
            **self.total.as_dict(),
        }

    def conservation_violations(self) -> list[str]:
        """Broken counter identities of the cumulative view (empty = OK).

        Convenience wrapper over :func:`conservation_violations` for an
        attached stats object — the transparency fuzzer's oracle calls
        this after every run.
        """
        return conservation_violations(self.snapshot())

    def breakdown(self) -> dict[str, float]:
        """Fig. 13/16/18-style normalised access breakdown.

        Keys are exactly the :class:`AccessType` values (a test pins this),
        each mapped to its count divided by the total number of gets.
        """
        t = self.total
        return {a.value: t.ratio(getattr(t, a.value)) for a in AccessType}


# ---------------------------------------------------------------------------
# conservation identities (the transparency fuzzer's stats oracle)
# ---------------------------------------------------------------------------
def conservation_violations(snapshot: "dict[str, int | str]") -> list[str]:
    """Counter identities every schema-v4 snapshot must satisfy.

    Returns one human-readable string per broken identity (empty list =
    conserved).  The identities are schema facts, not heuristics:

    * every classified get is exactly one of the seven access classes:
      ``gets == hit_full + hit_partial + hit_pending + direct +
      conflicting + capacity + failing`` (bypass gets are never counted);
    * every eviction has exactly one trigger:
      ``evictions == capacity_evictions + conflict_evictions``;
    * degraded, admission-rejected and failed-target gets are all
      recorded as FAILING accesses, so their sum can never exceed
      ``failing``;
    * recovered gets are served as full hits: ``recovered_gets <=
      hit_full``;
    * no counter is ever negative.
    """
    out: list[str] = []

    def n(key: str) -> int:
        v = snapshot.get(key, 0)
        return int(v) if not isinstance(v, str) else 0

    for key, value in snapshot.items():
        if key in ("schema_version", "policy"):
            continue
        if isinstance(value, (int, float)) and value < 0:
            out.append(f"negative counter: {key} = {value}")

    access_sum = sum(
        n(k)
        for k in (
            "hit_full",
            "hit_partial",
            "hit_pending",
            "direct",
            "conflicting",
            "capacity",
            "failing",
        )
    )
    if n("gets") != access_sum:
        out.append(
            f"gets ({n('gets')}) != sum of access classes ({access_sum})"
        )
    ev_sum = n("capacity_evictions") + n("conflict_evictions")
    if n("evictions") != ev_sum:
        out.append(
            f"evictions ({n('evictions')}) != capacity+conflict ({ev_sum})"
        )
    failing_floor = (
        n("degraded_gets") + n("admission_rejects") + n("failed_target_gets")
    )
    if failing_floor > n("failing"):
        out.append(
            "degraded_gets + admission_rejects + failed_target_gets "
            f"({failing_floor}) > failing ({n('failing')})"
        )
    if n("recovered_gets") > n("hit_full"):
        out.append(
            f"recovered_gets ({n('recovered_gets')}) > hit_full ({n('hit_full')})"
        )
    return out
