"""Pluggable eviction/admission policies for the caching layer.

The paper evaluates a single score-driven eviction scheme (Sec. III-D1:
full/positional/temporal scores).  This module generalises it into a
first-class policy subsystem: a :class:`CachePolicy` observes the cache's
lifecycle (hits, misses, inserts, frees), scores eviction candidates and
may veto admissions, while the *mechanism* — sampling, cuckoo-path victim
selection, storage bookkeeping — stays in
:class:`repro.core.engine.CacheEngine`.

Protocol
--------
A policy sees four observation hooks and two decision points:

=================  =======================================================
``on_hit``         a get matched a CACHED/PENDING entry (full or partial)
``on_miss``        a get missed; called for *every* miss, even ones the
                   policy later rejects (frequency sketches need this)
``on_insert``      an entry was inserted and holds storage (now PENDING)
``on_free``        an entry left the cache (evicted / invalidated / dropped)
``victim_score``   score an eviction candidate; **lower = better victim**
``admit``          accept/reject a miss before any index/storage work
=================  =======================================================

Decisions receive a :class:`PolicyContext` carrying the get-sequence
position, the running average get size, the candidate's adjacent free
space ``d_c`` and (when the engine is attached to a window) a
``miss_cost`` estimator of the virtual time a refetch of an entry would
take.

Registry
--------
Policies are selected **by name** through a process-global registry::

    from repro.core import policy
    policy.register("my-policy", MyPolicy)
    cfg = clampi.configure(policy="my-policy")

Built-in names: ``clampi-full`` (paper default, bit-identical to the
historical score engine), ``clampi-temporal``, ``clampi-positional``,
``lru``, ``slru``, ``gdsf`` and ``tinylfu``.

Determinism: policies must not read wall clocks or global RNG state
(lint rule ANL007) — any randomness must come from the seed handed to
:meth:`CachePolicy.bind`, so eviction traces replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Type

from repro.core.scores import full_score, positional_score, temporal_score

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.entry import CacheEntry

#: Default policy name (the paper's full-score engine).
DEFAULT_POLICY = "clampi-full"


@dataclass
class PolicyContext:
    """View of the cache state at a policy decision point.

    Treat it as **read-only and ephemeral**: the eviction engine reuses a
    single mutable instance across decisions (millions per run), updating
    the fields in place before each hook call.  Policies must not mutate
    it or retain a reference past the hook's return.

    It is filled in only for a hook that will run: a get whose hooks the
    policy leaves at the :class:`CachePolicy` no-ops builds no context at
    all.  Every hook that *is* called sees all fields current —
    ``adjacent_free`` is that of the entry passed to ``on_hit`` /
    ``on_insert`` / ``victim_score`` and 0 for ``on_miss`` / ``admit``,
    whose entry holds no storage yet.
    """

    seq_index: int            #: position ``i`` in the get sequence ``C_w.G``
    avg_get_size: float       #: ``C_w.ags(i)`` — running average get size
    adjacent_free: int = 0    #: ``d_c`` of the scored candidate (bytes)
    #: virtual-time estimate of refetching one entry (None when the engine
    #: runs standalone, e.g. in unit tests); cost-aware policies fall back
    #: to a size-proportional surrogate in that case
    miss_cost: Callable[["CacheEntry"], float] | None = None

    def refetch_cost(self, entry: "CacheEntry") -> float:
        """Miss penalty of losing ``entry`` (virtual seconds)."""
        if self.miss_cost is not None:
            return self.miss_cost(entry)
        # Standalone surrogate: linear in payload size (1 ns/B), so
        # cost-aware policies still order candidates sensibly in tests.
        return entry.size * 1e-9


class CachePolicy:
    """Base class / protocol for eviction + admission policies.

    Subclasses override the hooks they need; every hook has a no-op
    default so a minimal policy only implements :meth:`victim_score`.
    State must be rebuilt from scratch on :meth:`bind` — the engine
    re-binds after adaptive resizes and invalidation rebuilds.

    **When hooks are called.**  ``on_hit``, ``on_miss``, ``on_insert`` and
    ``admit`` run once per get, so the engine decides *when it binds the
    policy* which of them are overridden and the window never calls the
    others (an un-overridden ``admit`` admits).  The decision reads the
    bound attribute: a subclass method counts, and so does a callable
    assigned on the instance **before** the policy is handed to an engine
    or window; one assigned later is not seen.  ``on_free`` and
    ``victim_score`` are looked up on every call and may be replaced at
    any time.
    """

    #: registry name (set by subclasses; surfaced in stats/events)
    name = "abstract"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.capacity = 0

    def bind(self, capacity: int, seed: int) -> None:
        """Attach to an engine: learn the index capacity, reseed state."""
        self.capacity = capacity
        self.seed = seed

    # -- observation hooks ------------------------------------------------
    def on_hit(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        """A get matched ``entry`` (full, partial or pending hit)."""

    def on_miss(self, key: tuple[int, int], nbytes: int, ctx: PolicyContext) -> None:
        """A get missed on ``key``; fires before the admission decision."""

    def on_insert(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        """``entry`` was admitted, indexed and holds storage."""

    def on_free(self, entry: "CacheEntry", reason: str) -> None:
        """``entry`` left the cache (``evicted``/``invalidated``/``dropped``)."""

    # -- decision points --------------------------------------------------
    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        """Eviction priority; the engine evicts the **lowest** score."""
        raise NotImplementedError

    def admit(self, entry: "CacheEntry", ctx: PolicyContext) -> bool:
        """Accept ``entry`` into the cache?  Rejected misses stay uncached."""
        return True


# ---------------------------------------------------------------------------
# Built-in policies: the paper's score engine, re-expressed
# ---------------------------------------------------------------------------
class ClampiFullPolicy(CachePolicy):
    """Paper default: ``R = R_P x R_T`` (Sec. III-D1), bit-identical."""

    name = "clampi-full"

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        return full_score(
            ctx.avg_get_size, ctx.adjacent_free, entry.last, ctx.seq_index
        )


class ClampiTemporalPolicy(CachePolicy):
    """Single-factor temporal score ``R_T`` (the Fig. 10/11 ablation)."""

    name = "clampi-temporal"

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        return temporal_score(entry.last, ctx.seq_index)


class ClampiPositionalPolicy(CachePolicy):
    """Single-factor positional score ``R_P`` (the Fig. 10/11 ablation)."""

    name = "clampi-positional"

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        return positional_score(ctx.avg_get_size, ctx.adjacent_free)


# ---------------------------------------------------------------------------
# New policies
# ---------------------------------------------------------------------------
class LRUPolicy(CachePolicy):
    """Pure least-recently-used: the raw sequence index of the last match.

    Equivalent ordering to ``clampi-temporal`` (which normalises by the
    sequence position) but with no clamping — the canonical baseline every
    cache paper compares against.
    """

    name = "lru"

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        return float(entry.last)


class SegmentedLRUPolicy(CachePolicy):
    """Segmented LRU: probationary entries are evicted before protected.

    An entry enters the *probationary* segment on insert and is promoted
    to *protected* on its first subsequent hit.  Victims are drawn from
    probation first (scan-resistance: one-touch entries cannot displace
    the proven working set); within a segment the least-recently-used
    entry goes first.  Segment membership is tracked by entry identity
    and torn down in :meth:`on_free`, so re-inserted keys restart on
    probation.
    """

    name = "slru"

    #: protected entries score above every probationary entry
    _PROTECTED_OFFSET = 1 << 40

    def bind(self, capacity: int, seed: int) -> None:
        super().bind(capacity, seed)
        self._protected: set[int] = set()

    def on_hit(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        self._protected.add(id(entry))

    def on_free(self, entry: "CacheEntry", reason: str) -> None:
        self._protected.discard(id(entry))

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        base = float(entry.last)
        if id(entry) in self._protected:
            return base + self._PROTECTED_OFFSET
        return base


class GDSFPolicy(CachePolicy):
    """Cost-aware Greedy-Dual-Size-Frequency.

    Classic GDSF (Cherkasova '98) adapted to RMA caching: each entry's
    priority is ``L + freq * miss_cost(entry) / size`` — the virtual-time
    refetch penalty *per byte of cache space occupied*, scaled by observed
    access frequency, plus the aging clock ``L``.  Evicting the lowest
    priority sheds the bytes that are cheapest to lose; ``L`` rises to the
    priority of each victim so long-idle entries age out even when their
    refetch cost is high.
    """

    name = "gdsf"

    def bind(self, capacity: int, seed: int) -> None:
        super().bind(capacity, seed)
        self._clock = 0.0                      #: aging clock L
        self._freq: dict[tuple[int, int], int] = {}
        self._prio: dict[int, float] = {}      #: id(entry) -> priority

    def _reprioritise(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        freq = self._freq.get(entry.key, 1)
        per_byte = ctx.refetch_cost(entry) / max(entry.size, 1)
        self._prio[id(entry)] = self._clock + freq * per_byte

    def on_hit(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        self._freq[entry.key] = self._freq.get(entry.key, 1) + 1
        self._reprioritise(entry, ctx)

    def on_miss(self, key: tuple[int, int], nbytes: int, ctx: PolicyContext) -> None:
        self._freq[key] = self._freq.get(key, 0) + 1

    def on_insert(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        self._reprioritise(entry, ctx)

    def on_free(self, entry: "CacheEntry", reason: str) -> None:
        prio = self._prio.pop(id(entry), None)
        if reason == "evicted" and prio is not None:
            self._clock = max(self._clock, prio)

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        prio = self._prio.get(id(entry))
        if prio is None:  # scored before on_insert (e.g. standalone engine)
            freq = self._freq.get(entry.key, 1)
            prio = self._clock + freq * ctx.refetch_cost(entry) / max(entry.size, 1)
        return prio


class _CountMinSketch:
    """Seeded conservative count-min sketch with periodic halving.

    Hashing is plain multiplicative mixing of the integer key — no
    dependence on :func:`hash` or process state, so estimates replay
    bit-identically for a given seed.
    """

    ROWS = 4

    def __init__(self, width: int, seed: int):
        if width < 16:
            raise ValueError("sketch width must be >= 16")
        self.width = 1 << (width - 1).bit_length()  # power of two
        self._mask = self.width - 1
        # distinct odd multipliers per row, perturbed by the seed
        self._salts = [
            (0x9E3779B97F4A7C15 ^ (seed * 0xBF58476D1CE4E5B9 + r * 0x94D049BB133111EB))
            | 1
            for r in range(self.ROWS)
        ]
        self.rows = [[0] * self.width for _ in range(self.ROWS)]
        self.additions = 0
        #: halve all counters after this many additions (keeps estimates fresh)
        self.sample_period = 16 * self.width

    def _ix(self, row: int, key: int) -> int:
        x = (key * self._salts[row]) & 0xFFFFFFFFFFFFFFFF
        return (x >> 32) & self._mask

    def add(self, key: int) -> None:
        for r in range(self.ROWS):
            self.rows[r][self._ix(r, key)] += 1
        self.additions += 1
        if self.additions >= self.sample_period:
            self._age()

    def estimate(self, key: int) -> int:
        return min(self.rows[r][self._ix(r, key)] for r in range(self.ROWS))

    def _age(self) -> None:
        for row in self.rows:
            for i, v in enumerate(row):
                row[i] = v >> 1
        self.additions = 0


class TinyLFUPolicy(CachePolicy):
    """Frequency-sketch admission filter (TinyLFU-style), seeded.

    A count-min sketch estimates each key's access frequency over a
    sliding sample (periodic counter halving).  Admission rejects
    first-touch keys: a miss is only cached once the sketch has seen the
    key before, so one-hit wonders never displace proven entries — the
    dominant win on heavily skewed reuse.  Eviction is frequency-first
    with an LRU tie-break.
    """

    name = "tinylfu"

    def __init__(self, seed: int = 0, width: int = 1024):
        super().__init__(seed)
        self._width = width
        self._sketch = _CountMinSketch(width, seed)

    def bind(self, capacity: int, seed: int) -> None:
        super().bind(capacity, seed)
        # size the sketch to the index so estimates track the working set
        self._sketch = _CountMinSketch(max(self._width, capacity), seed)

    @staticmethod
    def _mix(key: tuple[int, int]) -> int:
        trg, dsp = key
        return (trg * 0x85EBCA6B + dsp * 0xC2B2AE35 + 0x27D4EB2F) & 0xFFFFFFFFFFFFFFFF

    def on_hit(self, entry: "CacheEntry", ctx: PolicyContext) -> None:
        self._sketch.add(self._mix(entry.key))

    def on_miss(self, key: tuple[int, int], nbytes: int, ctx: PolicyContext) -> None:
        self._sketch.add(self._mix(key))

    def admit(self, entry: "CacheEntry", ctx: PolicyContext) -> bool:
        # on_miss already counted this access: estimate 1 == first touch.
        return self._sketch.estimate(self._mix(entry.key)) >= 2

    def victim_score(self, entry: "CacheEntry", ctx: PolicyContext) -> float:
        freq = self._sketch.estimate(self._mix(entry.key))
        return freq + temporal_score(entry.last, max(ctx.seq_index, 1))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, Callable[..., CachePolicy]] = {}


def register(
    name: str,
    factory: Type[CachePolicy] | Callable[..., CachePolicy],
    *,
    replace: bool = False,
) -> None:
    """Register a policy factory under ``name``.

    ``factory`` is called as ``factory(seed=<int>)`` and must return a
    :class:`CachePolicy`.  Names are case-sensitive, lower-case by
    convention; re-registration requires ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"policy name must be a non-empty string, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"policy {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = factory


def available_policies() -> list[str]:
    """Registered policy names, sorted (the bench matrix iterates this)."""
    return sorted(_REGISTRY)


def canonical_policy_name(name: str) -> str:
    """Validate a registry name and return it.

    Unknown names raise ``ValueError`` listing what is registered.
    """
    if not isinstance(name, str):
        raise TypeError(f"policy must be a registry name (str), got {name!r}")
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown policy {name!r}; registered: {available_policies()}"
        )
    return name


def make_policy(name: str, seed: int = 0) -> CachePolicy:
    """Instantiate the policy registered under ``name``."""
    pol = _REGISTRY[canonical_policy_name(name)](seed=seed)
    if pol.name != name:
        # factories may be lambdas over a configurable class: stamp the
        # registered name so stats/events report what was selected
        pol.name = name
    return pol


for _cls in (
    ClampiFullPolicy,
    ClampiTemporalPolicy,
    ClampiPositionalPolicy,
    LRUPolicy,
    SegmentedLRUPolicy,
    GDSFPolicy,
    TinyLFUPolicy,
):
    register(_cls.name, _cls)
