"""``repro.analysis`` — RMA correctness analysis for the reproduction.

Two complementary checkers guard the transparency claim of the paper (a
cached get must never observe stale or racy data):

* a **dynamic sanitizer** (:class:`Sanitizer`, :func:`sanitize`) that
  subscribes to the :mod:`repro.obs` event bus and detects, per window and
  per exposure epoch: conflicting put/get/accumulate byte-range overlaps
  (MPI-3 11.7), reuse of a get's origin buffer before completion,
  passive-target epochs leaked open, and CLaMPI-specific stale-cache-hit
  hazards (a hit served after a foreign put invalidated the range);
* a **static repo-invariant linter** (:mod:`repro.analysis.lint`,
  ``python -m repro.analysis lint src/``) enforcing the project rules the
  deterministic simulator depends on — no wall-clock or unseeded
  randomness in hot paths, no cross-cutting concerns inlined into the RMA
  op methods, every emitted obs event kind registered, no mutable default
  arguments;
* a **flow-sensitive typestate verifier** (:mod:`repro.analysis.typestate`,
  ``python -m repro.analysis verify src/ examples/``) that abstractly
  interprets each function's CFG and proves the MPI-3 RMA epoch and
  completion discipline *statically* — epochs closed on every path
  including exception edges (ANL009), get results and put origins never
  touched while pending (ANL010/ANL011), ops only issued under a provably
  open epoch (ANL012).

All static findings share one :class:`Diagnostic` record (severity,
primary + related spans, fix-it hint), printed as text and suppressed only
by inline ``# analysis: allow(...)`` comments — see
:mod:`repro.analysis.diagnostics`.

Typical dynamic use::

    from repro import analysis

    with analysis.sanitize(strict=True):          # raises at the bad call
        app.run(nprocs=4, spec=spec)

    with analysis.sanitize() as san:              # report mode
        app.run(nprocs=4, spec=spec)
    for v in san.violations:
        print(v.describe())

In strict mode a violation raises :class:`repro.mpi.RMARaceError` or
:class:`repro.mpi.EpochMisuseError` *at the violating call site* (the obs
bus delivers events synchronously), with both conflicting op records in
the message.  Every violation is also published as a typed
``analysis.violation`` event, so JSONL captures carry the findings next to
the operations that caused them; ``python -m repro.analysis report`` replays
any capture offline.  See ``docs/analysis.md`` for the violation taxonomy
and the lint rule list.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

_T = TypeVar("_T")

from repro.analysis.diagnostics import Diagnostic, Related, Rule
from repro.analysis.epochs import EpochTracker
from repro.analysis.lint import run_lint
from repro.analysis.typestate import run_verify
from repro.analysis.races import RaceDetector
from repro.analysis.recorder import (
    OpRecord,
    Violation,
    ViolationKind,
    batch_op_record,
    op_record,
)
from repro.obs import get_bus
from repro.obs.bus import EventBus
from repro.obs.events import (
    ANALYSIS_VIOLATION,
    CACHE_ACCESS,
    CACHE_ACCESS_BATCH,
    RMA_ACCUMULATE,
    RMA_FENCE,
    RMA_FLUSH,
    RMA_GET,
    RMA_GET_BATCH,
    RMA_LOCK,
    RMA_PUT,
    RMA_UNLOCK,
    Event,
)
from repro.obs.sinks import Sink

__all__ = [
    "Diagnostic",
    "OpRecord",
    "Related",
    "Rule",
    "Sanitizer",
    "Violation",
    "ViolationKind",
    "run_lint",
    "run_sanitized",
    "run_verify",
    "sanitize",
]

_OP_KINDS = frozenset({RMA_GET, RMA_PUT, RMA_ACCUMULATE})
_SYNC_KINDS = frozenset({RMA_LOCK, RMA_FLUSH, RMA_UNLOCK, RMA_FENCE})


class Sanitizer(Sink):
    """Dynamic RMA checker, attached to an event bus like any sink.

    ``strict=False`` (report mode) collects :class:`Violation` records;
    ``strict=True`` additionally raises the violation's typed error at the
    call site of the offending operation.  :meth:`finish` runs the
    end-of-scope audits (epoch leaks); :func:`sanitize` calls it
    automatically on clean exit.
    """

    def __init__(self, strict: bool = False, bus: EventBus | None = None):
        self.strict = strict
        self.violations: list[Violation] = []
        self._bus = bus  #: where analysis.violation events are published
        self._races = RaceDetector()
        self._epochs = EpochTracker()
        self._seq = 0
        self._finished = False

    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        kind = event.kind
        if kind == ANALYSIS_VIOLATION:
            return  # our own reports, re-delivered through the bus
        self._seq += 1
        found: list[Violation] = []
        if kind in _OP_KINDS:
            rec = op_record(event, self._seq)
            if rec is None:
                return
            found.extend(self._epochs.on_op(rec))
            found.extend(self._races.on_op(rec))
        elif kind in _SYNC_KINDS:
            target = event.attrs.get("target")
            targets = None if target is None else {int(target)}
            if kind == RMA_FENCE:
                targets = None
            if kind != RMA_LOCK:
                self._races.on_close(event.win, event.rank, targets)
            self._epochs.on_sync(event, targets)
        elif kind == CACHE_ACCESS:
            found.extend(self._races.on_cache_access(event, self._seq))
        elif kind == RMA_GET_BATCH:
            # Batched gets suppress per-op events; the batch entry carries
            # one footprint per element, analysed like N scalar gets.
            for op_attrs in event.attrs.get("ops", ()):
                rec = batch_op_record(event, op_attrs, self._seq)
                if rec is None:
                    continue
                found.extend(self._epochs.on_op(rec))
                found.extend(self._races.on_op(rec))
                self._seq += 1
        elif kind == CACHE_ACCESS_BATCH:
            for op_attrs in event.attrs.get("ops", ()):
                sub = Event(
                    CACHE_ACCESS,
                    event.rank,
                    event.time,
                    epoch=event.epoch,
                    win=event.win,
                    attrs=op_attrs,
                )
                found.extend(self._races.on_cache_access(sub, self._seq))
                self._seq += 1
        if found:
            self._record(found)

    def finish(self) -> list[Violation]:
        """End-of-scope audit; returns all violations seen.

        Idempotent: the leak audit runs once, further calls just return
        the accumulated list.
        """
        if not self._finished:
            self._finished = True
            leaks = self._epochs.finish()
            if leaks:
                self._record(leaks)
        return self.violations

    # ------------------------------------------------------------------
    def _record(self, found: list[Violation]) -> None:
        self.violations.extend(found)
        if self._bus is not None and self._bus.enabled:
            for v in found:
                self._bus.emit(
                    Event(
                        ANALYSIS_VIOLATION,
                        v.rank,
                        v.time,
                        win=v.win,
                        attrs=v.to_dict(),
                    )
                )
        if self.strict:
            raise found[0].error()

    def counts(self) -> dict[str, int]:
        """Violation tally per kind value (stable order)."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.kind.value] = out.get(v.kind.value, 0) + 1
        return out

    def render_report(self) -> str:
        """Human-readable multi-line summary of all violations."""
        if not self.violations:
            return "no violations detected\n"
        lines = [f"{len(self.violations)} violation(s) detected"]
        for kind, n in sorted(self.counts().items()):
            lines.append(f"  {kind}: {n}")
        lines.append("")
        lines.extend(v.describe() for v in self.violations)
        return "\n".join(lines) + "\n"


def run_sanitized(
    fn: "Callable[[], _T]", bus: EventBus | None = None
) -> "tuple[_T, list[Violation]]":
    """Run ``fn`` under a report-mode sanitizer; return its result + findings.

    The library face of the checker for harnesses that need the verdict as
    *data* rather than as a raised error (the transparency fuzzer's oracle
    matrix treats "sanitizer found something" as one more comparable
    observable).  Nothing raises: end-of-scope audits (epoch leaks) are
    folded into the returned list, and the bus is restored on exit.
    """
    with sanitize(strict=False, bus=bus) as san:
        result = fn()
    return result, san.violations


@contextmanager
def sanitize(
    strict: bool = False, bus: EventBus | None = None
) -> Iterator[Sanitizer]:
    """Attach a :class:`Sanitizer` to the (global) bus for the duration.

    On clean exit the end-of-scope audits run (and, in strict mode, may
    raise); if the body itself raised — e.g. a strict violation — the
    audits are skipped so the original error surfaces unmasked.
    """
    b = bus if bus is not None else get_bus()
    san = Sanitizer(strict=strict, bus=b)
    b.attach(san)
    try:
        yield san
        san.finish()
    finally:
        b.detach(san)
