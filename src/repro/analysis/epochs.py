"""Epoch discipline and completion-order checks.

The window layer already rejects structurally invalid sequences (access
outside an epoch, mismatched unlock, nested lock_all) with
:class:`~repro.mpi.errors.EpochError` at the call site.  This tracker
covers the hazards the window cannot see because they are *semantically*
wrong while structurally legal:

* **local-buffer hazards** — MPI forbids touching a get's origin buffer
  before the operation completes (flush/unlock/fence).  The simulator
  copies payloads at issue time, so such bugs are invisible in results
  here but corrupt data on real hardware; the tracker flags any RMA op
  whose origin-buffer bytes overlap an *unflushed* get's destination on
  the same rank.
* **epoch leaks** — passive-target epochs still open when the analysis
  scope ends (a ``lock``/``lock_all`` never paired with its unlock), the
  classic source of "works under MPICH, hangs under foMPI" reports.

Epoch state is the window's own table (:mod:`repro.mpi.epochs`), stepped
on the ``rma.lock``/``rma.unlock``/``rma.flush``/``rma.fence`` events.
``start`` emits no event, so a PSCW epoch stays invisible here: an event
the table refuses in the tracked mode comes from one and changes nothing.
Pending gets retire on the closure events (flush/unlock/fence/complete),
the same boundaries the race detector uses.
"""

from __future__ import annotations

from repro.analysis.recorder import OpRecord, Violation, ViolationKind
from repro.mpi.epochs import CLOSED, LOCK_ALL, MODES, step
from repro.obs.events import RMA_FENCE, RMA_FLUSH, RMA_LOCK, RMA_UNLOCK, Event


#: (event kind, towards every rank?) -> the epoch-table call it reports;
#: a flush event with ``pscw`` set reports ``complete``
_SYNC_CALLS = {
    (RMA_LOCK, False): "lock", (RMA_LOCK, True): "lock_all",
    (RMA_UNLOCK, False): "unlock", (RMA_UNLOCK, True): "unlock_all",
    (RMA_FLUSH, False): "flush", (RMA_FLUSH, True): "flush_all",
    (RMA_FENCE, True): "fence",
}


class EpochTracker:
    """Per-rank epoch mode and origin-buffer completion tracking."""

    def __init__(self) -> None:
        #: (win, rank) -> (mode, {lock target, None for lock_all: taken at})
        self._epochs: dict[tuple, tuple[str, dict]] = {}
        #: (win, rank) -> gets whose origin buffer is still in flight
        self._pending_gets: dict[tuple, list[OpRecord]] = {}

    # ------------------------------------------------------------------
    def on_sync(self, event: Event, targets: set[int] | None) -> None:
        """Step the epoch table on a synchronisation event; a closure
        event also retires the pending gets towards ``targets``."""
        key = (event.win, event.rank)
        mode, held = self._epochs.get(key, (CLOSED, {}))
        target = event.attrs.get("target")
        call = _SYNC_CALLS[event.kind, target is None]
        if event.attrs.get("pscw"):
            call = "complete"
        nxt = step(mode, call, target in held)
        if nxt in MODES:
            if event.kind == RMA_LOCK:
                held = {**held, target: event.time}
            elif event.kind == RMA_UNLOCK:
                held = {t: at for t, at in held.items() if t != target}
                if held:
                    nxt = mode  # LOCK is left with its last lock
            self._epochs[key] = (nxt, held)
        if event.kind == RMA_LOCK:
            return
        pending = self._pending_gets.get(key)
        if pending:
            self._pending_gets[key] = [
                g for g in pending if targets is not None and g.target not in targets
            ]

    # ------------------------------------------------------------------
    def on_op(self, rec: OpRecord) -> list[Violation]:
        """Origin-buffer overlap check against this rank's in-flight gets."""
        violations: list[Violation] = []
        if rec.origin_lo is not None and rec.origin_hi is not None:
            for g in self._pending_gets.get((rec.win, rec.origin), []):
                assert g.origin_lo is not None and g.origin_hi is not None
                if g.origin_lo < rec.origin_hi and g.origin_hi > rec.origin_lo:
                    action = (
                        "overwrites the destination of"
                        if rec.op == "get"
                        else "reads the origin buffer of"
                    )
                    violations.append(
                        Violation(
                            kind=ViolationKind.LOCAL_BUFFER_HAZARD,
                            message=(
                                f"{rec.op} by rank {rec.origin} {action} an "
                                f"incomplete get (no flush since seq {g.seq}); "
                                "origin buffers are undefined until the "
                                "operation completes"
                            ),
                            rank=rec.origin,
                            time=rec.time,
                            win=rec.win,
                            ops=(g, rec),
                        )
                    )
        if rec.op == "get":
            self._pending_gets.setdefault((rec.win, rec.origin), []).append(rec)
        return violations

    # ------------------------------------------------------------------
    def finish(self) -> list[Violation]:
        """End-of-scope audit: report epochs never closed."""
        violations: list[Violation] = []
        for (win, rank), (mode, held) in sorted(
            self._epochs.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
        ):
            if not held:
                continue
            leaks = (
                ["lock_all"] if mode == LOCK_ALL
                else [f"lock({t})" for t in sorted(held)]
            )
            violations.append(
                Violation(
                    kind=ViolationKind.EPOCH_LEAK,
                    message=(
                        f"rank {rank} still holds {', '.join(leaks)} on win "
                        f"{win} at the end of the analysis scope "
                        "(missing unlock/unlock_all)"
                    ),
                    rank=rank,
                    time=max(held.values()),
                    win=win,
                )
            )
        return violations
