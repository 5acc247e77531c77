"""Cooperative deterministic scheduler for simulated multi-rank programs.

Design
------
* A :class:`SimWorld` owns ``nprocs`` :class:`SimProcess` handles and one
  thread per rank.  One shared lock serialises execution: the thread whose
  rank equals ``world._current`` runs, everyone else waits.
* Waiting is *targeted*: every rank thread parks on its own condition
  variable (all sharing the one lock), and the dispatcher wakes exactly
  the chosen rank — O(1) wakeups per switch, where a single shared
  condition would wake all P threads just for P-1 of them to re-check a
  predicate and sleep again.  A rank is woken for one reason only — it
  was dispatched (or the world aborted) — and decides *after* waking what
  that means: a committing sync merely flips its participants to READY,
  so a P-rank sync costs P wakeups, one per dispatch.
* Threads voluntarily release control only inside :meth:`SimProcess.sync`
  (the generic payload-carrying barrier) or when they finish.  Everything
  else — including remote-memory reads, which need no target-side CPU — runs
  straight through while charging the local virtual clock.
* The next thread to run is always the READY process with the smallest
  ``(clock, rank)``, which makes runs deterministic and gives collectives
  max-time semantics identical to a real barrier.
* A world runs on one CPU.  Only one rank thread is ever runnable, so
  :meth:`SimWorld.run` confines the caller to the CPU it is on (its rank
  threads inherit the mask) and restores the caller's mask afterwards: a
  handoff is then a same-CPU wake-up instead of a cross-CPU one.  Nothing
  changes where affinity is unsupported or already a single CPU.

Failure semantics: an exception in any rank aborts the world; the original
traceback is re-raised from :meth:`SimWorld.run` wrapped in
:class:`RankFailedError`.  A sync point that can never complete (some ranks
finished, others waiting) raises :class:`DeadlockError`.

Crash-stop semantics (the ``crashes`` map): a rank whose virtual clock
reaches its crash time dies *permanently* — its thread unwinds, its result
slot stays ``None``, and the world keeps running on the survivors.  Any
sync point the victim would have joined is *revoked*: every live rank
observes the failure exactly once as :class:`RankRevokedError` raised out
of its next (or current) :meth:`SimProcess.sync`, after which survivor
barriers require only the live ranks — the ULFM revoke/agree model (see
:mod:`repro.recovery` for the user-facing helpers).
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs import RANK_CRASHED, SCHED_SWITCH, CallbackSink, Event, get_bus, virtual_time


def _current_cpu() -> int | None:
    """The CPU the calling thread is running on (Linux), else ``None``."""
    try:
        with open("/proc/thread-self/stat", "rb") as f:
            stat = f.read()
        # comm (field 2) may hold spaces or ')': count fields after the
        # last ')', where field 3 is index 0 and field 39 (processor) is 36
        return int(stat.rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _confine_to_one_cpu() -> set[int] | None:
    """Narrow the calling thread to one CPU of its mask.

    Picks the CPU the thread is on if the mask allows it, else the lowest
    allowed one.  Returns the mask to restore, or ``None`` when nothing was
    changed (no affinity support, a one-CPU mask, or an ``OSError``).
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        mask = os.sched_getaffinity(0)
        if len(mask) < 2:
            return None
        cpu = _current_cpu()
        os.sched_setaffinity(0, {cpu if cpu in mask else min(mask)})
    except OSError:
        return None
    return mask


class DeadlockError(RuntimeError):
    """Raised when blocked ranks can never be released, or hang outright."""


class RankFailedError(RuntimeError):
    """Raised by :meth:`SimWorld.run` when a rank program raised."""

    def __init__(self, rank: int, original: BaseException, detail: str = ""):
        msg = f"rank {rank} failed: {original!r}"
        if detail:
            msg += "\n" + detail
        super().__init__(msg)
        self.rank = rank
        self.original = original


class RankRevokedError(RuntimeError):
    """A sync point was revoked because a participant crashed permanently.

    Raised *inside* surviving rank programs (out of :meth:`SimProcess.sync`)
    exactly once per crash observation — the simulated analogue of ULFM's
    ``MPI_ERR_PROC_FAILED``/``MPI_ERR_REVOKED``.  Survivors are expected to
    agree on the failed set and continue over the remaining ranks via the
    :mod:`repro.recovery` helpers rather than handling this ad hoc (lint
    rule ANL008 enforces that).
    """

    def __init__(self, crashed: Iterable[int]):
        self.crashed = frozenset(crashed)
        ranks = ", ".join(str(r) for r in sorted(self.crashed))
        super().__init__(
            f"sync point revoked: rank(s) {ranks} crashed permanently; "
            "continue over the survivors (repro.recovery)"
        )


class _Abort(BaseException):
    """Internal: unwinds sibling rank threads after another rank failed.

    Derives from BaseException so user-level ``except Exception`` blocks in
    rank programs cannot swallow the abort.
    """


class _Crashed(BaseException):
    """Internal: unwinds the thread of a rank that hit its crash time.

    BaseException for the same reason as :class:`_Abort`; additionally the
    per-process ``_crashing`` flag keeps ``finally:`` cleanup on the dying
    rank (epoch closes, flushes) from re-charging time or re-blocking while
    the stack unwinds.
    """


class _State(Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


class SimProcess:
    """Per-rank handle: virtual clock plus synchronisation primitives.

    Rank programs receive their :class:`SimProcess` as first argument and
    use it (usually through the :mod:`repro.mpi` layer) to charge time and
    synchronise.
    """

    def __init__(self, world: "SimWorld", rank: int):
        self._world = world
        self.rank = rank
        self.clock = 0.0
        self._state = _State.READY
        self._sync_gen = -1
        self._crash_at: float | None = None
        self._crashing = False
        self._diagnostics: list[Callable[[], str]] = []

    @property
    def nprocs(self) -> int:
        return self._world.nprocs

    @property
    def can_fail(self) -> bool:
        """True when the world has a crash plan (any rank may die)."""
        return self._world.can_fail

    @property
    def crashing(self) -> bool:
        """True while this rank's stack unwinds after it hit its crash time."""
        return self._crashing

    @property
    def failed_ranks(self) -> frozenset[int]:
        """Ranks this process observes as crashed: crash time <= own clock.

        Observation is *causal in virtual time*, not in execution order:
        between sync points the scheduler runs each rank's segment as one
        atomic slice, so the set of *actually unwound* threads at any
        wall-clock instant depends on dispatch order.  Crash times are
        resolved up front (deterministically) though, so "has rank r
        failed?" is answered the way a real failure detector would: r's
        planned death lies in this rank's past.  A failure detector built
        on this is deterministic and dispatch-order independent.
        """
        world = self._world
        if not world._crashes:
            return frozenset()
        clock = self.clock
        return frozenset(r for r, t in world._crashes.items() if t <= clock)

    def add_diagnostic(self, fn: Callable[[], str]) -> None:
        """Register a callable whose string is appended to failure reports.

        Layers above the scheduler (e.g. the MPI window) register their
        open-state summaries here so :class:`DeadlockError` /
        :class:`RankFailedError` messages can show what each rank was in
        the middle of.
        """
        self._diagnostics.append(fn)

    def advance(self, dt: float) -> None:
        """Charge ``dt`` virtual seconds to this rank's clock.

        Non-blocking: control is *not* released, so pure local/remote-read
        sequences run without thread switches.
        """
        if dt < 0:
            raise ValueError(f"negative time advance: {dt}")
        if self._crashing:
            return  # dead rank unwinding through cleanup: time stands still
        self.clock += dt
        if self._crash_at is not None and self.clock >= self._crash_at:
            self._crashing = True
            raise _Crashed()

    def sync(self, payload: Any = None, extra_time: float = 0.0) -> list[Any]:
        """Payload-carrying barrier over all live ranks.

        Blocks until every non-finished rank has called :meth:`sync`; all
        participants leave with ``clock = max(participant clocks) +
        extra_time`` and receive the list of payloads indexed by rank
        (``None`` for ranks that already finished).

        This single primitive is the substrate for every MPI collective
        (barrier, bcast, allgather, allreduce, ...) in :mod:`repro.mpi`.

        Under a crash plan, a sync may instead raise
        :class:`RankRevokedError` (once per crash observation); afterwards
        the barrier spans only the surviving ranks.
        """
        if self._crashing:
            raise _Crashed()
        if self._crash_at is not None and self.clock >= self._crash_at:
            # A sync-released clock can overshoot the death time without an
            # intervening advance(); the victim dies at the sync entry.
            self._crashing = True
            raise _Crashed()
        return self._world._sync(self, payload, extra_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimProcess(rank={self.rank}, clock={self.clock:.3e}, state={self._state})"


class SimWorld:
    """Runs one program per rank under deterministic cooperative scheduling.

    ``schedule="deterministic"`` (default) always runs the READY process
    with the smallest ``(clock, rank)``.  ``schedule="random"`` picks a
    seeded-random READY process instead — virtual times are unaffected
    (clocks are per-rank and collectives take the max), but shared-state
    interleavings differ, which the test suite uses to verify that programs
    do not depend on scheduling order.  ``schedule="trace"`` replays a
    previously recorded dispatch order (``trace=``): at each switch the
    next recorded rank is run if it is READY, falling back to the
    deterministic rule otherwise — the interleaving-stable replay mode the
    transparency fuzzer's shrinker uses (a shrunk program has fewer sync
    points, so re-running the *seed* of a random schedule would explore a
    different interleaving; replaying the *trace* pins the surviving
    ranks to their original relative order).

    ``record_trace=True`` appends every dispatched rank to
    :attr:`schedule_trace`, which can be fed back as ``trace=``.
    """

    def __init__(
        self,
        nprocs: int,
        schedule: str = "deterministic",
        seed: int = 0,
        join_timeout: float = 30.0,
        crashes: Mapping[int, float] | None = None,
        record_trace: bool = False,
        trace: Sequence[int] | None = None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if schedule not in ("deterministic", "random", "trace"):
            raise ValueError(f"unknown schedule: {schedule}")
        if schedule == "trace" and trace is None:
            raise ValueError('schedule="trace" requires a recorded trace')
        if join_timeout <= 0:
            raise ValueError("join_timeout must be > 0")
        crashes = dict(crashes) if crashes else {}
        for rank, t in crashes.items():
            if not 0 <= rank < nprocs:
                raise ValueError(f"crash rank {rank} out of range [0, {nprocs})")
            if t < 0:
                raise ValueError(f"crash time for rank {rank} must be >= 0, got {t}")
        #: wall-clock budget for rank threads to terminate after the run
        #: settles; a rank still alive past it is reported, never ignored
        self.join_timeout = join_timeout
        self._schedule = schedule
        self._rng = random.Random(seed)
        #: dispatch order of this run (appended only when record_trace)
        self.schedule_trace: list[int] = []
        self._record_trace = record_trace
        self._trace = list(trace) if trace is not None else None
        self._trace_pos = 0
        self.nprocs = nprocs
        self._procs = [SimProcess(self, r) for r in range(nprocs)]
        #: resolved crash plan ({rank: virtual death time}); empty = no crashes
        self._crashes = crashes
        for rank, t in crashes.items():
            self._procs[rank]._crash_at = t
        #: ranks that have died so far (crash-stop; populated during run)
        self.crashed: set[int] = set()
        # Live ranks that have not yet observed the latest revocation; each
        # gets exactly one RankRevokedError out of its next/current sync.
        self._revoke_unobserved: set[int] = set()
        #: last obs event seen per rank (failure diagnostics; only
        #: populated while an obs capture is active)
        self._last_events: dict[int, Event] = {}
        # One lock, many conditions: rank threads sleep on their own
        # condition so a dispatch wakes exactly one thread; the driver
        # (run()) sleeps on self._cond.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._rank_conds = [
            threading.Condition(self._lock) for _ in range(nprocs)
        ]
        self._current: int | None = None
        self._failure: tuple[int, BaseException] | None = None
        self._deadlock: str | None = None
        # sync-point bookkeeping (generation counter allows reuse)
        self._sync_gen = 0
        self._sync_payloads: dict[int, Any] = {}
        self._sync_results: list[Any] | None = None
        self._pending_extra = 0.0
        self._started = False
        self._obs = get_bus()
        self._last_dispatched: int | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        program: Callable[..., Any],
        *args: Any,
        programs: Sequence[Callable[..., Any]] | None = None,
        **kwargs: Any,
    ) -> list[Any]:
        """Execute ``program(proc, *args, **kwargs)`` on every rank.

        ``programs`` may instead provide one callable per rank (MPMD).
        Returns the per-rank return values.  A :class:`SimWorld` is
        single-shot: create a fresh world for every run.
        """
        if self._started:
            raise RuntimeError("SimWorld instances are single-shot; create a new one")
        self._started = True
        if programs is not None:
            if len(programs) != self.nprocs:
                raise ValueError("programs must have one entry per rank")
            targets = list(programs)
        else:
            targets = [program] * self.nprocs

        results: list[Any] = [None] * self.nprocs
        threads = []
        for proc, target in zip(self._procs, targets):
            t = threading.Thread(
                target=self._thread_main,
                args=(proc, target, args, kwargs, results),
                name=f"sim-rank-{proc.rank}",
                daemon=True,
            )
            threads.append(t)

        # Record the last event each rank emitted so failure reports can
        # say what every rank was doing.  Only piggybacks on an already
        # active capture: attaching a recorder to a disabled bus would
        # enable it and change the hot-path behaviour the tests pin down.
        recorder: CallbackSink | None = None
        if self._obs.enabled:
            # passive: must not widen the per-kind gate (or re-enable a
            # disabled bus) — it only sees what the active capture built
            recorder = CallbackSink(self._note_event, passive=True)
            self._obs.attach(recorder)
        # threads inherit the mask of the thread that starts them
        restore = _confine_to_one_cpu()
        try:
            with self._cond:
                for t in threads:
                    t.start()
                self._dispatch_next_locked()
                self._cond.wait_for(
                    lambda: all(p._state is _State.DONE for p in self._procs)
                    or self._failure is not None
                    or self._deadlock is not None
                )
            # One shared wall-clock deadline for all joins: a single hung rank
            # must not multiply the wait by nprocs, and a rank that never
            # terminates must surface as an error, not be silently ignored.
            deadline = time.monotonic() + self.join_timeout
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            hung = [
                self._procs[i] for i, t in enumerate(threads) if t.is_alive()
            ]
            if self._failure is not None:
                # A recorded failure wins: the hung siblings are collateral.
                rank, exc = self._failure
                raise RankFailedError(
                    rank, exc, detail=self._rank_diagnostics([rank])
                ) from exc
            if hung:
                detail = ", ".join(
                    f"rank {p.rank} ({p._state.value}, clock={p.clock:.3e})"
                    for p in hung
                )
                raise DeadlockError(
                    f"{len(hung)} rank thread(s) did not terminate within "
                    f"{self.join_timeout}s after the run settled: {detail}"
                    + (
                        f"; scheduler reported: {self._deadlock}"
                        if self._deadlock
                        else ""
                    )
                    + ("\n" + self._rank_diagnostics([p.rank for p in hung]))
                )
            if self._deadlock is not None:
                raise DeadlockError(self._deadlock)
        finally:
            if restore is not None:
                with contextlib.suppress(OSError):
                    os.sched_setaffinity(0, restore)
            if recorder is not None:
                self._obs.detach(recorder)
        virtual_time.note_run(self.max_clock)
        return results

    @property
    def can_fail(self) -> bool:
        """True when this world was built with a non-empty crash plan."""
        return bool(self._crashes)

    def _note_event(self, event: Event) -> None:
        # Ranks run one at a time, so plain dict writes are race-free.
        if event.kind != SCHED_SWITCH:
            self._last_events[event.rank] = event

    def _emit_switch(self, nxt: SimProcess, ready: int) -> None:
        """One ``sched.switch`` event per actual rank handover."""
        if not self._obs.wants(SCHED_SWITCH):
            return
        self._obs.emit(
            Event(
                SCHED_SWITCH,
                nxt.rank,
                nxt.clock,
                attrs={"from": self._last_dispatched, "ready": ready},
            )
        )

    def _emit_crash(self, proc: SimProcess) -> None:
        """One ``rank.crashed`` event per detected crash-stop failure."""
        if not self._obs.wants(RANK_CRASHED):
            return
        self._obs.emit(
            Event(
                RANK_CRASHED,
                proc.rank,
                proc.clock,
                attrs={"crash_at": proc._crash_at},
            )
        )

    def _rank_diagnostics(self, ranks: Iterable[int]) -> str:
        """Per-rank failure context: last obs event + registered state."""
        lines = []
        for r in sorted(set(ranks)):
            proc = self._procs[r]
            ev = self._last_events.get(r)
            if ev is not None:
                desc = f"last event {ev.kind} @t={ev.time:.3e}"
                if ev.attrs:
                    desc += f" {dict(ev.attrs)}"
            else:
                desc = "last event unknown (no obs capture active)"
            parts = [desc]
            for fn in proc._diagnostics:
                try:
                    d = fn()
                except Exception as e:  # a broken diagnostic must not mask
                    d = f"<diagnostic failed: {e!r}>"  # the real failure
                if d:
                    parts.append(d)
            lines.append(f"  rank {r}: " + "; ".join(parts))
        return "\n".join(lines)

    @property
    def clocks(self) -> list[float]:
        """Virtual clocks of all ranks (valid after :meth:`run`)."""
        return [p.clock for p in self._procs]

    @property
    def max_clock(self) -> float:
        return max(self.clocks)

    # ------------------------------------------------------------------
    # thread body
    # ------------------------------------------------------------------
    def _thread_main(
        self,
        proc: SimProcess,
        target: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        results: list[Any],
    ) -> None:
        try:
            with self._cond:
                self._park_locked(proc)
        except _Abort:
            return
        try:
            results[proc.rank] = target(proc, *args, **kwargs)
        except _Abort:
            return
        except _Crashed:
            # Crash-stop: the rank is gone, the world lives on.  Its result
            # slot stays None and any in-flight sync point is revoked.
            with self._cond:
                self._record_crash_locked(proc)
            return
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            with self._cond:
                if self._failure is None:
                    self._failure = (proc.rank, exc)
                proc._state = _State.DONE
                self._notify_everyone_locked()
            return
        with self._cond:
            proc._state = _State.DONE
            self._dispatch_next_locked()

    # ------------------------------------------------------------------
    # scheduling internals (all called with self._cond held)
    # ------------------------------------------------------------------
    def _notify_everyone_locked(self) -> None:
        """Failure/deadlock/termination: wake every rank and the driver."""
        for c in self._rank_conds:
            c.notify()
        self._cond.notify_all()

    def _park_locked(self, proc: SimProcess) -> None:
        """Sleep until the dispatcher picks ``proc`` or the world aborts.

        The one place a rank thread blocks.  Only
        :meth:`_dispatch_next_locked` (by making ``proc`` current) and
        :meth:`_notify_everyone_locked` (failure / deadlock) ever wake it,
        so whoever changes a rank's state only has to dispatch.  On abort
        the rank becomes DONE and passes the wake-up on; otherwise it
        leaves RUNNING.
        """
        self._rank_conds[proc.rank].wait_for(
            lambda: self._current == proc.rank
            or self._failure is not None
            or self._deadlock is not None
        )
        if self._failure is not None or self._deadlock is not None:
            proc._state = _State.DONE
            self._notify_everyone_locked()
            raise _Abort()
        proc._state = _State.RUNNING

    def _record_crash_locked(self, proc: SimProcess) -> None:
        """Mark ``proc`` dead and revoke any sync point in flight.

        The failure detector of the simulated world: the victim becomes
        DONE (its result stays ``None``), every rank blocked in the
        still-forming sync becomes READY again and observes
        :class:`RankRevokedError` when it is next dispatched, and all
        other live ranks observe it at their next sync.  Survivor syncs
        thereafter require only ``nprocs - len(crashed)`` participants.
        """
        proc._state = _State.DONE
        self.crashed.add(proc.rank)
        self._emit_crash(proc)
        # Discard the partially formed sync point: its payload set can
        # never be completed, and every observer restarts it anyway.
        self._sync_payloads = {}
        self._pending_extra = 0.0
        self._revoke_unobserved = {
            p.rank
            for p in self._procs
            if p._state is not _State.DONE
        }
        for p in self._procs:
            if p._state is _State.BLOCKED:
                p._state = _State.READY
        self._dispatch_next_locked()

    def _dispatch_next_locked(self) -> None:
        ready = [p for p in self._procs if p._state is _State.READY]
        if not ready:
            blocked = [p for p in self._procs if p._state is _State.BLOCKED]
            running = [p for p in self._procs if p._state is _State.RUNNING]
            if blocked and not running:
                self._deadlock = (
                    "ranks "
                    + ", ".join(str(p.rank) for p in blocked)
                    + " are blocked in a sync point that can never complete "
                    "(other ranks already finished)\n"
                    + self._rank_diagnostics(p.rank for p in blocked)
                )
                self._notify_everyone_locked()
            self._current = None
            # Nothing left to run: the driver's all-DONE check may now hold.
            self._cond.notify_all()
            return
        if self._schedule == "random":
            nxt = ready[self._rng.randrange(len(ready))]
        elif self._schedule == "trace":
            nxt = self._trace_pick(ready)
        else:
            nxt = min(ready, key=lambda p: (p.clock, p.rank))
        if self._record_trace:
            self.schedule_trace.append(nxt.rank)
        self._current = nxt.rank
        if nxt.rank != self._last_dispatched:
            self._emit_switch(nxt, len(ready))
        self._last_dispatched = nxt.rank
        self._rank_conds[nxt.rank].notify()

    def _trace_pick(self, ready: list[SimProcess]) -> SimProcess:
        """Next recorded rank if READY; deterministic rule otherwise.

        The cursor only advances past entries that were actually honoured
        or that can never be honoured again (DONE ranks), so a shrunk
        program — whose surviving ranks reach fewer sync points — still
        consumes the trace in order instead of desynchronising after the
        first divergence.
        """
        ready_ranks = {p.rank: p for p in ready}
        while self._trace is not None and self._trace_pos < len(self._trace):
            want = self._trace[self._trace_pos]
            picked = ready_ranks.get(want)
            if picked is not None:
                self._trace_pos += 1
                return picked
            if 0 <= want < self.nprocs and self._procs[want]._state is _State.DONE:
                self._trace_pos += 1  # never runnable again: skip the entry
                continue
            break  # recorded rank is blocked right now: fall back this switch
        return min(ready, key=lambda p: (p.clock, p.rank))

    def _sync(self, proc: SimProcess, payload: Any, extra_time: float) -> list[Any]:
        with self._cond:
            if proc._state is not _State.RUNNING:
                raise RuntimeError("sync() called by a non-running process")
            if proc.rank in self._revoke_unobserved:
                # An unobserved crash must surface before this rank joins
                # any barrier; the proc stays RUNNING (it is still current)
                # so its recovery code continues without a reschedule.
                self._revoke_unobserved.discard(proc.rank)
                raise RankRevokedError(self.crashed)
            gen = self._sync_gen
            self._sync_payloads[proc.rank] = payload
            self._pending_extra = max(self._pending_extra, extra_time)
            proc._state = _State.BLOCKED

            # A sync point requires *every live* rank of the world, exactly
            # like an MPI collective: a rank that already returned from its
            # program can never participate, which the dispatcher reports
            # as a deadlock — while crashed ranks are excused, ULFM-style.
            blocked = [p for p in self._procs if p._state is _State.BLOCKED]
            if len(blocked) == self.nprocs - len(self.crashed):
                # Last arriver: commit.  Every participant (including self)
                # becomes READY at the common clock; the dispatcher wakes
                # them one at a time, nobody is woken from here.
                tmax = max(p.clock for p in blocked) + self._pending_extra
                self._pending_extra = 0.0
                self._sync_results = [
                    self._sync_payloads.get(r) for r in range(self.nprocs)
                ]
                self._sync_payloads = {}
                self._sync_gen += 1
                for p in blocked:
                    p.clock = tmax
                    p._state = _State.READY
            self._dispatch_next_locked()
            self._park_locked(proc)
            if self._sync_gen == gen:
                # Dispatched without a commit: a participant died while
                # this sync was still forming and the detector flipped us
                # back to READY — surface the revocation to the program.
                # If the generation advanced instead, the barrier committed
                # before any crash: it must complete for *every*
                # participant (ranks that resumed earlier already treated
                # it as successful), so we return its payloads — which no
                # later sync can have replaced, as that would need us
                # BLOCKED again — and the entry check above surfaces the
                # revocation at our next sync.
                self._revoke_unobserved.discard(proc.rank)
                raise RankRevokedError(self.crashed)
            assert self._sync_results is not None
            return list(self._sync_results)
