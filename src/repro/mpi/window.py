"""MPI-3 RMA windows over simulated shared memory.

A :class:`Window` exposes one byte buffer per rank.  All the paper-relevant
semantics are implemented:

* collective creation (:meth:`Window.allocate` / :meth:`Window.create`) with
  an ``info`` dictionary (CLaMPI reads its operational mode from it);
* passive-target epochs — ``lock``/``unlock`` for one target,
  ``lock_all``/``unlock_all`` for all, ``flush``/``flush_all`` to complete
  outstanding operations; active-target ``fence``;
* non-blocking ``get``/``put``: functionally the payload moves immediately
  (single address space), but *virtual time* completes only at the next
  synchronisation call, reproducing RDMA overlap behaviour;
* an **epoch counter** ``eph`` counting concluded epochs since window
  creation (paper Sec. II-A) — every synchronisation that completes
  operations (flush, flush_all, unlock, unlock_all, fence) is an
  epoch-closure event and bumps it;
* epoch-closure hooks, the integration point used by CLaMPI to materialise
  PENDING cache entries "at the epoch closure time or after a
  synchronization call" (paper Sec. II).

Simplification (documented in DESIGN.md): because ranks share one address
space and the MPI standard already forbids conflicting put/get in the same
epoch, payloads are copied at issue time; only the clocks honour the
asynchronous completion model.

Every operation is *described* as an
:class:`repro.mpi.ops.OpDescriptor` and *issued* through the
window's bound data or sync handler (:mod:`repro.mpi.ops`), which
owns retry/backoff, fault injection, the simulated transport (byte
movement + cost pricing), telemetry emission and epoch closure.  The op
methods below only validate, build the descriptor and manage epoch state;
:meth:`Window.get_batch` validates N descriptors, then issues them with
one batched telemetry event.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.faults import DEFAULT_RETRY_POLICY
from repro.mpi.comm import Communicator
from repro.mpi.datatypes import Datatype, from_numpy
from repro.mpi.epochs import CLOSED, FENCE, LOCK, LOCK_ALL, MODES, PSCW, step
from repro.mpi.errors import (
    EpochError,
    WindowError,
    WindowRevokedError,
)
from repro.mpi.ops import (
    SYNC_OVERHEAD,
    OpDescriptor,
    build_data_pipeline,
    build_sync_pipeline,
    describe_accumulate,
    describe_get,
    describe_get_batch,
    describe_get_into,
    describe_lock,
    describe_put,
    describe_sync,
    emit_get_batch,
)
from repro.obs import WINDOW_REVOKED, Event, get_bus

LOCK_SHARED = "shared"
LOCK_EXCLUSIVE = "exclusive"

_window_ids = itertools.count()


class _WindowGroup:
    """State shared by all per-rank views of one window (one address space)."""

    def __init__(self, nprocs: int):
        self.win_id = next(_window_ids)
        self.buffers: list[np.ndarray] = [np.empty(0, np.uint8)] * nprocs
        self.disp_units: list[int] = [1] * nprocs
        self.infos: list[Mapping[str, Any]] = [{}] * nprocs
        self.freed = False
        #: set once any rank revokes the window after a failure; shared by
        #: all per-rank views, so everyone's next op fails fast
        self.revoked = False


class Request:
    """Completion handle of a request-based RMA operation (MPI_Rget/Rput).

    ``wait`` completes *this* operation only — unlike ``flush`` it is not an
    epoch-closure event, so CLaMPI hooks do not fire and ``eph`` does not
    advance (matching MPI-3 semantics, where request completion does not
    imply remote completion ordering of other operations).
    """

    def __init__(self, window: "Window", done_at: float):
        self._window = window
        #: virtual time the operation completes
        self._done_at = done_at
        self._done = False

    def test(self) -> bool:
        """Non-blocking completion probe against the virtual clock."""
        if self._done:
            return True
        if self._window._proc.clock >= self._done_at:
            self._done = True
        return self._done

    def wait(self) -> None:
        """Block (advance the virtual clock) until the operation completes.

        The target's completion time in the window keeps this operation's:
        the clock is past it now, so a later flush advances exactly as if
        it had been dropped.
        """
        if self._done:
            return
        proc = self._window._proc
        if self._done_at > proc.clock:
            proc.advance(self._done_at - proc.clock)
        proc.advance(SYNC_OVERHEAD)
        self._done = True

    @property
    def done(self) -> bool:
        return self._done


class Window:
    """Per-rank handle to a collectively created RMA window."""

    def __init__(self, comm: Communicator, group: _WindowGroup):
        self._comm = comm
        self._proc = comm.proc
        self._group = group
        #: ranks a get may target: the members of the window's group
        self._targets = frozenset(comm.ranks)
        self.eph = 0  #: number of concluded epochs since creation (w.eph)
        #: access-epoch mode (see repro.mpi.epochs) and the ranks the open
        #: epoch covers: the locked ranks, the started group, or every
        #: member under lock_all and fence_epoch
        self._mode = CLOSED
        self._access: frozenset[int] = frozenset()
        #: per target rank, the latest completion time of the data ops
        #: posted to it since its last completing sync (repro.mpi.ops)
        self._pending: dict[int, float] = {}
        self._epoch_close_hooks: list[Callable[["Window", set[int] | None], None]] = []
        #: telemetry bus (process-global); hot paths gate on
        #: ``kind in self._obs._wanted``
        self._obs = get_bus()
        #: per-rank fault injector (None on a fault-free job) and the
        #: retry/backoff policy applied to transient failures
        self._faults = getattr(comm, "faults", None)
        self._retry = getattr(comm, "retry", None) or DEFAULT_RETRY_POLICY
        self.faults_injected = 0  #: injected faults that raised on this window
        self.retries = 0          #: retry attempts performed on this window
        #: numpy dtype -> predefined Datatype memo (see :meth:`_resolve_dtype`)
        self._dtype_memo: dict = {}
        #: pooled descriptor frame for the dominant scalar-get path; taken
        #: (set to None) while a get is in flight, restored afterwards, so
        #: a million-get run reuses one frame instead of allocating one
        #: per op.  Paths where the descriptor escapes (rget, batches,
        #: layered issue()) never touch the pool.
        self._scalar_desc: OpDescriptor | None = OpDescriptor(kind="get")
        #: memoized per-target flush descriptors (see :meth:`flush`)
        self._flush_descs: dict[int, OpDescriptor] = {}
        #: the bound handlers every op is issued through (repro.mpi.ops)
        self._data_pipe = build_data_pipeline(self)
        self._sync_pipe = build_sync_pipeline(self)
        # Failure-report diagnostic: the scheduler appends each rank's open
        # epoch state to DeadlockError / RankFailedError messages.
        comm.proc.add_diagnostic(self._diagnostic)

    # ------------------------------------------------------------------
    # creation / destruction (collective)
    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls,
        comm: Communicator,
        nbytes: int,
        disp_unit: int = 1,
        info: Mapping[str, Any] | None = None,
    ) -> "Window":
        """Collectively allocate a window of ``nbytes`` local bytes."""
        if nbytes < 0:
            raise WindowError(f"negative window size: {nbytes}")
        buf = np.zeros(nbytes, dtype=np.uint8)
        return cls.create(comm, buf, disp_unit=disp_unit, info=info)

    @classmethod
    def create(
        cls,
        comm: Communicator,
        buffer: np.ndarray,
        disp_unit: int = 1,
        info: Mapping[str, Any] | None = None,
    ) -> "Window":
        """Collectively create a window over an existing local buffer."""
        if disp_unit < 1:
            raise WindowError(f"disp_unit must be >= 1, got {disp_unit}")
        local = np.ascontiguousarray(buffer).view(np.uint8).reshape(-1)
        shared = comm.allgather(
            {"buf": local, "du": disp_unit, "info": dict(info or {})}
        )
        # The lowest member rank constructs the shared group (rank 0 on
        # the world communicator, the lowest survivor after a shrink);
        # every rank receives the same object through the broadcast, so
        # win_id and the freed/revoked flags are genuinely shared state
        # (one address space).  The gathered list is world-indexed with
        # None at non-member slots, so the group stays world-sized and
        # target ranks keep their world numbering across a shrink.
        root = min(comm.ranks)
        group: _WindowGroup | None = None
        if comm.rank == root:
            group = _WindowGroup(len(shared))
            group.buffers = [
                s["buf"] if s is not None else np.empty(0, np.uint8)
                for s in shared
            ]
            group.disp_units = [s["du"] if s is not None else 1 for s in shared]
            group.infos = [s["info"] if s is not None else {} for s in shared]
        group = comm.bcast(group, root=root)
        return cls(comm, group)

    def free(self) -> None:
        """Collectively free the window."""
        self._step("free")
        self._comm.barrier()
        self._group.freed = True

    # ------------------------------------------------------------------
    # failure handling (ULFM-style revoke / shrink)
    # ------------------------------------------------------------------
    def revoke(self) -> None:
        """Revoke the window after a failure (MPI_Win_revoke analogue).

        Non-collective: any rank may call it, the flag is shared, and every
        rank's subsequent operations on this window raise
        :class:`~repro.mpi.errors.WindowRevokedError` until the survivors
        re-create the window with :meth:`shrink`.  Idempotent.
        """
        if not self._group.revoked:
            self._group.revoked = True
            if self._obs.wants(WINDOW_REVOKED):
                self._emit(
                    WINDOW_REVOKED,
                    failed=sorted(self._comm.proc.failed_ranks),
                )

    def shrink(self) -> "Window":
        """Collectively re-create this window over the surviving ranks.

        Agrees on the failed set (via :meth:`Communicator.shrink`), then
        re-exposes this rank's buffer on a fresh window whose group holds
        only survivors.  Target ranks keep their world numbering; the old
        (typically revoked) window is left behind.
        """
        comm = self._comm.shrink()
        return Window.create(
            comm,
            self.local_buffer,
            disp_unit=self._group.disp_units[self._comm.rank],
            info=self.info,
        )

    @property
    def revoked(self) -> bool:
        return self._group.revoked

    @property
    def failed_ranks(self) -> frozenset[int]:
        """Group members known (locally) to have crashed."""
        return self._comm.failed_ranks

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def comm(self) -> Communicator:
        return self._comm

    @property
    def win_id(self) -> int:
        return self._group.win_id

    @property
    def info(self) -> Mapping[str, Any]:
        """Info keys this rank passed at creation."""
        return self._group.infos[self._comm.rank]

    @property
    def local_buffer(self) -> np.ndarray:
        """This rank's exposed memory as a uint8 array."""
        return self._group.buffers[self._comm.rank]

    def local_view(self, dtype: np.dtype | type) -> np.ndarray:
        """This rank's exposed memory viewed with a NumPy dtype."""
        return self.local_buffer.view(np.dtype(dtype))

    def size_of(self, rank: int) -> int:
        """Exposed bytes of ``rank``'s window."""
        self._check_rank(rank)
        return int(self._group.buffers[rank].nbytes)

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def lock(self, rank: int, lock_type: str = LOCK_SHARED) -> None:
        """Open a passive-target access epoch towards ``rank``."""
        self._check_alive()
        self._check_rank(rank)
        if lock_type not in (LOCK_SHARED, LOCK_EXCLUSIVE):
            raise EpochError(f"unknown lock type: {lock_type}")
        mode = self._step("lock", rank)
        self._sync_pipe.issue(describe_lock(self, rank, lock_type))
        self._mode, self._access = mode, self._access | {rank}

    def lock_all(self) -> None:
        """Open a passive-target access epoch towards every rank."""
        self._check_alive()
        mode = self._step("lock_all")
        self._sync_pipe.issue(describe_lock(self, None, LOCK_SHARED))
        self._mode, self._access = mode, self._targets

    def unlock(self, rank: int) -> None:
        """Complete outstanding ops to ``rank`` and close its epoch."""
        self._check_alive()
        mode = self._step("unlock", rank)

        def finalize() -> None:
            self._access -= {rank}
            if not self._access:
                self._mode = mode

        self._sync_pipe.issue(self._describe_sync("unlock", rank, finalize))

    def unlock_all(self) -> None:
        """Complete all outstanding ops and close the lock_all epoch."""
        self._check_alive()
        self._step("unlock_all")
        self._sync_pipe.issue(
            self._describe_sync("unlock_all", None, self._close)
        )

    def flush(self, rank: int) -> None:
        """Complete outstanding ops to ``rank`` without releasing the lock.

        Like the paper (Listing 1: ``MPI_Win_flush(peer, win); //closes
        epoch``) we treat flush as an epoch-closure event for consistency
        purposes: ``eph`` is bumped and closure hooks fire.
        """
        # The passing cases of _check_alive and _step in line; each
        # helper runs only to raise.
        group = self._group
        if group.freed or group.revoked:
            self._check_alive()
        if rank not in self._access:
            self._step("flush", rank)
        # Per-target memo: a flush descriptor is a pure function of the
        # target rank (its sets/attrs are read-only downstream), and tight
        # get+flush loops issue hundreds of thousands of them.  Only the
        # measured completion extent changes per issue; reset it.
        desc = self._flush_descs.get(rank)
        if desc is None:
            desc = self._flush_descs[rank] = self._describe_sync("flush", rank)
        desc.duration = 0.0
        self._sync_pipe.issue(desc)

    def flush_all(self) -> None:
        """Complete all outstanding ops without releasing any lock."""
        self._check_alive()
        self._step("flush_all")
        self._sync_pipe.issue(self._describe_sync("flush_all", None))

    def _describe_sync(
        self, kind: str, target: int | None, finalize: Callable | None = None
    ) -> OpDescriptor:
        """A flush or unlock completing ``target``'s ops (None: all)."""
        targets = None if target is None else {target}
        return describe_sync(
            self,
            kind,
            target=target,
            targets=targets,
            close_targets=targets,
            finalize=finalize,
            emit_attrs={"target": target},
        )

    def fence(self) -> None:
        """Active-target synchronisation: collective epoch boundary."""
        self._check_alive()
        self._step("fence")
        self._sync_pipe.issue(
            describe_sync(
                self,
                "fence",
                targets=None,
                close_targets=None,
                barrier=True,
                fault_site=None,
            )
        )

    # -- context-manager epoch APIs ------------------------------------
    @contextmanager
    def lock_epoch(
        self, rank: int, lock_type: str = LOCK_SHARED
    ) -> Iterator["Window"]:
        """Scoped passive-target epoch towards one rank.

        ``with win.lock_epoch(peer): ...`` locks on entry and unlocks on
        exit — the unlock completes all outstanding operations (an implicit
        flush) and closes the epoch.  Call :meth:`flush` inside the block
        to close intermediate epochs, exactly as with explicit calls.
        """
        self.lock(rank, lock_type)
        try:
            yield self
        finally:
            self.unlock(rank)

    @contextmanager
    def lock_all_epoch(self) -> Iterator["Window"]:
        """Scoped passive-target epoch towards every rank (lock_all)."""
        self.lock_all()
        try:
            yield self
        finally:
            self.unlock_all()

    @contextmanager
    def fence_epoch(self) -> Iterator["Window"]:
        """Scoped active-target epoch: fence on entry *and* exit.

        RMA calls are permitted inside the block.  This scoped form is how
        active-target communication epochs are expressed here; a bare
        :meth:`fence` stays a pure synchronisation/completion boundary, so
        the epoch can never be left open by accident.
        """
        self.fence()  # leaves CLOSED or FENCE, both of which may enter
        self._mode, self._access = self._step("fence_enter"), self._targets
        try:
            yield self
        finally:
            # Leave FENCE before the closing fence can raise (on a revoked
            # window, say): the epoch ends with the block either way.
            if step(self._mode, "fence_exit") == CLOSED:
                self._close()
            self.fence()

    # -- generalised active target (PSCW) ------------------------------
    def start(self, group: set[int] | list[int]) -> None:
        """Open an access epoch towards the ranks in ``group`` (MPI_Win_start).

        The simulated runtime has no asynchronous target-side progress, so
        ``start`` pairs with the targets' :meth:`post` purely through the
        shared group bookkeeping; time-wise it charges one notification
        latency per target.
        """
        self._check_alive()
        mode = self._step("start")
        targets = set(group)
        for r in targets:
            self._check_rank(r)
        self._mode, self._access = mode, frozenset(targets)
        perf = self._comm.perf
        for r in targets:
            self._comm.proc.advance(perf.issue_time(self._comm.rank, r, 0))

    def complete(self) -> None:
        """Close the PSCW access epoch (MPI_Win_complete)."""
        self._check_alive()
        self._step("complete")
        group = set(self._access)
        # Completion is an epoch-closure event like flush; telemetry
        # consumers (the repro.analysis sanitizer in particular) rely on
        # seeing the flush event to retire this origin's outstanding ops.
        self._sync_pipe.issue(
            describe_sync(
                self,
                "complete",
                targets=None,
                close_targets=group,
                finalize=self._close,
                fault_site=None,
                emit_attrs={"target": None, "pscw": True},
            )
        )

    def post(self, group: set[int] | list[int]) -> None:
        """Expose the local window to ``group`` (MPI_Win_post).

        Functionally a no-op in the single-address-space simulation (the
        memory is always reachable); retained for API fidelity and charged a
        notification latency.
        """
        self._check_alive()
        for r in set(group):
            self._check_rank(r)

    def wait(self) -> None:
        """Wait for all access epochs on the local window (MPI_Win_wait).

        The deterministic scheduler cannot block a target on specific
        initiators without a full matching protocol; programs bracket PSCW
        phases with a barrier, which dominates its cost anyway.
        """
        self._check_alive()
        self._comm.barrier()

    def add_epoch_close_hook(
        self, hook: Callable[["Window", set[int] | None], None]
    ) -> None:
        """Register ``hook(window, targets)`` to run at each epoch closure.

        ``targets`` is the set of target ranks whose operations were
        completed, or ``None`` meaning "all".  Hooks run *before* ``eph`` is
        incremented and may charge virtual time via the communicator's
        process handle.
        """
        self._epoch_close_hooks.append(hook)

    # ------------------------------------------------------------------
    # one-sided operations
    # ------------------------------------------------------------------
    def get(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """Post a non-blocking get; returns the payload size in bytes.

        ``origin`` must be a contiguous NumPy array with room for the payload
        (``datatype.size * count`` bytes).  ``target_disp`` is expressed in
        the target's ``disp_unit``.  The data is visible in ``origin``
        immediately (simulation simplification) but the virtual clock only
        accounts completion at the next synchronisation.

        Under an active fault plan an injected transient failure is
        retried with exponential backoff (charged in virtual time) up to
        the retry policy's attempt budget; re-issuing moves the same bytes,
        so results stay bit-identical to a fault-free run.
        """
        desc = self._scalar_desc
        if desc is None:  # re-entrant get (defensive): fall back to a fresh frame
            desc = describe_get(
                self, origin, target_rank, target_disp, count, datatype
            )
            return self._data_pipe.issue(desc).result
        self._scalar_desc = None
        try:
            describe_get_into(
                desc, self, origin, target_rank, target_disp, count, datatype
            )
            self._data_pipe.issue(desc)
            return desc.result
        finally:
            self._scalar_desc = desc

    def get_batch(self, requests: Sequence[tuple]) -> list[int]:
        """Issue a batch of gets in one pass; returns per-op payload bytes.

        ``requests`` holds ``(origin, target_rank, target_disp[, count
        [, datatype]])`` tuples.  The batch validates every element
        before it issues any (liveness up front, then each element's rank
        and epoch ahead of its datatype) and emits **one** batched
        telemetry event (``rma.get_batch``, carrying every op's sanitizer
        footprint) instead of N per-op events.  Each element still flows
        through the full data handler — fault injection fires, retries
        charge their virtual-time backoff, transfers are priced per
        element — so the resulting virtual time is bit-identical to N
        scalar gets.
        """
        descs = describe_get_batch(self, requests)
        for desc in descs:
            self._data_pipe.issue(desc)
        emit_get_batch(self, descs)
        return [d.result for d in descs]

    def issue(self, desc: OpDescriptor) -> OpDescriptor:
        """Issue a pre-built descriptor through the matching handler.

        The extension point for layered windows (the CLaMPI cache batches
        its miss traffic through here) and future backends; scalar op
        methods are thin wrappers over describe + issue.
        """
        pipe = self._data_pipe if desc.is_data else self._sync_pipe
        return pipe.issue(desc)

    def put(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """Post a non-blocking put; returns the payload size in bytes."""
        desc = describe_put(self, origin, target_rank, target_disp, count, datatype)
        return self._data_pipe.issue(desc).result

    def get_blocking(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """Convenience: ``get`` + ``flush(target_rank)``."""
        n = self.get(origin, target_rank, target_disp, count, datatype)
        self.flush(target_rank)
        return n

    def rget(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> Request:
        """Request-based get (MPI_Rget): complete with ``Request.wait``."""
        desc = describe_get(self, origin, target_rank, target_disp, count, datatype)
        self._data_pipe.issue(desc)
        return Request(self, desc.done_at)

    def rput(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> Request:
        """Request-based put (MPI_Rput)."""
        desc = describe_put(self, origin, target_rank, target_disp, count, datatype)
        self._data_pipe.issue(desc)
        return Request(self, desc.done_at)

    def accumulate(
        self,
        origin: np.ndarray,
        target_rank: int,
        target_disp: int,
        op: str = "sum",
        count: int | None = None,
        datatype: Datatype | None = None,
    ) -> int:
        """MPI_Accumulate with a predefined element-wise op.

        ``op`` is ``"sum"``, ``"max"``, ``"min"`` or ``"replace"``; the
        element type is the origin array's dtype (derived datatypes are not
        supported for accumulates, matching common MPI restrictions).
        Accumulates are never cached by CLaMPI (they are writes).
        """
        desc = describe_accumulate(
            self, origin, target_rank, target_disp, op, count, datatype
        )
        return self._data_pipe.issue(desc).result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit_get(
        self,
        origin: np.ndarray,
        rank: int,
        count: int | None,
        datatype: Datatype | None,
    ) -> tuple[Datatype, int]:
        """Resolve a get's ``(datatype, count)`` and check that it may go.

        The front half every get shares, plain or cached, in one frame:
        the dtype-memo hit of :meth:`_resolve_dtype`, then the passing
        cases of :meth:`_check_alive`, :meth:`_check_rank` and
        :meth:`_step`, in that order.  Each helper runs only when its test
        here fails, so the helper alone raises, with its message.  One
        test covers rank and epoch: every rank the open epoch covers is a
        member of the window's group.
        """
        dtype = self._dtype_memo.get(origin.dtype) if datatype is None else datatype
        if dtype is not None and count is None:
            size = dtype.size
            count = origin.nbytes // size if size else 0
        if dtype is None or count < 0:
            dtype, count = self._resolve_dtype(origin, count, datatype)
        group = self._group
        if group.freed or group.revoked:
            self._check_alive()
        try:
            covered = rank in self._access
        except TypeError:  # unhashable: let _check_rank raise as it always did
            covered = False
        if not covered:
            self._check_rank(rank)
            self._step("get", rank)
        return dtype, count

    def _resolve_dtype(
        self, origin: np.ndarray, count: int | None, datatype: Datatype | None
    ) -> tuple[Datatype, int]:
        if datatype is None:
            # numpy dtype -> Datatype is a pure function of the dtype and
            # applications use a handful, so the scan runs once per dtype.
            memo = self._dtype_memo
            datatype = memo.get(origin.dtype)
            if datatype is None:
                if len(memo) >= 64:
                    memo.clear()
                datatype = memo[origin.dtype] = from_numpy(origin.dtype)
        if count is None:
            size = datatype.size
            count = origin.nbytes // size if size else 0
        if count < 0:
            raise WindowError(f"negative count: {count}")
        return datatype, count

    def _emit(self, kind: str, duration: float = 0.0, **attrs: Any) -> None:
        """Publish one telemetry event stamped (rank, virtual time, epoch)."""
        comm = self._comm
        self._obs.emit(
            Event(
                kind,
                comm.rank,
                comm.proc.clock,
                self.eph,
                self.win_id,
                duration=duration,
                attrs=attrs,
            )
        )

    def _epoch_state(self) -> str:
        """Human-readable summary of this rank's current epoch state."""
        mode, access = self._mode, sorted(self._access)
        state = {
            CLOSED: "no epoch open",
            LOCK: f"locked ranks {access}",
            LOCK_ALL: "lock_all held",
            FENCE: "inside a fence epoch",
            PSCW: f"PSCW access group {access}",
        }[mode]
        return f"epoch state: {state}; {self.eph} epochs concluded"

    def _step(self, call: str, rank: int | None = None) -> str:
        """The mode ``call`` towards ``rank`` leaves this window in.

        Raises the epoch table's :class:`EpochError` when the open epoch
        does not allow the call; the caller applies the mode.
        """
        mode = step(self._mode, call, rank in self._access)
        if mode not in MODES:
            raise EpochError(
                mode.format(
                    call=call,
                    rank=rank,
                    me=self._comm.rank,
                    state=self._epoch_state(),
                )
            )
        return mode

    def _close(self) -> None:
        self._mode, self._access = CLOSED, frozenset()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self._comm.proc.nprocs:
            raise WindowError(f"target rank {rank} out of range [0, {self._comm.size})")
        if not self._comm.contains(rank):
            raise WindowError(
                f"target rank {rank} is not in the window's group "
                f"(survivors {sorted(self._comm.ranks)})"
            )

    def _check_alive(self) -> None:
        if self._group.freed:
            raise WindowError("window has been freed")
        if self._group.revoked:
            raise WindowRevokedError(
                f"window {self._group.win_id} was revoked after a rank "
                "failure; shrink() to continue on the survivors"
            )

    def _diagnostic(self) -> str:
        return f"win {self.win_id}: {self._epoch_state()}"


class WindowProxy:
    """The non-data surface of a window layered over a plain :class:`Window`.

    Epochs, synchronisation, the scoped ``*_epoch`` context managers (which
    yield the *layered* window) and buffer introspection all delegate to
    the wrapped window in ``self._win``.  Layered windows (CLaMPI's
    ``CachedWindow``, the block-cache baseline) inherit this and define
    only their data ops; ``get_blocking`` goes through the subclass's own
    ``get``.
    """

    _win: Window

    @property
    def raw(self) -> Window:
        """The underlying plain MPI window."""
        return self._win

    @property
    def comm(self) -> Communicator:
        return self._win.comm

    @property
    def eph(self) -> int:
        return self._win.eph

    @property
    def info(self) -> Mapping[str, Any]:
        return self._win.info

    @property
    def local_buffer(self) -> np.ndarray:
        return self._win.local_buffer

    def local_view(self, dtype: np.dtype | type) -> np.ndarray:
        return self._win.local_view(dtype)

    def lock(self, rank: int, lock_type: str = LOCK_SHARED) -> None:
        self._win.lock(rank, lock_type)

    def lock_all(self) -> None:
        self._win.lock_all()

    def unlock(self, rank: int) -> None:
        self._win.unlock(rank)

    def unlock_all(self) -> None:
        self._win.unlock_all()

    def flush(self, rank: int) -> None:
        self._win.flush(rank)

    def flush_all(self) -> None:
        self._win.flush_all()

    def fence(self) -> None:
        self._win.fence()

    def free(self) -> None:
        self._win.free()

    @contextmanager
    def lock_epoch(self, rank: int, lock_type: str = LOCK_SHARED) -> Iterator[Any]:
        """Scoped passive-target epoch towards ``rank`` (see Window.lock_epoch)."""
        with self._win.lock_epoch(rank, lock_type):
            yield self

    @contextmanager
    def lock_all_epoch(self) -> Iterator[Any]:
        """Scoped passive-target epoch towards every rank."""
        with self._win.lock_all_epoch():
            yield self

    @contextmanager
    def fence_epoch(self) -> Iterator[Any]:
        """Scoped active-target epoch: fence on entry and exit."""
        with self._win.fence_epoch():
            yield self

    #: ``get`` + ``flush``, through the layered window's own ``get``
    get_blocking = Window.get_blocking
