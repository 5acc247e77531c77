"""A get fails the same way on a plain and on a cached window.

The paper's transparency claim includes misuse: a cached window is
observably indistinguishable from a plain one, so a bad get must raise the
same exception, with the same message, whether the cache would have
served it (a warm hit, CACHED or PENDING) or not (a miss).  Hypothesis
draws the window state (no epoch, ``lock(0)``, ``lock(1)``, ``lock_all``,
a fence epoch, freed, revoked) and one defect of the op arguments (bad
rank, negative count, negative displacement, an out-of-bounds span, a
non-contiguous or too-small origin, a multi-block ``Vector`` datatype, or
none), and runs the same scenario on a plain window and on a cached
window in every mode.

The same states drive a differential check of the get description: the
one-frame ``describe_get_into`` against the helper chain it replaced
(``tests/reference_rma.py``) — identical descriptor fields, or the
identical exception.

A payload moves through memoryviews only for origins that numpy's byte
view fills the same way; the last tests hold read-only, 0-d, object,
``datetime64``, non-contiguous and too-small origins, on a plain get, a
miss, a CACHED hit and a PENDING hit, to what numpy's idiom does.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import reference_rma
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import clampi
from repro.mpi import SimMPI
from repro.mpi.datatypes import FLOAT64, Vector, origin_bytes
from repro.mpi.window import Window
from repro.mpi.ops import OpDescriptor, describe_get_into

NBYTES = 256  #: window bytes per rank
STATES = ("none", "lock0", "lock1", "lock_all", "fence", "freed", "revoked")
#: states whose epoch lets a get towards rank 1 through
OPEN_TO_1 = ("lock1", "lock_all", "fence")
DEFECTS = (
    None,
    "rank",
    "count",
    "disp",
    "span",
    "noncontig",
    "small",
    "vector",
)
MODES = (clampi.Mode.TRANSPARENT, clampi.Mode.ALWAYS_CACHE, clampi.Mode.USER_DEFINED)


@dataclasses.dataclass(frozen=True)
class Get:
    """One get's arguments; ``stride`` > 1 makes a non-contiguous origin,
    and ``origin`` names another kind of float64-sized origin array."""

    elems: int
    target: int
    disp: int
    count: int | None = None
    vector: bool = False
    stride: int = 1
    origin: str = "float64"

    def args(self) -> tuple:
        origin = np.full(self.elems * self.stride, -1.0)[:: self.stride]
        if self.origin == "read-only":
            origin.flags.writeable = False
        elif self.origin == "0-d":
            origin = np.full((), -1.0)
        elif self.origin != "float64":  # "object", "datetime64[ns]"
            origin = np.full(self.elems, -1).astype(self.origin)
        dtype = Vector(2, 1, 2, FLOAT64) if self.vector else None
        return origin, self.target, self.disp, self.count, dtype


@st.composite
def cases(draw):
    """(state, warm, warm get, get): ``warm`` is how the cache saw the
    key before: "cold" (never), "cached" (fetched in an earlier epoch) or
    "pending" (fetched earlier in this epoch)."""
    state = draw(st.sampled_from(STATES))
    warm = draw(st.sampled_from(("cold", "cached", "pending")))
    defect = draw(st.sampled_from(DEFECTS))
    n = draw(st.integers(1, 4))
    disp = 8 * draw(st.integers(0, 16))
    good = Get(n, 1, disp)
    bad = good
    if defect == "rank":
        bad = dataclasses.replace(good, target=draw(st.sampled_from((-1, 2, 7))))
    elif defect == "count":
        bad = dataclasses.replace(good, count=-draw(st.integers(1, 3)))
    elif defect == "disp":
        bad = dataclasses.replace(good, disp=-8 * draw(st.integers(1, 4)))
    elif defect == "span":  # the warm get fits, the bigger one does not
        room = draw(st.integers(1, 3))
        need = room + draw(st.integers(1, 3))
        good = Get(room, 1, NBYTES - 8 * room)
        bad = Get(need, 1, NBYTES - 8 * room)
    elif defect == "noncontig":
        bad = dataclasses.replace(good, stride=2)
    elif defect == "small":
        need = n + draw(st.integers(1, 2))
        good = Get(need, 1, disp, count=need)
        bad = Get(n, 1, disp, count=need)
    elif defect == "vector":
        k = draw(st.integers(1, 3))
        good = bad = Get(2 * k, 1, disp, count=k, vector=True)
    return state, warm, good, bad


def outcome(fn, win_ids=()):
    """``("ok", fn())``, or the exception's type and message with window
    ids masked (each window has its own)."""
    try:
        return "ok", fn()
    except Exception as exc:  # the exception is the result
        msg = str(exc)
        for wid in win_ids:
            msg = msg.replace(f"window {wid} ", "window <id> ")
        return type(exc), msg


def describe_fields(describe, win, get):
    def run():
        desc = describe(OpDescriptor(kind="get"), win, *get.args())
        fields = {f.name: getattr(desc, f.name) for f in dataclasses.fields(desc)}
        fields["origin"] = fields["origin"].shape  # a fresh array each call
        return fields

    return outcome(run)


def scenario(win, state, warm, good, bad, win_ids, describes):
    """Put ``win`` in ``state`` (warming it as told) and issue ``bad``.

    Every rank runs the same scenario, so the collectives in ``fence``
    and ``free`` line up.
    """

    def warm_up():
        try:
            win.get(*good.args())
        except Exception:  # a warm get may be invalid itself: the same on all
            pass

    def op():
        if describes is not None:
            describes.append(
                tuple(
                    describe_fields(d, win, bad)
                    for d in (reference_rma.describe_get_into, describe_get_into)
                )
            )

        def get():
            origin, *rest = bad.args()
            return win.get(origin, *rest), origin.tobytes()

        return outcome(get, win_ids)

    if warm == "cached":
        with win.lock_all_epoch():
            warm_up()
            win.flush(1)
    if state == "none":
        return op()
    if state == "freed":
        win.free()
        return op()
    if state == "revoked":
        win.lock_all()
        win.comm.barrier()  # the flag is shared: every rank is in first
        (win.raw if hasattr(win, "raw") else win).revoke()
        return op()
    epoch = {
        "lock0": lambda: win.lock_epoch(0),
        "lock1": lambda: win.lock_epoch(1),
        "lock_all": win.lock_all_epoch,
        "fence": win.fence_epoch,
    }[state]
    with epoch():
        if warm == "pending" and state in OPEN_TO_1:
            warm_up()
        return op()


def program(mpi, state, warm, good, bad):
    comm = mpi.comm_world
    plain = Window.allocate(comm, NBYTES)
    cached = [clampi.window_allocate(comm, NBYTES, mode=m) for m in MODES]
    pattern = (np.arange(NBYTES) * 7 + 3 * mpi.rank) % 251
    for w in [plain, *cached]:
        w.local_buffer[:] = pattern
    comm.barrier()
    win_ids = [plain.win_id] + [c.raw.win_id for c in cached]
    describes: list = []
    want = scenario(plain, state, warm, good, bad, win_ids, describes)
    got = [scenario(c, state, warm, good, bad, win_ids, None) for c in cached]
    return want, got, describes


@settings(max_examples=120, deadline=None)
@given(cases())
def test_a_cached_get_fails_exactly_like_a_plain_get(case):
    want, got, describes = SimMPI(2).run(program, *case)[0]
    for mode, result in zip(MODES, got):
        assert result == want, (mode, case)
    for reference, rewritten in describes:
        assert rewritten == reference, case


def test_a_warm_entry_does_not_bypass_the_window_checks():
    """A CACHED entry is not served with no epoch open, inside another
    target's lock, or on a freed or revoked window: the hit raises what
    the plain get raises."""
    good = Get(2, 1, 16)
    for state, error in (
        ("none", "EpochError"),
        ("lock0", "EpochError"),
        ("freed", "WindowError"),
        ("revoked", "WindowRevokedError"),
    ):
        want, got, _ = SimMPI(2).run(program, state, "cached", good, good)[0]
        assert want[0].__name__ == error
        assert got == [want] * len(MODES)


# ---------------------------------------------------------------------------
# origins: a get's payload moves through memoryviews only where numpy's
# byte view would move it the same way
# ---------------------------------------------------------------------------
#: (name, the bad get, a good get of the same key warming the cache)
ORIGINS = (
    ("read-only", Get(3, 1, 16, origin="read-only"), Get(3, 1, 16)),
    ("0-d", Get(1, 1, 16, origin="0-d"), Get(1, 1, 16)),
    ("object", Get(3, 1, 16, origin="object"), Get(3, 1, 16)),
    ("datetime64", Get(3, 1, 16, origin="datetime64[ns]"), Get(3, 1, 16)),
    ("non-contiguous", Get(3, 1, 16, stride=2), Get(3, 1, 16)),
    ("too small", Get(2, 1, 16, count=3), Get(3, 1, 16, count=3)),
)


def numpy_move(get: Get, payload: np.ndarray):
    """What the move of one get did before memoryviews: numpy's flat byte
    view of the origin, then a slice assignment; ``outcome``-shaped, as
    the plain get's is."""

    def move():
        origin, _target, _disp, count, _dtype = get.args()
        nbytes = 8 * (count if count is not None else origin.size)
        obuf = origin_bytes(origin, nbytes)
        obuf[:nbytes] = payload[:nbytes]
        return nbytes, origin.tobytes()

    return outcome(move)


@pytest.mark.parametrize("warm", ["cold", "cached", "pending"])
@pytest.mark.parametrize("name, bad, good", ORIGINS, ids=[o[0] for o in ORIGINS])
def test_an_origin_fails_as_numpy_made_it_fail(name, bad, good, warm):
    """Each origin raises the exception numpy's idiom raises (or moves the
    same bytes), on a plain get and on a cached one served as a miss
    ("cold"), a CACHED hit or a PENDING hit."""
    want, got, _ = SimMPI(2).run(program, "lock_all", warm, good, bad)[0]
    pattern = ((np.arange(NBYTES) * 7 + 3) % 251).astype(np.uint8)  # rank 1
    assert want == numpy_move(bad, pattern[bad.disp :]), name
    assert got == [want] * len(MODES), name
    if name != "datetime64":
        assert want[0] != "ok", name


def test_the_origin_cases_reach_the_hit_paths():
    """Not vacuous: the warm key is a full hit (CACHED or PENDING) for a
    good origin, so the bad origins above reach the hit's copy."""

    def hits(mpi, warm):
        comm = mpi.comm_world
        win = clampi.window_allocate(comm, NBYTES, mode=clampi.Mode.ALWAYS_CACHE)
        comm.barrier()
        scenario(win, "lock_all", warm, Get(3, 1, 16), Get(3, 1, 16), (), None)
        return win.stats.snapshot()

    for warm, access in (("cached", "hit_full"), ("pending", "hit_pending")):
        assert SimMPI(2).run(hits, warm)[0][access] == 1, warm
