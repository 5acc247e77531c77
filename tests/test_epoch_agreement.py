"""The three epoch checkers agree: the window, the static verifier and the
sanitizer reach the same verdict on the same program.

A program is a straight-line sequence of window calls (``fence_epoch``
blocks nest), every targeted call naming ``peer = 1 - rank``.  Both ranks
of a 2-rank world run it, so the collective ``fence`` and ``wait`` pair
up, and a call that raises :class:`EpochError` is skipped (a
``fence_epoch`` whose entry raises runs its body without the epoch).  The
same program is rendered as source, with ``Window.allocate`` as the
window's provenance, and handed to the typestate verifier.

* **Op outside an epoch.**  The window raises from a get, put,
  accumulate, flush or flush_all on line *i* iff the verifier reports
  ANL012 on line *i*.
* **Epoch leak.**  The program ends with a lock or lock_all epoch open iff
  the verifier reports ANL009 on the return path and the sanitizer reports
  ``EPOCH_LEAK``.  (The verifier also reports leaks on the exception edges
  out of a ``with`` block, a path the harness never takes.)
* **The known difference.**  ``start`` emits no event, so a PSCW epoch
  left open is an ANL009 the sanitizer cannot see.
"""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import analysis
from repro.analysis.recorder import ViolationKind
from repro.analysis.typestate import verify_source
from repro.mpi import EpochError, SimMPI
from repro.mpi.window import Window

#: call -> its source; the window runs exactly this text
CALLS = {
    "lock": "win.lock(peer)",
    "lock_all": "win.lock_all()",
    "unlock": "win.unlock(peer)",
    "unlock_all": "win.unlock_all()",
    "fence": "win.fence()",
    "start": "win.start([peer])",
    "complete": "win.complete()",
    "post": "win.post([peer])",
    "wait": "win.wait()",
    "flush": "win.flush(peer)",
    "flush_all": "win.flush_all()",
    "get": "win.get(buf, peer, 0)",
    "put": "win.put(buf, peer, 0)",
    "accumulate": "win.accumulate(buf, peer, 0)",
}
#: the calls that ANL012 speaks about
OPS = {"get", "put", "accumulate", "flush", "flush_all"}
HEADER = [
    "def program(m):",
    "    win = Window.allocate(m.comm_world, 64)",
    "    peer = 1 - m.rank",
    "    buf = np.zeros(2, np.int32)",
]


def render(program, free):
    """Source lines plus the steps the window takes, each with its line:
    ``("call", line, name)``, ``("enter", line, None)``, ``("exit", ...)``."""
    lines, steps = list(HEADER), []

    def emit(items, indent):
        for item in items:
            lines.append(" " * indent)
            if isinstance(item, tuple):
                lines[-1] += "with win.fence_epoch():"
                steps.append(("enter", len(lines), None))
                emit(item, indent + 4)
                if lines[-1].endswith(":"):
                    lines.append(" " * (indent + 4) + "pass")
                steps.append(("exit", None, None))
            else:
                lines[-1] += CALLS[item]
                steps.append(("call", len(lines), item))

    emit(program, 4)
    if free:
        lines.append("    win.free()")
        steps.append(("free", len(lines), "free"))
    return "\n".join(lines) + "\n", steps


def run_window(steps):
    """Per rank: the (line, call) of every EpochError, and the epoch state
    at the end (the window's own diagnostic text)."""

    def rank_program(m):
        scope = {
            "win": Window.allocate(m.comm_world, 64),
            "peer": 1 - m.rank,
            "buf": np.zeros(2, np.int32),
        }
        win, raised, blocks = scope["win"], [], []
        for kind, line, name in steps:
            try:
                if kind == "enter":
                    blocks.append(None)
                    block = win.fence_epoch()
                    block.__enter__()
                    blocks[-1] = block
                elif kind == "exit":
                    block = blocks.pop()
                    if block is not None:
                        block.__exit__(None, None, None)
                elif kind == "free":
                    win.free()
                else:
                    eval(CALLS[name], scope)
            except EpochError:
                raised.append((line, name))
        return raised, win._epoch_state()

    with analysis.sanitize() as san:
        results = SimMPI(nprocs=2).run(rank_program)
    leaks = {v.rank for v in san.violations if v.kind == ViolationKind.EPOCH_LEAK}
    return results, leaks


def check_agreement(program, free=False):
    source, steps = render(program, free)
    diags = verify_source(ast.parse(source), "program.py")
    static_lines = sorted(d.line for d in diags if d.rule == "ANL012")
    static_leak = any(
        d.rule == "ANL009" and "the function returns" in d.message
        for d in diags
    )
    results, leaks = run_window(steps)
    for rank, (raised, state) in enumerate(results):
        window_lines = sorted(line for line, name in raised if name in OPS)
        assert window_lines == static_lines, (source, raised, diags)
        passive = "lock_all held" in state or "locked ranks" in state
        pscw = "PSCW access group" in state
        assert static_leak == (passive or pscw), (source, state, diags)
        assert (rank in leaks) == passive, (source, state, leaks)
    return diags, results


CALL = st.sampled_from(sorted(CALLS))
ITEM = st.one_of(
    CALL,
    st.lists(
        st.one_of(CALL, st.lists(CALL, max_size=3).map(tuple)), max_size=4
    ).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(ITEM, max_size=10), st.booleans())
def test_window_verifier_and_sanitizer_agree(program, free):
    check_agreement(program, free)


#: the disagreements between the checkers before they shared one table,
#: with the (line, call) where the window raises
@pytest.mark.parametrize(
    "program, raised",
    [
        pytest.param(["fence", "get"], [(6, "get")], id="bare-fence-then-get"),
        pytest.param(["flush"], [(5, "flush")], id="flush-with-no-epoch"),
        pytest.param(
            [("flush_all", "flush")], [(6, "flush_all")],
            id="flush_all-in-fence_epoch",
        ),
        pytest.param(
            ["start", "lock", "complete"], [(6, "lock")], id="lock-in-pscw"
        ),
        pytest.param(
            ["start", "lock_all", "complete"], [(6, "lock_all")],
            id="lock_all-in-pscw",
        ),
    ],
)
def test_former_disagreements(program, raised):
    diags, results = check_agreement(program)
    assert all(r == raised for r, _state in results)
    anl012 = [d.line for d in diags if d.rule == "ANL012"]
    assert anl012 == [line for line, call in raised if call in OPS]


def test_pscw_leak_is_invisible_to_the_sanitizer():
    source, steps = render(["start", "put"], free=False)
    diags = verify_source(ast.parse(source), "program.py")
    results, leaks = run_window(steps)
    assert [(d.rule, d.line) for d in diags] == [("ANL009", 5)]
    assert all("PSCW access group" in state for _raised, state in results)
    assert leaks == set()
