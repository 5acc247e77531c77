"""Tests for the flow-sensitive epoch/flush typestate verifier.

Covers the abstract interpreter on small snippets (every rule, plus the
join/loop/exception-edge machinery), the interprocedural one-level
summaries, the seeded fixtures under ``tests/fixtures/buggy_static/``,
and — the repo invariant itself — that ``src/repro`` and ``examples``
verify clean.
"""

import ast
import textwrap
from pathlib import Path

from repro.analysis.typestate import run_verify, verify_source

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
FIXTURES = REPO / "tests" / "fixtures" / "buggy_static"


def verify_snippet(code: str):
    tree = ast.parse(textwrap.dedent(code))
    return verify_source(tree, "snippet.py")


def rules_of(diags):
    return sorted({d.rule for d in diags})


class TestEpochLeak:
    def test_leak_on_straight_line_return(self):
        diags = verify_snippet(
            """
            def f(mpi, spec):
                win = spec.make_window(mpi.comm_world, buf)
                win.lock(1)
                return 0
            """
        )
        assert rules_of(diags) == ["ANL009"]
        assert diags[0].line == 4  # primary span = the open site
        assert diags[0].related  # related span = where the path leaves

    def test_leak_on_one_branch_only(self):
        diags = verify_snippet(
            """
            def f(win, flag):
                win.lock_all()
                if flag:
                    return None
                win.unlock_all()
            """
        )
        assert rules_of(diags) == ["ANL009"]

    def test_leak_on_exception_edge(self):
        diags = verify_snippet(
            """
            def f(win, n):
                win.lock_all()
                if n > 64:
                    raise ValueError(n)
                win.unlock_all()
            """
        )
        assert rules_of(diags) == ["ANL009"]
        assert "exception" in diags[0].message

    def test_balanced_paths_clean(self):
        diags = verify_snippet(
            """
            def f(win, skip):
                win.lock(0)
                if skip:
                    win.unlock(0)
                    return None
                win.get(buf, 0, 0)
                win.flush(0)
                win.unlock(0)
                return 1
            """
        )
        assert diags == []

    def test_try_finally_unlock_clean(self):
        diags = verify_snippet(
            """
            def f(win, n):
                win.lock_all()
                try:
                    if n > 64:
                        raise ValueError(n)
                    win.get(buf, 0, 0)
                finally:
                    win.unlock_all()
            """
        )
        assert diags == []

    def test_with_epoch_covers_exception_path(self):
        diags = verify_snippet(
            """
            def f(win, n):
                with win.lock_all_epoch():
                    if n > 64:
                        raise ValueError(n)
                    win.get(buf, 0, 0)
                    win.flush_all()
            """
        )
        assert diags == []

    def test_pscw_start_without_complete(self):
        # `start`/`put` alone are too generic to count as window
        # evidence; provenance tracking (make_window) enables the check
        diags = verify_snippet(
            """
            def f(mpi, spec, group, buf):
                win = spec.make_window(mpi.comm_world, local)
                win.start(group)
                win.put(buf, 0, 0)
            """
        )
        assert "ANL009" in rules_of(diags)

    def test_bare_fence_opens_no_epoch(self):
        # a bare fence is a completion boundary, as the window treats it:
        # the get between two fences raises EpochError at run time
        diags = verify_snippet(
            """
            def f(mpi, buf):
                win = Window.allocate(mpi.comm_world, 64)
                win.fence()
                win.get(buf, 0, 0)
                win.fence()
            """
        )
        assert [(d.rule, d.line) for d in diags] == [("ANL012", 5)]

    def test_fence_epoch_at_exit_is_not_a_leak(self):
        # only fence_epoch opens an active-target epoch, and it closes on
        # every edge out of its block
        diags = verify_snippet(
            """
            def f(mpi, buf):
                win = Window.allocate(mpi.comm_world, 64)
                with win.fence_epoch():
                    win.get(buf, 0, 0)
                    win.flush(0)
                return buf[0]
            """
        )
        assert diags == []

    def test_loop_balanced_lock_unlock_clean(self):
        diags = verify_snippet(
            """
            def f(win, peers):
                for p in peers:
                    win.lock(p)
                    win.get(buf, p, 0)
                    win.flush(p)
                    win.unlock(p)
            """
        )
        assert diags == []


class TestReadBeforeFlush:
    def test_subscript_read_flagged(self):
        diags = verify_snippet(
            """
            import numpy as np
            def f(win):
                buf = np.empty(8)
                with win.lock_all_epoch():
                    win.get(buf, 0, 0)
                    x = buf[0]
                    win.flush_all()
                return x
            """
        )
        assert rules_of(diags) == ["ANL010"]
        assert diags[0].related  # points at the pending get

    def test_read_after_flush_clean(self):
        diags = verify_snippet(
            """
            import numpy as np
            def f(win):
                buf = np.empty(8)
                with win.lock_all_epoch():
                    win.get(buf, 0, 0)
                    win.flush_all()
                    x = buf[0]
                return x
            """
        )
        assert diags == []

    def test_epoch_close_completes_pending(self):
        diags = verify_snippet(
            """
            def f(win, buf):
                win.lock_all()
                win.get(buf, 0, 0)
                win.unlock_all()
                return buf[0]
            """
        )
        assert diags == []

    def test_get_blocking_completes_immediately(self):
        diags = verify_snippet(
            """
            def f(win, buf):
                with win.lock_all_epoch():
                    win.get_blocking(buf, 0, 0)
                    return buf[0]
            """
        )
        assert diags == []

    def test_np_consumer_flagged(self):
        diags = verify_snippet(
            """
            import numpy as np
            def f(win, buf):
                with win.lock_all_epoch():
                    win.get(buf, 0, 0)
                    s = np.sum(buf)
                    win.flush_all()
                return s
            """
        )
        assert rules_of(diags) == ["ANL010"]

    def test_pending_get_as_put_origin_flagged(self):
        diags = verify_snippet(
            """
            def f(win, buf):
                with win.lock_all_epoch():
                    win.get(buf, 0, 0)
                    win.put(buf, 1, 0)
                    win.flush_all()
            """
        )
        assert rules_of(diags) == ["ANL010"]

    def test_loop_reuse_without_flush_flagged(self):
        diags = verify_snippet(
            """
            def f(win, buf, peers):
                with win.lock_all_epoch():
                    for p in peers:
                        win.get(buf, p, 0)
                    win.flush_all()
            """
        )
        assert rules_of(diags) == ["ANL010"]

    def test_flush_only_specific_window(self):
        # flushing win_a must not retire ops pending on win_b
        diags = verify_snippet(
            """
            def f(win_a, win_b, buf):
                win_a.lock_all()
                win_b.lock_all()
                win_b.get(buf, 0, 0)
                win_a.flush_all()
                x = buf[0]
                win_a.unlock_all()
                win_b.unlock_all()
                return x
            """
        )
        assert rules_of(diags) == ["ANL010"]

    def test_request_wait_completes(self):
        diags = verify_snippet(
            """
            def f(win, buf):
                with win.lock_all_epoch():
                    req = win.rget(buf, 0, 0)
                    req.wait()
                    return buf[0]
            """
        )
        assert diags == []

    def test_rget_read_without_wait_flagged(self):
        diags = verify_snippet(
            """
            def f(win, buf):
                with win.lock_all_epoch():
                    req = win.rget(buf, 0, 0)
                    x = buf[0]
                    req.wait()
                return x
            """
        )
        assert rules_of(diags) == ["ANL010"]


class TestOriginReuse:
    def test_subscript_store_flagged(self):
        diags = verify_snippet(
            """
            def f(win, stage, updates):
                with win.lock_all_epoch():
                    for peer, value in updates:
                        stage[:] = value
                        win.put(stage, peer, 0)
                    win.flush_all()
            """
        )
        assert rules_of(diags) == ["ANL011"]

    def test_flush_between_puts_clean(self):
        diags = verify_snippet(
            """
            def f(win, stage, updates):
                with win.lock_all_epoch():
                    for peer, value in updates:
                        stage[:] = value
                        win.put(stage, peer, 0)
                        win.flush(peer)
            """
        )
        assert diags == []

    def test_reading_pending_put_origin_is_fine(self):
        # MPI allows *reading* a put origin; only writes are hazards
        diags = verify_snippet(
            """
            def f(win, stage):
                with win.lock_all_epoch():
                    win.put(stage, 0, 0)
                    x = stage[0]
                    win.flush_all()
                return x
            """
        )
        assert diags == []


class TestOpOutsideEpoch:
    def test_op_before_any_lock_flagged(self):
        diags = verify_snippet(
            """
            def f(mpi, spec, buf):
                win = spec.make_window(mpi.comm_world, local)
                win.get(buf, 0, 0)
            """
        )
        assert "ANL012" in rules_of(diags)

    def test_op_after_unlock_flagged(self):
        diags = verify_snippet(
            """
            def f(win, buf):
                win.lock_all()
                win.unlock_all()
                win.get(buf, 0, 0)
            """
        )
        assert "ANL012" in rules_of(diags)

    def test_unknown_entry_state_not_flagged(self):
        # a window parameter arrives in unknown state: the caller may
        # hold the epoch, so no ANL012
        diags = verify_snippet(
            """
            def f(win, buf):
                win.get(buf, 0, 0)
                win.flush_all()
            """
        )
        assert diags == []

    def test_partially_open_path_mentions_path(self):
        diags = verify_snippet(
            """
            def f(mpi, spec, buf, peek):
                win = spec.make_window(mpi.comm_world, local)
                if peek:
                    win.lock_all()
                win.get(buf, 0, 0)
                win.flush_all()
                win.unlock_all()
            """
        )
        anl12 = [d for d in diags if d.rule == "ANL012"]
        assert anl12 and "path" in anl12[0].message


class TestInterprocedural:
    def test_helper_flush_retires_pending(self):
        diags = verify_snippet(
            """
            def complete(win):
                win.flush_all()

            def f(win, buf):
                with win.lock_all_epoch():
                    win.get(buf, 0, 0)
                    complete(win)
                    return buf[0]
            """
        )
        assert diags == []

    def test_bound_method_arg_assumed_invoked(self):
        diags = verify_snippet(
            """
            from repro import recovery

            def f(win, buf):
                with win.lock_all_epoch():
                    win.get(buf, 0, 0)
                    recovery.retrying(win.flush_all)
                    return buf[0]
            """
        )
        assert diags == []

    def test_helper_needing_epoch_flagged_at_closed_call_site(self):
        diags = verify_snippet(
            """
            def fetch(win, buf):
                win.get(buf, 0, 0)
                win.flush_all()

            def f(mpi, spec, buf):
                win = spec.make_window(mpi.comm_world, local)
                fetch(win, buf)
            """
        )
        assert "ANL012" in rules_of(diags)

    def test_helper_opening_epoch_propagates_to_caller(self):
        diags = verify_snippet(
            """
            def acquire(win):
                win.lock_all()

            def f(mpi, spec):
                win = spec.make_window(mpi.comm_world, local)
                acquire(win)
                return 0
            """
        )
        # the helper's lock_all leaks through f's return
        assert "ANL009" in rules_of(diags)

    def test_unknown_callee_havocs_not_flags(self):
        diags = verify_snippet(
            """
            def f(mpi, spec, buf):
                win = spec.make_window(mpi.comm_world, local)
                mystery_setup(win)
                win.get(buf, 0, 0)
                win.flush_all()
            """
        )
        assert diags == []

    def test_nested_closure_over_window_not_flagged(self):
        # free-variable windows may be closed by the enclosing scope
        diags = verify_snippet(
            """
            def f(win, buf):
                def fetch(peer):
                    win.get(buf, peer, 0)
                    win.flush(peer)
                    return buf[0]
                with win.lock_all_epoch():
                    return fetch(1)
            """
        )
        assert diags == []


class TestFixtures:
    EXPECT = {
        "leak_exception.py": "ANL009",
        "read_before_flush.py": "ANL010",
        "origin_reuse.py": "ANL011",
        "op_outside_epoch.py": "ANL012",
    }

    def test_every_seeded_fixture_flags_its_rule(self):
        for name, rule in self.EXPECT.items():
            diags = run_verify([FIXTURES / name])
            assert rule in rules_of(diags), (
                f"{name}: expected {rule}, got {rules_of(diags)}"
            )

    def test_clean_fixture_has_zero_findings(self):
        assert run_verify([FIXTURES / "clean_app.py"]) == []

    def test_buggy_apps_dynamic_fixtures_cross_checked(self):
        # the dynamic sanitizer's fixture file: the static verifier must
        # catch the statically-visible bugs (leaked epoch, missing flush)
        # and stay silent on the race/stale programs (data-dependent,
        # dynamic-only)
        diags = run_verify([REPO / "tests" / "test_analysis_buggy_apps.py"])
        assert rules_of(diags) == ["ANL009", "ANL010"]


class TestTreeInvariant:
    def test_src_tree_verifies_clean(self):
        assert run_verify([SRC / "repro"]) == []

    def test_examples_verify_clean(self):
        assert run_verify([REPO / "examples"]) == []

    def test_recovery_helpers_false_positive_free(self):
        assert run_verify([SRC / "repro" / "recovery"]) == []
