"""Tests for the static repo-invariant linter (repro.analysis.lint).

Each rule is exercised on a bad snippet written to a tmp tree shaped like
the real package layout (path-scoped rules key off ``repro/<pkg>/``), the
suppression comment is checked per-rule, and the real tree must lint
clean — that last test is the repo invariant itself.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, run_lint

SRC = Path(__file__).resolve().parent.parent / "src"


def lint_snippet(tmp_path, relpath, code):
    f = tmp_path / relpath
    f.parent.mkdir(parents=True, exist_ok=True)
    f.write_text(textwrap.dedent(code))
    return run_lint([tmp_path])


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestWallClock:
    def test_time_time_flagged_in_core(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            """
            import time
            def f():
                return time.time()
            """,
        )
        assert rules_of(findings) == ["ANL001"]
        assert findings[0].line == 4

    def test_monotonic_flagged_in_net(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/net/x.py",
            "import time\nt = time.monotonic()\n",
        )
        assert rules_of(findings) == ["ANL001"]

    def test_datetime_now_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/mpi/x.py",
            "import datetime\nd = datetime.datetime.now()\n",
        )
        assert rules_of(findings) == ["ANL001"]

    def test_wall_clock_allowed_outside_restricted_packages(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            "import time\nt = time.perf_counter()\n",
        )
        assert findings == []


class TestSeededRandom:
    def test_module_level_random_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/core/x.py", "import random\nx = random.random()\n"
        )
        assert rules_of(findings) == ["ANL002"]

    def test_seeded_random_instance_ok(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "import random\nrng = random.Random(42)\nx = rng.random()\n",
        )
        assert findings == []

    def test_unseeded_random_instance_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/core/x.py", "import random\nrng = random.Random()\n"
        )
        assert rules_of(findings) == ["ANL002"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/net/x.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert rules_of(findings) == ["ANL002"]

    def test_seeded_default_rng_ok(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/net/x.py",
            "import numpy as np\nrng = np.random.default_rng(7)\n",
        )
        assert findings == []

    def test_np_global_state_flagged_even_with_args(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "import numpy as np\nx = np.random.rand(3)\n",
        )
        assert rules_of(findings) == ["ANL002"]


class TestResilienceBypass:
    def test_internal_call_flagged_outside_mpi(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            "def f(win):\n    return win._put_once(0, 1, 2)\n",
        )
        assert rules_of(findings) == ["ANL003"]
        assert "_put_once" in findings[0].message

    def test_internal_call_allowed_inside_mpi(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/mpi/x.py",
            "def f(win):\n    return win._put_once(0, 1, 2)\n",
        )
        assert findings == []


class TestEventRegistry:
    def test_unregistered_literal_emission_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            "def f(bus):\n    bus._emit('rma.bogus', 0)\n",
        )
        assert rules_of(findings) == ["ANL004"]

    def test_unregistered_constant_name_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            "def f(bus):\n    bus._emit(RMA_BOGUS, 0)\n",
        )
        assert rules_of(findings) == ["ANL004"]

    def test_registered_constant_name_ok(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            "from repro.obs import RMA_GET\n"
            "def f(bus):\n    bus._emit(RMA_GET, 0)\n",
        )
        assert findings == []

    def test_raw_literal_of_registered_kind_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/apps/x.py", "KIND = 'rma.get'\n"
        )
        assert rules_of(findings) == ["ANL004"]
        assert "RMA_GET" in findings[0].message

    def test_docstrings_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/apps/x.py", '"""About rma.get events."""\n'
        )
        assert findings == []

    def test_events_module_consistency_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/obs/events.py",
            """
            ORPHAN = "x.orphan"
            ALL_KINDS = frozenset({})
            """,
        )
        assert rules_of(findings) == ["ANL004"]
        assert "ORPHAN" in findings[0].message


class TestMutableDefaults:
    def test_list_default_flagged_anywhere(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/bench/x.py", "def f(x=[]):\n    return x\n"
        )
        assert rules_of(findings) == ["ANL005"]

    def test_dict_call_default_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/bench/x.py", "def f(*, x=dict()):\n    return x\n"
        )
        assert rules_of(findings) == ["ANL005"]

    def test_none_default_ok(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "repro/bench/x.py", "def f(x=None, y=()):\n    return x, y\n"
        )
        assert findings == []


class TestPipelinePurity:
    def test_emit_in_op_method_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            """
            class Window:
                def get(self, origin, target):
                    self._emit("rma.get", target=target)
                    return 0
            """,
        )
        assert "ANL006" in rules_of(findings)

    def test_fault_and_cost_access_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            """
            class CachedWindow:
                def get_batch(self, requests):
                    self.cost.lookup()
                    if self._faults:
                        pass
            """,
        )
        assert rules_of(findings) == ["ANL006"]
        assert len(findings) == 2

    def test_helper_methods_and_other_classes_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            """
            class Window:
                def _serve_miss(self, req):
                    self._emit("rma.get")

            class TracingWindow:
                def get(self, origin):
                    self._emit("rma.get")
            """,
        )
        assert findings == []

    def test_describe_and_issue_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            """
            class Window:
                def get(self, origin, target):
                    desc = describe_get(self, origin, target)
                    return self._data_pipe.issue(desc).result
            """,
        )
        assert findings == []


class TestPolicyPurity:
    def test_wall_clock_in_policy_class_flagged_anywhere(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/custom.py",
            """
            import time
            class HotPolicy(CachePolicy):
                def victim_score(self, entry, ctx):
                    return time.time()
            """,
        )
        assert rules_of(findings) == ["ANL007"]
        assert "HotPolicy" in findings[0].message

    def test_global_rng_in_policy_class_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/custom.py",
            """
            import random
            class RandomPolicy(CachePolicy):
                def victim_score(self, entry, ctx):
                    return random.random()
            """,
        )
        assert rules_of(findings) == ["ANL007"]

    def test_seeded_rng_in_policy_class_ok(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/custom.py",
            """
            import random
            class SampledPolicy(CachePolicy):
                def bind(self, capacity, seed):
                    self._rng = random.Random(seed)
            """,
        )
        assert findings == []

    def test_non_policy_class_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/custom.py",
            """
            import time
            class Helper:
                def now(self):
                    return time.time()
            """,
        )
        assert findings == []

    def test_restricted_packages_not_double_reported(self, tmp_path):
        # inside repro/core ANL001 already bans this; ANL007 must not
        # report the same line a second time
        findings = lint_snippet(
            tmp_path,
            "repro/core/custom.py",
            """
            import time
            class HotPolicy(CachePolicy):
                def victim_score(self, entry, ctx):
                    return time.time()
            """,
        )
        assert rules_of(findings) == ["ANL001"]


class TestSuppression:
    def test_allow_comment_suppresses_matching_rule(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "import time\nt = time.time()  # analysis: allow(ANL001)\n",
        )
        assert findings == []

    def test_allow_comment_is_rule_specific(self, tmp_path):
        # the ANL005 allow does not silence ANL001 — and, being stale,
        # it is itself reported (ANL013)
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "import time\nt = time.time()  # analysis: allow(ANL005)\n",
        )
        assert rules_of(findings) == ["ANL001", "ANL013"]

    def test_allow_comment_takes_a_rule_list(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "import time, random\n"
            "t = time.time() + random.random()"
            "  # analysis: allow(ANL001, ANL002)\n",
        )
        assert findings == []

    def test_file_level_allow_suppresses_whole_file(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "# analysis: allow-file(ANL001)\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.monotonic()\n",
        )
        assert findings == []

    def test_unused_suppression_warned(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "x = 1  # analysis: allow(ANL005)\n",
        )
        assert rules_of(findings) == ["ANL013"]
        assert findings[0].severity == "warning"
        assert "ANL005" in findings[0].message

    def test_unused_suppression_not_warned_out_of_rule_scope(self, tmp_path):
        # ANL001 is never evaluated outside repro/{core,mpi,net}; an allow
        # there is not "stale", the rule just does not patrol that path
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            "import time\nt = time.time()  # analysis: allow(ANL001)\n",
        )
        assert findings == []




class TestRevocationHandlers:
    BAD = """
    try:
        pass
    except RankRevokedError:
        pass
    """

    def test_flagged_outside_recovery(self, tmp_path):
        findings = lint_snippet(tmp_path, "repro/apps/x.py", self.BAD)
        assert rules_of(findings) == ["ANL008"]
        assert "repro.recovery" in findings[0].message

    def test_attribute_and_tuple_forms_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            """
            try:
                pass
            except (ValueError, errors.RankRevokedError):
                pass
            """,
        )
        assert rules_of(findings) == ["ANL008"]

    def test_recovery_package_exempt(self, tmp_path):
        assert lint_snippet(tmp_path, "repro/recovery/x.py", self.BAD) == []

    def test_suppression_comment(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            """
            try:
                pass
            except RankRevokedError:  # analysis: allow(ANL008)
                pass
            """,
        )
        assert findings == []

    def test_other_exceptions_unflagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/apps/x.py",
            """
            try:
                pass
            except ValueError:
                pass
            except Exception:
                pass
            """,
        )
        assert findings == []


class TestGatedEventConstruction:
    FIXTURE = Path(__file__).resolve().parent / "fixtures" / "buggy_lint"

    def test_raw_event_flagged_in_hot_path_packages(self, tmp_path):
        for pkg in ("core", "mpi", "runtime"):
            findings = lint_snippet(
                tmp_path,
                f"repro/{pkg}/x.py",
                """
                from repro.obs import RMA_GET, Event
                def issue(bus, rank, clock):
                    bus.emit(Event(RMA_GET, rank, clock))
                """,
            )
            assert rules_of(findings) == ["ANL014"], pkg
            (tmp_path / "repro" / pkg / "x.py").unlink()

    def test_emit_helper_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/mpi/x.py",
            """
            from repro.obs import RMA_GET, Event
            class W:
                def _emit(self, kind, rank, clock):
                    if not self.obs.wants(kind):
                        return
                    self.obs.emit(Event(kind, rank, clock))
                def _emit_access(self, rank, clock):
                    self.obs.emit(Event(RMA_GET, rank, clock))
            """,
        )
        assert findings == []

    def test_nested_function_inside_helper_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/mpi/x.py",
            """
            from repro.obs import RMA_GET, Event
            def _emit_batch(bus, ops):
                def build(op):
                    return Event(RMA_GET, op.rank, op.clock)
                for op in ops:
                    bus.emit(build(op))
            """,
        )
        assert findings == []

    def test_helper_nested_in_op_function_counts(self, tmp_path):
        # the gate is lexical: a _emit* closure defined inside an op body
        # is still a gated helper; the op body itself is not
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            """
            from repro.obs import RMA_GET, Event
            def serve(bus, rank, clock):
                def _emit_hit():
                    bus.emit(Event(RMA_GET, rank, clock))
                _emit_hit()
                return Event(RMA_GET, rank, clock)
            """,
        )
        assert rules_of(findings) == ["ANL014"]
        assert len(findings) == 1

    def test_attribute_spellings_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/runtime/x.py",
            """
            from repro import obs
            def tick(bus, rank, clock):
                bus.emit(obs.Event("sched.switch", rank, clock))
            """,
        )
        assert "ANL014" in rules_of(findings)

    def test_threading_event_unflagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/runtime/x.py",
            "import threading\ndone = threading.Event()\n",
        )
        assert findings == []

    def test_cold_packages_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/bench/x.py",
            """
            from repro.obs import RMA_GET, Event
            def replay(bus, rank, clock):
                bus.emit(Event(RMA_GET, rank, clock))
            """,
        )
        assert findings == []

    def test_suppression_comment(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/mpi/x.py",
            """
            from repro.obs import RMA_GET, Event
            def issue(bus, rank, clock):
                bus.emit(Event(RMA_GET, rank, clock))  # analysis: allow(ANL014)
            """,
        )
        assert findings == []

    def test_seeded_fixture_still_flagged(self):
        findings = run_lint([self.FIXTURE])
        assert "ANL014" in rules_of(findings)


class TestWalker:
    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        bad = "def f(x=[]):\n    return x\n"
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "ok.py").write_text("x = 1\n")
        for skipped in ("__pycache__", ".hidden", ".git"):
            d = tmp_path / "repro" / skipped
            d.mkdir()
            (d / "bad.py").write_text(bad)
        assert run_lint([tmp_path]) == []

    def test_unparseable_file_reported_not_raised(self, tmp_path):
        f = tmp_path / "repro" / "broken.py"
        f.parent.mkdir(parents=True)
        f.write_text("def f(:\n")
        findings = run_lint([tmp_path])
        assert rules_of(findings) == ["ANL000"]
        assert findings[0].path == str(f)
        assert "does not parse" in findings[0].message

    def test_undecodable_file_reported_not_raised(self, tmp_path):
        f = tmp_path / "repro" / "binary.py"
        f.parent.mkdir(parents=True)
        f.write_bytes(b"\xff\xfe\x00bad\x80")
        findings = run_lint([tmp_path])
        assert rules_of(findings) == ["ANL000"]


class TestDriver:
    def test_every_rule_has_a_description(self):
        assert set(RULES) == {f"ANL{n:03d}" for n in range(15)}

    def test_findings_sorted_and_rendered(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "repro/core/x.py",
            "import time\ndef f(x={}):\n    return time.time()\n",
        )
        assert [f.rule for f in findings] == ["ANL005", "ANL001"]  # line order
        assert findings[0].render().endswith(findings[0].message)
        assert ":2: ANL005" in findings[0].render()

    def test_real_tree_lints_clean(self):
        assert run_lint([SRC]) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        (tmp_path / "bad.py").write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "ANL005" in capsys.readouterr().out
        assert main(["lint", str(SRC)]) == 0
