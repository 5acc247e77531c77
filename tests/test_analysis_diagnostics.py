"""Tests for the shared diagnostics engine (repro.analysis.diagnostics).

Diagnostic records, the suppression index, the generated docs rule table
(drift test), and the CLI plumbing.
"""

from pathlib import Path

import pytest

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    Related,
    SuppressionIndex,
    docs_in_sync,
    rules_markdown,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def diag(path="repro/x.py", line=3, rule="ANL005", message="mutable default",
         **kw):
    return Diagnostic(path, line, rule, message, **kw)


class TestDiagnostic:
    def test_positional_construction_and_render_compatible(self):
        d = Diagnostic("a.py", 7, "ANL001", "wall clock")
        assert d.render() == "a.py:7: ANL001 wall clock"

    def test_severity_comes_from_registry(self):
        assert diag(rule="ANL001").severity == "error"
        assert diag(rule="ANL013").severity == "warning"

    def test_render_full_includes_related_and_fix(self):
        d = diag(
            related=(Related("a.py", 1, "epoch opened here"),),
            fix="close it",
        )
        full = d.render_full()
        assert "a.py:1: note: epoch opened here" in full
        assert "fix: close it" in full

    def test_every_rule_has_url_and_docs_anchor(self):
        # docs/analysis.md#anlxxx resolves for every registered rule
        table = rules_markdown()
        for code in RULES:
            assert f'<a id="{code.lower()}"></a>' in table


class TestSuppressionIndex:
    def test_line_and_file_allows_parsed(self):
        src = (
            "# analysis: allow-file(ANL007)\n"
            "x = 1  # analysis: allow(ANL001, ANL005)\n"
        )
        supp = SuppressionIndex("x.py", src)
        assert supp.line_allows == {2: {"ANL001", "ANL005"}}
        assert supp.file_allows == {"ANL007": 1}

    def test_unused_scoped_to_evaluated_rules(self):
        supp = SuppressionIndex("x.py", "x = 1  # analysis: allow(ANL001)\n")
        supp.filter([])
        assert supp.unused({"ANL005"}) == []          # ANL001 never ran
        warned = supp.unused({"ANL001"})
        assert [w.rule for w in warned] == ["ANL013"]

    def test_used_allow_not_warned(self):
        supp = SuppressionIndex("x.py", "x = 1  # analysis: allow(ANL005)\n")
        kept = supp.filter([diag(path="x.py", line=1)])
        assert kept == []
        assert supp.unused({"ANL005"}) == []


class TestDocsSync:
    def test_docs_rule_table_in_sync_with_registry(self):
        # regenerate with `python -m repro.analysis rules --write-docs`
        assert docs_in_sync(REPO / "docs" / "analysis.md")


class TestCLI:
    def test_verify_exit_codes(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(mpi, spec):\n"
            "    win = spec.make_window(mpi.comm_world, local)\n"
            "    win.lock_all()\n"
            "    return 0\n"
        )
        assert main(["verify", str(tmp_path)]) == 1
        assert "ANL009" in capsys.readouterr().out
        assert main(["verify", str(SRC / "repro")]) == 0

    @pytest.mark.parametrize("flag", ["--format", "--out", "--baseline"])
    def test_static_commands_take_only_paths(self, flag, capsys):
        from repro.analysis.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["verify", str(SRC / "repro"), flag, "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rules_check_passes_on_synced_docs(self, capsys, monkeypatch):
        from repro.analysis.__main__ import main

        monkeypatch.chdir(REPO)
        assert main(["rules", "--check"]) == 0
        capsys.readouterr()

    def test_warning_only_findings_do_not_fail(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        f = tmp_path / "repro" / "core" / "x.py"
        f.parent.mkdir(parents=True)
        f.write_text("x = 1  # analysis: allow(ANL005)\n")
        assert main(["lint", str(tmp_path)]) == 0  # ANL013 is a warning
        assert "ANL013" in capsys.readouterr().out
