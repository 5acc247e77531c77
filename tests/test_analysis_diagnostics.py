"""Tests for the shared diagnostics engine (repro.analysis.diagnostics).

Diagnostic records and fingerprints, the suppression index, the SARIF /
json / text emitters (SARIF checked structurally against the 2.1.0
shape), the fingerprint baseline, the generated docs rule table (drift
test), and the extended CLI plumbing.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.diagnostics import (
    RULES,
    SARIF_SCHEMA_URI,
    Baseline,
    Diagnostic,
    Related,
    SuppressionIndex,
    docs_in_sync,
    render,
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

    def test_fingerprint_tolerates_line_drift(self):
        a = diag(line=3)
        b = diag(line=40)
        c = diag(message="something else")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_dict_roundtrip(self):
        d = diag(related=(Related("b.py", 2, "note"),), fix="hint")
        assert Diagnostic.from_dict(d.to_dict()) == d

    def test_every_rule_has_url_and_docs_anchor(self):
        table = rules_markdown()
        for code, rule in RULES.items():
            assert rule.url.endswith(f"#{code.lower()}")
            assert f'<a id="{code.lower()}"></a>' in table


class TestSuppressionIndex:
    def test_line_and_file_allows_parsed(self):
        src = (
            "# analysis: allow-file(ANL003)\n"
            "x = 1  # analysis: allow(ANL001, ANL005)\n"
        )
        supp = SuppressionIndex("x.py", src)
        assert supp.line_allows == {2: {"ANL001", "ANL005"}}
        assert supp.file_allows == {"ANL003": 1}

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


class TestEmitters:
    def test_json_roundtrips(self):
        d = diag(related=(Related("b.py", 2, "note"),))
        data = json.loads(render([d], "json"))
        assert data[0]["rule"] == "ANL005"
        assert data[0]["related"][0]["line"] == 2
        assert data[0]["fingerprint"] == d.fingerprint()

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown format"):
            render([], "xml")

    def test_sarif_2_1_0_structure(self):
        d = diag(related=(Related("b.py", 2, "pending get issued here"),))
        log = json.loads(render([d], "sarif"))
        # required top-level shape per the 2.1.0 schema
        assert log["version"] == "2.1.0"
        assert log["$schema"] == SARIF_SCHEMA_URI
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.analysis"
        assert {r["id"] for r in driver["rules"]} == set(RULES)
        for r in driver["rules"]:
            assert r["shortDescription"]["text"]
            assert r["defaultConfiguration"]["level"] in ("error", "warning")
        (result,) = run["results"]
        assert result["ruleId"] == "ANL005"
        assert result["level"] == "error"
        assert result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "repro/x.py"
        assert loc["region"]["startLine"] == 3
        rel = result["relatedLocations"][0]
        assert rel["message"]["text"] == "pending get issued here"
        assert result["partialFingerprints"]["reproAnalysis/v1"]

    def test_sarif_results_reference_registered_rules_only(self):
        log = json.loads(render([diag()], "sarif"))
        run = log["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert all(r["ruleId"] in rule_ids for r in run["results"])


class TestBaseline:
    def test_roundtrip_and_filter(self, tmp_path):
        known = diag()
        fresh = diag(message="new finding")
        base = Baseline.from_diagnostics([known])
        path = tmp_path / "baseline.json"
        base.write(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 1
        assert loaded.filter([known, fresh]) == [fresh]

    def test_missing_file_is_empty(self, tmp_path):
        base = Baseline.load(tmp_path / "nope.json")
        assert len(base) == 0
        assert base.filter([diag()]) == [diag()]

    def test_version_mismatch_rejected(self, tmp_path):
        p = tmp_path / "baseline.json"
        p.write_text('{"version": 99, "fingerprints": {}}')
        with pytest.raises(ValueError, match="unsupported version"):
            Baseline.load(p)

    def test_checked_in_baseline_is_loadable_and_empty(self):
        base = Baseline.load(REPO / "analysis-baseline.json")
        assert len(base) == 0


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

    def test_verify_sarif_out_and_baseline_flow(self, tmp_path, capsys):
        from repro.analysis.__main__ import main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(mpi, spec):\n"
            "    win = spec.make_window(mpi.comm_world, local)\n"
            "    win.lock_all()\n"
            "    return 0\n"
        )
        sarif = tmp_path / "report.sarif"
        baseline = tmp_path / "baseline.json"

        # accept the current findings into a baseline
        assert main(["verify", str(bad), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        # with the baseline applied the run is clean, artifact still written
        assert main(["verify", str(bad), "--baseline", str(baseline),
                     "--format", "sarif", "--out", str(sarif)]) == 0
        capsys.readouterr()
        log = json.loads(sarif.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"] == []

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
