"""Tests for the benchmark CLI entry point."""

import json

import pytest

from repro.bench.__main__ import main


class TestBenchCLI:
    def test_single_figure_renders_table(self, capsys):
        rc = main(["fig01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Fig. 1" in out
        assert "[OK]" in out

    def test_markdown_mode(self, capsys):
        rc = main(["fig01", "--markdown"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "### Fig. 1" in out
        assert "**HOLDS**" in out

    def test_chart_mode(self, capsys):
        rc = main(["fig01", "--chart"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "x: size" in out

    def test_ablation_by_id(self, capsys):
        rc = main(["a4_allocator_fit"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Ablation A4" in out

    def test_reports_wall_and_virtual_time(self, capsys):
        rc = main(["fig01"])
        err = capsys.readouterr().err
        assert rc == 0
        assert "wall time" in err
        assert "virtual time" in err
        assert "simulated" in err

    def test_unknown_id_errors(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_policy_matrix_is_an_ordinary_ablation(self):
        # membership only: a default-parameter run takes most of a minute
        # and belongs to benchmarks/test_figures.py
        from repro.bench.__main__ import _ALL
        from repro.bench.ablations import ALL_ABLATIONS

        assert "a6_policy_matrix" in ALL_ABLATIONS
        assert "a6_policy_matrix" in _ALL

    @pytest.mark.parametrize("retired", ["perfsmoke", "profile", "policies"])
    def test_retired_subcommands_are_unknown_figures(self, retired, capsys):
        with pytest.raises(SystemExit) as exc:
            main([retired])
        assert exc.value.code == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_json_artifact_content(self, tmp_path, capsys):
        rc = main(["fig01", "--json-dir", str(tmp_path), "--markdown"])
        capsys.readouterr()
        assert rc == 0
        data = json.loads((tmp_path / "fig01.json").read_text())
        assert data["figure"] == "Fig. 1"
        assert len(data["rows"]) >= 5
