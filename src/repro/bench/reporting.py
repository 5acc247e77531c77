"""ASCII reporting for benchmark results.

Every figure-reproduction returns a :class:`FigureResult`; the pytest
benchmarks print it and EXPERIMENTS.md embeds it, so the numbers the repo
documents are exactly the numbers the harness produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.units import format_cell, format_table


@dataclass
class FigureResult:
    """The reproduction of one paper figure."""

    figure: str                    #: e.g. "Fig. 7"
    title: str
    headers: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: free-form checks of the paper's qualitative claims: (claim, holds)
    claims: list[tuple[str, bool]] = field(default_factory=list)

    def add_claim(self, claim: str, holds: bool) -> None:
        self.claims.append((claim, holds))

    @property
    def all_claims_hold(self) -> bool:
        return all(ok for _claim, ok in self.claims)

    def render(self) -> str:
        out = [f"== {self.figure}: {self.title} ==", ""]
        out.append(format_table(self.headers, self.rows))
        if self.notes:
            out.append("")
            out.extend(f"note: {n}" for n in self.notes)
        if self.claims:
            out.append("")
            for claim, ok in self.claims:
                out.append(f"[{'OK' if ok else 'MISMATCH'}] {claim}")
        return "\n".join(out)

    def chart(self, width: int = 64, height: int = 14) -> str:
        """Best-effort terminal chart of the table.

        Numeric first column → multi-series line chart (one series per
        numeric column, x log-scaled when it spans >= 2 decades);
        categorical first column → one bar chart per numeric column.
        """
        from repro.bench.ascii_chart import bar_chart, line_chart

        if not self.rows:
            return "(no data)"

        def _num(v):
            try:
                return float(v)
            except (TypeError, ValueError):
                return None

        first = [_num(r[0]) for r in self.rows]
        numeric_cols = [
            c
            for c in range(1, len(self.headers))
            if all(_num(r[c]) is not None for r in self.rows)
        ]
        if not numeric_cols:
            return "(nothing numeric to chart)"
        if all(v is not None for v in first):
            series = {
                self.headers[c]: [(_num(r[0]), _num(r[c])) for r in self.rows]
                for c in numeric_cols
            }
            xs = [v for v in first if v and v > 0]
            logx = bool(xs) and len(xs) == len(first) and max(xs) / min(xs) >= 100
            return line_chart(
                series,
                width=width,
                height=height,
                logx=logx,
                title=f"{self.figure}: {self.title}",
                xlabel=self.headers[0],
            )
        charts = []
        labels = [str(r[0]) for r in self.rows]
        for c in numeric_cols:
            charts.append(
                bar_chart(
                    labels,
                    [_num(r[c]) for r in self.rows],
                    width=width // 2,
                    title=f"{self.figure}: {self.headers[c]}",
                )
            )
        return "\n\n".join(charts)

    def to_json(self) -> str:
        """Machine-readable record of the reproduction (for archiving/CI)."""
        import json

        return json.dumps(
            {
                "figure": self.figure,
                "title": self.title,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
                "claims": [
                    {"claim": claim, "holds": ok} for claim, ok in self.claims
                ],
                "all_claims_hold": self.all_claims_hold,
            },
            indent=2,
            default=str,
        )

    def markdown(self) -> str:
        """GitHub-flavoured markdown rendering (for EXPERIMENTS.md)."""
        out = [f"### {self.figure}: {self.title}", ""]
        out.append("| " + " | ".join(self.headers) + " |")
        out.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            out.append("| " + " | ".join(format_cell(c) for c in row) + " |")
        if self.notes:
            out.append("")
            out.extend(f"- {n}" for n in self.notes)
        if self.claims:
            out.append("")
            for claim, ok in self.claims:
                out.append(f"- **{'HOLDS' if ok else 'MISMATCH'}**: {claim}")
        out.append("")
        return "\n".join(out)
