"""Shared diagnostics engine for the static analyses.

Every static check in :mod:`repro.analysis` — the repo-invariant linter
(:mod:`repro.analysis.lint`, ANL001–ANL008) and the epoch/flush typestate
verifier (:mod:`repro.analysis.typestate`, ANL009–ANL012) — reports
through this module:

* :class:`Diagnostic` — one finding: rule, severity, primary span,
  related spans (e.g. "epoch opened here" for a leak reported at the
  function exit), and an optional fix-it hint;
* :data:`RULES` — the single rule registry (id, name, scope, severity,
  one-line invariant, fix hint, docs URL).  ``docs/analysis.md``'s rule
  table is *generated* from it (:func:`rules_markdown`,
  ``python -m repro.analysis rules --write-docs``) so the two can never
  drift;
* :func:`render_text` — the one report format the CLI prints;
* suppressions — ``# analysis: allow(ANL001)`` on the offending line,
  ``# analysis: allow-file(ANL001)`` anywhere for the whole file, both
  accepting comma-separated rule lists; an allow that suppresses nothing
  a rule could have reported is itself flagged (ANL013) so stale allows
  get cleaned up.

The walker (:func:`collect_files`) skips ``__pycache__`` and hidden
directories, and unparseable files surface as an ``ANL000`` diagnostic
instead of a traceback.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

SEV_ERROR = "error"
SEV_WARNING = "warning"


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Rule:
    """One registered analysis rule."""

    code: str          #: ``ANLxxx`` id
    name: str          #: short kebab-case name (stable)
    scope: str         #: where the rule applies, for the docs table
    severity: str      #: :data:`SEV_ERROR` or :data:`SEV_WARNING`
    summary: str       #: one-line invariant, shown in docs and reports
    fix: str = ""      #: generic fix-it hint

    def __str__(self) -> str:  # keeps ``f"{RULES[code]}"`` call sites working
        return self.summary


def _rule(code: str, name: str, scope: str, severity: str, summary: str,
          fix: str = "") -> tuple[str, Rule]:
    return code, Rule(code, name, scope, severity, summary, fix)


#: The single source of truth for every ANL rule.  ``docs/analysis.md``'s
#: table is generated from this mapping; ``tests/test_analysis_diagnostics``
#: asserts they never drift.
RULES: dict[str, Rule] = dict(
    (
        _rule(
            "ANL000", "parse-error", "everywhere", SEV_ERROR,
            "source file must parse; unparseable files are reported, not skipped",
            "fix the syntax error (the message carries the parser detail)",
        ),
        _rule(
            "ANL001", "no-wall-clock", "repro.core/mpi/net", SEV_ERROR,
            "no wall-clock time sources in repro.core/mpi/net",
            "charge the simulated clock instead of time.time()/monotonic()",
        ),
        _rule(
            "ANL002", "seeded-random", "repro.core/mpi/net", SEV_ERROR,
            "RNGs in repro.core/mpi/net must be explicitly seeded",
            "use random.Random(seed) / np.random.default_rng(seed)",
        ),
        _rule(
            "ANL004", "registered-event-names", "everywhere", SEV_ERROR,
            "obs event kinds must be registered constants",
            "add the constant to repro.obs.events and list it in ALL_KINDS",
        ),
        _rule(
            "ANL005", "no-mutable-default", "everywhere", SEV_ERROR,
            "no mutable default arguments",
            "default to None and build the container inside the function",
        ),
        _rule(
            "ANL006", "pipeline-purity", "everywhere", SEV_ERROR,
            "Window/CachedWindow op methods must not inline pipeline concerns",
            "move the concern into its repro.mpi.ops handler or CachedWindow.get",
        ),
        _rule(
            "ANL007", "deterministic-policies", "everywhere", SEV_ERROR,
            "cache policy classes must not use wall clock or global RNG state",
            "use ctx.seq_index / entry.last and the seed handed to bind()",
        ),
        _rule(
            "ANL008", "recovery-owns-revocation", "outside repro.recovery",
            SEV_ERROR,
            "RankRevokedError may only be caught inside repro.recovery",
            "use recovery.retrying/completed/barrier instead of a bare except",
        ),
        _rule(
            "ANL009", "epoch-leak", "typestate verify", SEV_ERROR,
            "an opened epoch must be provably closed on every path, "
            "including exception edges",
            "close the epoch in a finally: or use the scoped "
            "lock_epoch()/lock_all_epoch() context managers",
        ),
        _rule(
            "ANL010", "read-before-flush", "typestate verify", SEV_ERROR,
            "a get's result buffer is undefined until a dominating "
            "flush/flush_all or epoch close",
            "flush the window (or close the epoch) before touching the buffer",
        ),
        _rule(
            "ANL011", "origin-reuse-before-flush", "typestate verify",
            SEV_ERROR,
            "a put/accumulate origin buffer must not be modified until a "
            "dominating flush or epoch close",
            "flush the window before rewriting the origin buffer",
        ),
        _rule(
            "ANL012", "op-outside-epoch", "typestate verify", SEV_ERROR,
            "RMA ops and flushes are only callable where an epoch that "
            "allows them is provably open on every path",
            "open a lock/lock_all/fence_epoch/start epoch that allows the "
            "call on every path reaching it",
        ),
        _rule(
            "ANL013", "unused-suppression", "everywhere", SEV_WARNING,
            "an # analysis: allow(...) that suppresses nothing is stale and "
            "must be removed",
            "delete the allow comment (the finding it silenced is gone)",
        ),
        _rule(
            "ANL014", "gated-event-construction", "repro.core/mpi/runtime",
            SEV_ERROR,
            "hot-path modules may only construct Event() inside a kind-gated "
            "_emit* helper",
            "wrap the emission in an _emit* helper that checks bus.wants(kind) "
            "before building the Event",
        ),
    )
)

#: Rules produced by the repo-invariant linter pass.
LINT_RULES = frozenset(
    {"ANL001", "ANL002", "ANL004", "ANL005", "ANL006", "ANL007",
     "ANL008", "ANL014"}
)
#: Rules produced by the flow-sensitive typestate verifier pass.
VERIFY_RULES = frozenset({"ANL009", "ANL010", "ANL011", "ANL012"})


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Related:
    """A secondary location attached to a diagnostic."""

    path: str
    line: int
    message: str


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding; :meth:`render` is its one-line
    ``path:line: RULE message`` form."""

    path: str
    line: int
    rule: str
    message: str
    related: tuple[Related, ...] = ()
    fix: str = ""
    col: int = 0

    @property
    def severity(self) -> str:
        rule = RULES.get(self.rule)
        return rule.severity if rule else SEV_ERROR

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def render_full(self) -> str:
        """Multi-line rendering: primary, related spans, fix hint."""
        lines = [f"{self.path}:{self.line}: {self.severity}: "
                 f"{self.rule} {self.message}"]
        lines.extend(
            f"    {r.path}:{r.line}: note: {r.message}" for r in self.related
        )
        if self.fix:
            lines.append(f"    fix: {self.fix}")
        return "\n".join(lines)


def sort_diagnostics(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=lambda d: (d.path, d.line, d.rule, d.message))


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
_ALLOW_RE = re.compile(
    r"#\s*analysis:\s*(allow(?:-file)?)\(\s*(ANL\d{3}(?:\s*,\s*ANL\d{3})*)\s*\)"
)


class SuppressionIndex:
    """Line- and file-level ``# analysis: allow(...)`` comments of one file.

    ``filter`` drops suppressed diagnostics and records which allows fired;
    ``unused`` then reports every allow that silenced nothing *although its
    rule was actually evaluated for this file* (an ``allow(ANL001)`` in a
    package ANL001 does not patrol is not "unused", it is unreachable —
    neither fires nor warns).
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        #: line -> rule codes allowed on that line
        self.line_allows: dict[int, set[str]] = {}
        #: rule code -> line of the file-level allow
        self.file_allows: dict[str, int] = {}
        self._used_lines: set[tuple[int, str]] = set()
        self._used_file: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            for kind, codes in _ALLOW_RE.findall(text):
                for code in (c.strip() for c in codes.split(",")):
                    if kind == "allow-file":
                        self.file_allows.setdefault(code, lineno)
                    else:
                        self.line_allows.setdefault(lineno, set()).add(code)

    def suppresses(self, diag: Diagnostic) -> bool:
        if diag.rule in self.line_allows.get(diag.line, ()):
            self._used_lines.add((diag.line, diag.rule))
            return True
        if diag.rule in self.file_allows:
            self._used_file.add(diag.rule)
            return True
        return False

    def filter(self, diags: Iterable[Diagnostic]) -> list[Diagnostic]:
        return [d for d in diags if not self.suppresses(d)]

    def unused(self, evaluated_rules: Iterable[str]) -> list[Diagnostic]:
        """ANL013 diagnostics for allows that fired on nothing."""
        evaluated = set(evaluated_rules)
        out: list[Diagnostic] = []
        for line, codes in sorted(self.line_allows.items()):
            for code in sorted(codes):
                if code in evaluated and (line, code) not in self._used_lines:
                    out.append(
                        Diagnostic(
                            self.path, line, "ANL013",
                            f"allow({code}) suppresses nothing on this line; "
                            "remove the stale suppression",
                            fix=RULES["ANL013"].fix,
                        )
                    )
        for code, line in sorted(self.file_allows.items()):
            if code in evaluated and code not in self._used_file:
                out.append(
                    Diagnostic(
                        self.path, line, "ANL013",
                        f"allow-file({code}) suppresses nothing in this file; "
                        "remove the stale suppression",
                        fix=RULES["ANL013"].fix,
                    )
                )
        return out


# ---------------------------------------------------------------------------
# file walking and parsing
# ---------------------------------------------------------------------------
def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, skipping caches and hidden dirs."""

    def wanted(f: Path) -> bool:
        return not any(
            part == "__pycache__" or part.startswith(".") for part in f.parts
        )

    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(f for f in sorted(path.rglob("*.py")) if wanted(f))
        else:
            files.append(path)
    return files


def parse_file(path: Path) -> tuple[ast.Module | None, str, list[Diagnostic]]:
    """``(tree, source, diagnostics)`` — parse failures become ANL000."""
    try:
        src = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, "", [
            Diagnostic(str(path), 1, "ANL000", f"cannot read file: {exc}")
        ]
    try:
        return ast.parse(src, filename=str(path)), src, []
    except SyntaxError as exc:
        line = exc.lineno or 1
        detail = exc.msg or "invalid syntax"
        return None, src, [
            Diagnostic(
                str(path), line, "ANL000",
                f"file does not parse: {detail}",
                fix=RULES["ANL000"].fix,
            )
        ]


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------
def render_text(diags: Iterable[Diagnostic]) -> str:
    return "\n".join(d.render_full() for d in diags)


# ---------------------------------------------------------------------------
# docs generation
# ---------------------------------------------------------------------------
RULES_BEGIN = "<!-- rules:begin -->"
RULES_END = "<!-- rules:end -->"


def rules_markdown() -> str:
    """The docs rule table, generated from :data:`RULES`."""
    lines = [
        "| rule | name | scope | severity | invariant |",
        "|------|------|-------|----------|-----------|",
    ]
    for code in sorted(RULES):
        r = RULES[code]
        anchor = f'<a id="{code.lower()}"></a>{code}'
        lines.append(
            f"| {anchor} | `{r.name}` | {r.scope} | {r.severity} "
            f"| {r.summary} |"
        )
    return "\n".join(lines)


def docs_rules_block() -> str:
    return (
        f"{RULES_BEGIN}\n"
        "<!-- generated from repro.analysis.diagnostics.RULES by "
        "`python -m repro.analysis rules --write-docs`; do not edit -->\n"
        f"{rules_markdown()}\n{RULES_END}"
    )


def update_docs(doc_path: str | Path) -> bool:
    """Rewrite the generated rule table in ``doc_path``; True if changed."""
    p = Path(doc_path)
    text = p.read_text(encoding="utf-8")
    begin = text.find(RULES_BEGIN)
    end = text.find(RULES_END)
    if begin < 0 or end < 0:
        raise ValueError(
            f"{p} has no {RULES_BEGIN}/{RULES_END} markers to generate into"
        )
    new = text[:begin] + docs_rules_block() + text[end + len(RULES_END):]
    if new == text:
        return False
    p.write_text(new, encoding="utf-8")
    return True


def docs_in_sync(doc_path: str | Path) -> bool:
    text = Path(doc_path).read_text(encoding="utf-8")
    return docs_rules_block() in text
