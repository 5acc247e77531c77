"""Static repo-invariant linter (``python -m repro.analysis lint src/``).

AST-based checks for the project rules the deterministic simulator and the
telemetry pipeline depend on.  These are *repo* invariants, not style: each
rule guards a property some subsystem assumes (reproducibility of virtual
time, purity of the RMA op path, integrity of the event taxonomy).

Rules
-----
``ANL001`` **no-wall-clock** — ``time.time``/``monotonic``/``perf_counter``
    /``process_time`` and ``datetime.now``-style calls are banned inside
    ``repro.core``, ``repro.mpi`` and ``repro.net``: results there must be
    functions of the *virtual* clock only, or runs stop being replayable.
``ANL002`` **seeded-random** — in the same packages every RNG must be
    seeded explicitly (``random.Random(seed)``, ``default_rng(seed)``);
    module-level ``random.*``/``np.random.*`` global-state draws are banned.
``ANL004`` **registered-event-names** — every obs event kind must be a
    registered constant: emissions may not use unregistered literals or
    names, raw literals that *are* registered must use the constant, and
    every constant in ``repro.obs.events`` must be in ``ALL_KINDS``.
``ANL005`` **no-mutable-default** — mutable default arguments
    (``[]``/``{}``/``set()`` and friends) anywhere in the tree.
``ANL006`` **pipeline-purity** — the RMA op entry points of
    :class:`repro.mpi.window.Window` and
    :class:`repro.core.window.CachedWindow` (``get``/``put``/``flush``/…)
    must describe + issue through the :mod:`repro.mpi.ops` handlers only: no
    inlined cost, fault, retry or telemetry logic (``self.cost``,
    ``self._faults``, ``self._emit`` and friends) in their bodies.  Each
    cross-cutting concern lives once: in a :mod:`repro.mpi.ops` handler, or —
    for the cached get — in the adapter's ``CachedWindow._serve``.
``ANL007`` **deterministic-policies** — cache policy implementations
    (classes with a base ending in ``Policy``, i.e. anything pluggable
    into the :mod:`repro.core.policy` registry) must not read wall-clock
    time or draw from global RNG state — *in any package*, since
    user-registered policies can live anywhere yet still decide victim
    scores on the virtual-time-critical path.  Use ``ctx.seq_index`` /
    ``entry.last`` for recency and the seed handed to ``bind()`` for
    randomness.
``ANL014`` **gated-event-construction** — inside the hot-path packages
    (``repro.core``, ``repro.mpi``, ``repro.runtime``)
    telemetry :class:`~repro.obs.Event` objects may only be constructed
    inside a ``_emit*`` helper, the convention for call sites that check
    ``bus.wants(kind)`` first.  A raw ``Event(...)`` on an op path
    allocates even when no sink consumes the kind, which is exactly the
    per-op overhead the kind-gated telemetry discipline removes.
``ANL008`` **recovery-owns-revocation** — ``except`` clauses naming
    ``RankRevokedError`` are banned outside :mod:`repro.recovery`: the
    revocation exception marks a *permanent* crash, and ad-hoc handlers
    tend to swallow it once and deadlock at the next collective.  Use the
    loop-until-stable helpers (``recovery.retrying``, ``.completed``,
    ``.barrier``, ``.shrink``) instead, which re-observe the failure set
    on every retry.

A finding on a given line is suppressed by an ``# analysis: allow(ANLxxx)``
comment on that line; a whole file opts out of a rule with
``# analysis: allow-file(ANLxxx)``.  Stale suppressions are themselves
reported (ANL013).  ``docs/analysis.md`` documents how to add a rule.

The rule registry, the :class:`Diagnostic` record, suppression parsing,
file walking and the text emitter all live in
:mod:`repro.analysis.diagnostics`; this module contributes the check
functions and the lint driver.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.diagnostics import (
    LINT_RULES,
    RULES,
    Diagnostic,
    SuppressionIndex,
    collect_files,
    parse_file,
    sort_diagnostics,
)

__all__ = ["lint_file", "run_lint"]

#: Packages in which ANL001/ANL002 apply (virtual-time-critical hot paths).
RESTRICTED_PACKAGES = ("core", "mpi", "net")

#: Packages in which ANL014 applies: the RMA data plane, where per-op
#: Event construction must stay behind a kind-gated ``_emit*`` helper.
HOT_PATH_PACKAGES = ("core", "mpi", "runtime")

#: RMA op entry points whose bodies must stay pipeline-only (ANL006).
PIPELINE_OP_METHODS = frozenset(
    {
        "get",
        "put",
        "accumulate",
        "rget",
        "rput",
        "get_batch",
        "get_blocking",
        "flush",
        "flush_all",
        "unlock",
        "unlock_all",
        "fence",
        "lock",
        "lock_all",
        "complete",
    }
)

#: Cross-cutting concern attributes owned by the op handlers (ANL006):
#: accessing them from an op method re-inlines a concern a repro.mpi.ops
#: handler already owns.
PIPELINE_CONCERNS = frozenset(
    {
        "_emit",
        "_obs",
        "obs",
        "_faults",
        "_retry",
        "cost",
        "_sync_fault_counters",
        "_maybe_adapt",
    }
)

#: Classes whose op methods ANL006 applies to.
_PIPELINE_CLASSES = frozenset({"Window", "CachedWindow"})

_WALL_CLOCK_TIME_FNS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time"}
)
_WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})


# ---------------------------------------------------------------------------
# event-kind registry
# ---------------------------------------------------------------------------
def _parse_registry(events_src: str) -> tuple[dict[str, str], set[str]]:
    """``{CONSTANT: value}`` and the ALL_KINDS member names from events.py."""
    tree = ast.parse(events_src)
    constants: dict[str, str] = {}
    all_kind_names: set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if (
            target.id.isupper()
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            and "." in node.value.value
        ):
            constants[target.id] = node.value.value
        if target.id == "ALL_KINDS":
            for inner in ast.walk(node.value):
                if isinstance(inner, ast.Name) and inner.id.isupper():
                    all_kind_names.add(inner.id)
    return constants, all_kind_names


def _load_registry(
    files: Iterable[Path],
) -> tuple[dict[str, str], list[Diagnostic]]:
    """Event-kind registry plus registration-consistency findings.

    Prefers the ``obs/events.py`` inside the linted tree (so the lint run
    checks exactly what it sees); falls back to importing
    :mod:`repro.obs.events` when linting a subset that excludes it.
    """
    events_file = next(
        (f for f in files if f.as_posix().endswith("obs/events.py")), None
    )
    findings: list[Diagnostic] = []
    if events_file is not None:
        constants, registered = _parse_registry(events_file.read_text())
        for name in sorted(set(constants) - registered):
            findings.append(
                Diagnostic(
                    str(events_file),
                    1,
                    "ANL004",
                    f"event constant {name} = {constants[name]!r} is not "
                    "registered in ALL_KINDS",
                )
            )
        for name in sorted(registered - set(constants)):
            findings.append(
                Diagnostic(
                    str(events_file),
                    1,
                    "ANL004",
                    f"ALL_KINDS member {name} has no string constant",
                )
            )
        return constants, findings
    try:
        from repro.obs import events as ev
    except ImportError:
        return {}, findings
    constants = {
        n: v
        for n, v in vars(ev).items()
        if n.isupper() and isinstance(v, str) and "." in v
    }
    constants.pop("ALL_KINDS", None)
    return constants, findings


# ---------------------------------------------------------------------------
# per-file checks
# ---------------------------------------------------------------------------
def _docstring_nodes(tree: ast.Module) -> set[int]:
    """ids of Constant nodes that are docstrings (exempt from ANL004)."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.add(id(body[0].value))
    return out


def _is_restricted(posix_path: str) -> bool:
    return any(f"repro/{pkg}/" in posix_path for pkg in RESTRICTED_PACKAGES)


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of an attribute chain ('np.random.rand')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _check_wall_clock(tree: ast.Module) -> Iterator[tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        head, _, fn = dotted.rpartition(".")
        if head == "time" and fn in _WALL_CLOCK_TIME_FNS:
            yield node.lineno, "ANL001", (
                f"wall-clock call {dotted}() in a virtual-time package; "
                "charge the simulated clock instead"
            )
        elif fn in _WALL_CLOCK_DATETIME_FNS and head.split(".")[0] == "datetime":
            yield node.lineno, "ANL001", (
                f"wall-clock call {dotted}() in a virtual-time package"
            )


def _check_seeded_random(tree: ast.Module) -> Iterator[tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        seeded = bool(node.args or node.keywords)
        if dotted.startswith("random."):
            fn = dotted[len("random."):]
            if fn == "Random":
                if not seeded:
                    yield node.lineno, "ANL002", (
                        "random.Random() without a seed; determinism requires "
                        "an explicit seed"
                    )
            elif "." not in fn:
                yield node.lineno, "ANL002", (
                    f"global-state RNG call {dotted}(); use a seeded "
                    "random.Random instance"
                )
        elif dotted in ("np.random.default_rng", "numpy.random.default_rng"):
            if not seeded:
                yield node.lineno, "ANL002", (
                    "default_rng() without a seed; determinism requires an "
                    "explicit seed"
                )
        elif dotted.startswith(("np.random.", "numpy.random.")):
            yield node.lineno, "ANL002", (
                f"global-state RNG call {dotted}(); use "
                "np.random.default_rng(seed)"
            )
        elif dotted == "Random" and not seeded:
            yield node.lineno, "ANL002", "Random() without a seed"


def _event_kind_args(node: ast.Call) -> Iterator[ast.expr]:
    """Expressions holding an event kind in a call, if any."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    if name == "_emit" and node.args:
        yield node.args[0]
    elif name == "Event":
        if node.args:
            yield node.args[0]
        for kw in node.keywords:
            if kw.arg == "kind":
                yield kw.value
    elif name == "CallbackSink":
        for kw in node.keywords:
            if kw.arg == "kinds" and isinstance(
                kw.value, (ast.Tuple, ast.List, ast.Set)
            ):
                yield from kw.value.elts


def _check_event_names(
    tree: ast.Module, registry: dict[str, str], is_events_module: bool
) -> Iterator[tuple[int, str, str]]:
    if not registry or is_events_module:
        return
    values = set(registry.values())
    docstrings = _docstring_nodes(tree)
    checked: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for arg in _event_kind_args(node):
            checked.add(id(arg))
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if arg.value not in values:
                    yield arg.lineno, "ANL004", (
                        f"emitted event kind {arg.value!r} is not registered "
                        "in repro.obs.events.ALL_KINDS"
                    )
            elif isinstance(arg, ast.Name) and arg.id.isupper():
                if arg.id not in registry:
                    yield arg.lineno, "ANL004", (
                        f"emitted event kind name {arg.id} is not a "
                        "repro.obs.events constant"
                    )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in values
            and id(node) not in docstrings
            and id(node) not in checked
        ):
            const = next(n for n, v in registry.items() if v == node.value)
            yield node.lineno, "ANL004", (
                f"raw event-kind literal {node.value!r}; use the "
                f"{const} constant"
            )


def _check_pipeline_purity(tree: ast.Module) -> Iterator[tuple[int, str, str]]:
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name not in _PIPELINE_CLASSES:
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in PIPELINE_OP_METHODS:
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in PIPELINE_CONCERNS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield node.lineno, "ANL006", (
                        f"op method {cls.name}.{fn.name}() touches "
                        f"{node.attr!r}; that concern belongs to an op handler "
                        "in repro.mpi.ops — describe + issue only"
                    )


def _check_policy_purity(tree: ast.Module) -> Iterator[tuple[int, str, str]]:
    """ANL007: policy classes must stay deterministic, in any package.

    ANL001/ANL002 only patrol the virtual-time packages; a cache policy
    registered from application code runs on the same victim-scoring path,
    so the same two bans apply to any class with a ``*Policy`` base.
    """
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if not any(
            _dotted(b).rpartition(".")[2].endswith("Policy") for b in cls.bases
        ):
            continue
        body = ast.Module(body=cls.body, type_ignores=[])
        for line, _rule, msg in _check_wall_clock(body):
            yield line, "ANL007", f"in policy class {cls.name}: {msg}"
        for line, _rule, msg in _check_seeded_random(body):
            yield line, "ANL007", f"in policy class {cls.name}: {msg}"


def _check_revocation_handlers(
    tree: ast.Module,
) -> Iterator[tuple[int, str, str]]:
    """ANL008: only repro.recovery may catch RankRevokedError."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        exprs = (
            node.type.elts
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for expr in exprs:
            if _dotted(expr).rpartition(".")[2] == "RankRevokedError":
                yield node.lineno, "ANL008", (
                    "except RankRevokedError outside repro.recovery; use the "
                    "loop-until-stable helpers (recovery.retrying/completed/"
                    "barrier) so the failure set is re-observed on retry"
                )


def _is_hot_path(posix_path: str) -> bool:
    return any(f"repro/{pkg}/" in posix_path for pkg in HOT_PATH_PACKAGES)


def _check_gated_event_construction(
    tree: ast.Module,
) -> Iterator[tuple[int, str, str]]:
    """ANL014: hot-path Event() construction only inside ``_emit*`` helpers.

    Flags calls to the bare ``Event`` name (and ``obs.Event`` /
    ``events.Event`` attribute spellings) lexically outside a function
    whose name starts with ``_emit``.  Helpers named ``_emit*`` are the
    repo convention for kind-gated emission: they check
    ``bus.wants(kind)`` before allocating, so sink-less runs build zero
    Event objects on the op path.
    """

    def visit(
        node: ast.AST, in_emit_helper: bool
    ) -> Iterator[tuple[int, str, str]]:
        for child in ast.iter_child_nodes(node):
            inside = in_emit_helper
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # once lexically inside a gated helper, nested closures
                # are covered by the same wants() check
                inside = in_emit_helper or child.name.startswith("_emit")
            if isinstance(child, ast.Call) and not in_emit_helper:
                dotted = _dotted(child.func)
                head, _, name = dotted.rpartition(".")
                if name == "Event" and (
                    not head or head.rpartition(".")[2] in ("obs", "events")
                ):
                    yield child.lineno, "ANL014", (
                        "Event constructed outside a kind-gated _emit* "
                        "helper in a hot-path package; route the emission "
                        "through a helper that checks bus.wants(kind) first"
                    )
            yield from visit(child, inside)

    yield from visit(tree, False)


def _check_mutable_defaults(tree: ast.Module) -> Iterator[tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for d in defaults:
            bad = isinstance(d, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(d, ast.Call)
                and isinstance(d.func, ast.Name)
                and d.func.id in ("list", "dict", "set", "bytearray")
            )
            if bad:
                yield d.lineno, "ANL005", (
                    f"mutable default argument in {node.name}(); default to "
                    "None and build inside the function"
                )


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def lint_file(
    path: Path, registry: dict[str, str]
) -> list[Diagnostic]:
    """All findings for one source file (suppressions applied).

    Unparseable or unreadable files yield a single ANL000 diagnostic
    instead of a traceback, so one bad file cannot take down a tree-wide
    lint run.
    """
    tree, src, parse_diags = parse_file(path)
    if tree is None:
        return parse_diags
    posix = path.as_posix()

    raw: list[tuple[int, str, str]] = []
    evaluated: set[str] = {"ANL004", "ANL005", "ANL006"}
    if _is_restricted(posix):
        evaluated |= {"ANL001", "ANL002"}
        raw.extend(_check_wall_clock(tree))
        raw.extend(_check_seeded_random(tree))
    raw.extend(
        _check_event_names(
            tree, registry, is_events_module=posix.endswith("obs/events.py")
        )
    )
    raw.extend(_check_pipeline_purity(tree))
    if not _is_restricted(posix):
        # inside the restricted packages ANL001/ANL002 already flag these
        evaluated.add("ANL007")
        raw.extend(_check_policy_purity(tree))
    if "repro/recovery/" not in posix:
        evaluated.add("ANL008")
        raw.extend(_check_revocation_handlers(tree))
    if _is_hot_path(posix):
        evaluated.add("ANL014")
        raw.extend(_check_gated_event_construction(tree))
    raw.extend(_check_mutable_defaults(tree))

    supp = SuppressionIndex(str(path), src)
    findings = supp.filter(
        Diagnostic(str(path), line, rule, message, fix=RULES[rule].fix)
        for line, rule, message in raw
    )
    findings.extend(supp.unused(evaluated & LINT_RULES))
    return findings


def run_lint(paths: Iterable[str | Path]) -> list[Diagnostic]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    files = collect_files(paths)
    registry, findings = _load_registry(files)
    for f in files:
        findings.extend(lint_file(f, registry))
    return sort_diagnostics(findings)
