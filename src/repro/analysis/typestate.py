"""Flow-sensitive epoch/flush typestate verifier (rules ANL009–ANL012).

The dynamic sanitizer (PR 3) only sees the paths a run actually takes; a
misuse on an unexecuted branch ships silently.  This module proves epoch
discipline *statically*: it abstractly interprets each function body over
its CFG (:mod:`repro.analysis.cfg`), tracking

* per-**window** epoch typestate — the modes of the window's own epoch
  table (:mod:`repro.mpi.epochs`), stepped through that table as the
  transfer function of every window call and scoped ``with`` entry/exit,
  plus ``unknown`` for "no information" — joined over branches, loops (to
  fixpoint) and exception edges;
* per-**buffer** completion state — a get's destination and a put's
  origin stay ``pending`` until a dominating ``flush``/``flush_all``/
  epoch close (or ``Request.wait()`` for ``rget``/``rput``).

Rules::

    ANL009  an epoch opened here may still be open on some path out of
            the function (including exception edges)
    ANL010  a get's result buffer is read (or overwritten) while the get
            is still in flight
    ANL011  a put/accumulate origin buffer is modified while the op is
            still in flight
    ANL012  an RMA op or flush is issued on a path where no epoch that
            allows it is provably open

**Which names are tracked.**  A variable is a window either by
*provenance* (assigned from ``Window.allocate``/``Window.create``/
``clampi.window_allocate``/a ``*Window`` constructor — initial state
``closed``, full checking) or by *evidence* (a window-specific method
like ``lock_all``/``flush_all``/``lock_all_epoch`` is called on it —
initial state ``unknown``, so ANL012 only fires after a provable close).
Free variables of nested functions get effect tracking but no epoch
findings: their epochs may legitimately be closed by the enclosing scope.

**Interprocedural one-level summaries.**  Every function in a module is
first summarised intraprocedurally: per window-typed parameter (and free
variable), does it open, close, or flush, and does it issue ops that
need a caller-held epoch?  Call sites then apply the summary, so helpers
that flush for the caller do not leave buffers falsely pending.  A bound
epoch-closing method passed as an argument — the
``repro.recovery.retrying(win.flush_all)`` idiom — is assumed invoked,
so the loop-until-stable recovery helpers cause no false positives.
Unknown callees receiving a window havoc its state to ``unknown``
(checking stops rather than guessing).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.cfg import CFG, WithExit, build_cfg
from repro.analysis.diagnostics import (
    RULES,
    VERIFY_RULES,
    Diagnostic,
    Related,
    SuppressionIndex,
    collect_files,
    parse_file,
    sort_diagnostics,
)
from repro.mpi.epochs import (
    CLOSED,
    COMPLETES,
    DATA_OPS,
    EPOCHS,
    MODES,
    NEEDS_EPOCH,
    OPEN_MODES,
    PSCW,
    SCOPES,
    VERBS,
    step,
)

#: the lattice's top: the window may be in any mode (a parameter, or a
#: window an unknown callee touched)
UNKNOWN = "unknown"
_OPEN = frozenset(OPEN_MODES)


def _from_unknown(call: str) -> str:
    """The step from UNKNOWN: the mode all legal steps agree on, or UNKNOWN."""
    legal = {n for m in MODES if (n := step(m, call)) in MODES}
    return legal.pop() if len(legal) == 1 else UNKNOWN


_FROM_UNKNOWN = {call: _from_unknown(call) for _mode, call in EPOCHS}

#: method names that are strong evidence the receiver is an RMA window
#: (generic names like get/put/lock/flush alone are not — dict.get,
#: file.flush(0-arg) and mutex.lock() would misfire)
_STRONG_VERBS = frozenset(
    {
        "lock_all", "unlock_all", "flush_all", "lock_epoch",
        "lock_all_epoch", "fence_epoch", "get_blocking", "get_batch",
        "rget", "rput",
    }
)
#: ...and these count as evidence only when called with arguments
_STRONG_IF_ARGS = frozenset({"flush", "lock", "unlock"})

#: dotted callables that construct a window (provenance tracking)
_WINDOW_CONSTRUCTORS = frozenset(
    {"Window", "Window.allocate", "Window.create", "CachedWindow",
     "BlockCachedWindow"}
)
_WINDOW_CONSTRUCTOR_SUFFIXES = ("window_allocate", "shrink_window",
                                "make_window")

#: np.ndarray methods that mutate the buffer in place (ANL011)
_MUTATORS = frozenset(
    {"fill", "sort", "put", "itemset", "resize", "byteswap", "setfield",
     "partition"}
)
#: callables assumed to *consume* (read) array arguments
_READERS_PREFIX = ("np.", "numpy.")
_READER_FNS = frozenset({"int", "float", "bool", "sum", "min", "max", "abs",
                         "print", "str", "repr", "list", "tuple", "sorted"})


def _dotted(node: ast.expr) -> str:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return ""
    return ".".join(reversed(parts))


def _is_window_constructor(call: ast.Call) -> bool:
    dotted = _dotted(call.func)
    if not dotted:
        return False
    return dotted in _WINDOW_CONSTRUCTORS or dotted.endswith(
        _WINDOW_CONSTRUCTOR_SUFFIXES
    )


_ONE_TARGET = (ast.AnnAssign, ast.AugAssign, ast.For, ast.AsyncFor)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _shallow_walk(node: ast.AST) -> Iterable[ast.AST]:
    """ast.walk that does not descend into nested function/class scopes."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        for child in ast.iter_child_nodes(n):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def _calls_in_order(node: ast.AST) -> list[ast.Call]:
    calls = [n for n in _shallow_walk(node) if isinstance(n, ast.Call)]
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


# ---------------------------------------------------------------------------
# abstract state
# ---------------------------------------------------------------------------
class State:
    """Joinable abstract state: window typestates + pending buffers."""

    __slots__ = ("wins", "pend")

    def __init__(self, wins=None, pend=None) -> None:
        #: var -> frozenset[(status, open_line)]
        self.wins: dict[str, frozenset] = dict(wins or {})
        #: var -> frozenset[(kind, window_var, op_line)]
        self.pend: dict[str, frozenset] = dict(pend or {})

    def copy(self) -> "State":
        return State(self.wins, self.pend)

    def join(self, other: "State") -> "State":
        wins = dict(self.wins)
        for k, v in other.wins.items():
            wins[k] = wins.get(k, frozenset()) | v
        pend = dict(self.pend)
        for k, v in other.pend.items():
            pend[k] = pend.get(k, frozenset()) | v
        return State(wins, pend)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, State)
            and self.wins == other.wins
            and self.pend == other.pend
        )

    # -- helpers -----------------------------------------------------------
    def statuses(self, var: str) -> frozenset:
        return frozenset(s for s, _l in self.wins.get(var, frozenset()))

    def set_win(self, var: str, status: str, line: int = 0) -> None:
        self.wins[var] = frozenset({(status, line)})

    def complete(self, win: str) -> None:
        """An epoch-close/flush on ``win``: retire its pending buffers."""
        self.retire(lambda entry: entry[1] == win)

    def retire(self, done) -> None:
        """Drop the pending entries ``done(entry)`` says completed."""
        for buf, entries in list(self.pend.items()):
            kept = frozenset(e for e in entries if not done(e))
            if kept:
                self.pend[buf] = kept
            else:
                self.pend.pop(buf)

    def kill(self, var: str) -> None:
        self.wins.pop(var, None)
        self.pend.pop(var, None)


# ---------------------------------------------------------------------------
# one-level interprocedural summaries
# ---------------------------------------------------------------------------
@dataclass
class VarEffect:
    """What a callee does to one window-typed parameter / free variable."""

    may_flush: bool = False    #: some path flushes/closes -> retire pending
    needs_epoch: bool = False  #: issues ops assuming the caller holds an epoch
    #: exit typestates reachable from an ``unknown`` entry state
    exit_states: frozenset = frozenset()


@dataclass
class Summary:
    """Intraprocedural summary of one function definition."""

    params: list = field(default_factory=list)          #: positional names
    effects: dict = field(default_factory=dict)         #: name -> VarEffect


# ---------------------------------------------------------------------------
# per-function analysis
# ---------------------------------------------------------------------------
class _FnAnalyzer:
    def __init__(
        self,
        path: str,
        name: str,
        body: list,
        params: list,
        summaries: dict,
        collect_diags: bool,
    ) -> None:
        self.path = path
        self.name = name
        self.body = body
        self.params = params
        self.summaries = summaries
        self.collect_diags = collect_diags
        self.diags: dict[tuple, Diagnostic] = {}
        self.effects: dict[str, VarEffect] = {}
        #: request var -> (buffer var, window var, op line)
        self._requests: dict[str, tuple] = {}
        #: With node id -> [((window var, alias...), scope verb, line)]
        self._with_epochs: dict[int, list] = {}
        self._classify_vars()

    # ------------------------------------------------------------------
    def _classify_vars(self) -> None:
        """Find window-typed names and their class (evidence tier)."""
        assigned: set[str] = set(self.params)
        evidence: set[str] = set()
        for node in _shallow_walk(ast.Module(body=self.body, type_ignores=[])):
            targets: list = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, _ONE_TARGET):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [i.optional_vars for i in node.items]
            for t in filter(None, targets):
                assigned.update(
                    n.id for n in ast.walk(t) if isinstance(n, ast.Name)
                )
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                ):
                    verb = func.attr
                    if verb in _STRONG_VERBS or (
                        verb in _STRONG_IF_ARGS and (node.args or node.keywords)
                    ):
                        evidence.add(func.value.id)
        #: name -> "param" | "local" | "free"
        self.var_class: dict[str, str] = {}
        for name in evidence:
            if name in self.params:
                self.var_class[name] = "param"
            elif name in assigned:
                self.var_class[name] = "local"
            else:
                self.var_class[name] = "free"

    def _tracked(self, state: State, name: str) -> bool:
        return name in state.wins

    def _reports_for(self, name: str) -> bool:
        """Free variables get effect tracking but no epoch findings."""
        return self.collect_diags and self.var_class.get(name) != "free"

    # ------------------------------------------------------------------
    def run(self) -> list[Diagnostic]:
        cfg = build_cfg(self.body)
        entry_state = State()
        for name, cls in self.var_class.items():
            if cls in ("param", "free"):
                entry_state.set_win(name, UNKNOWN)

        block_in: dict[int, State] = {cfg.entry: entry_state}
        exit_states: list[State] = []
        worklist = [cfg.entry]
        visits: dict[int, int] = {}
        while worklist:
            bid = worklist.pop()
            if bid in (cfg.exit, cfg.raise_exit):
                continue
            visits[bid] = visits.get(bid, 0) + 1
            if visits[bid] > 200:  # safety valve; lattice is finite anyway
                continue
            state = block_in[bid].copy()
            block = cfg.block(bid)
            # An atom may raise before or after its effect, except that a
            # `with` entry that raises opened nothing (its body's exceptions
            # leave through the cleanup) and a with's cleanup runs whole.
            exc_acc = State()
            for atom in block.atoms:
                if not isinstance(atom, WithExit):
                    exc_acc = exc_acc.join(state)
                self._atom(atom, state)
                if not isinstance(atom, (ast.With, ast.AsyncWith)):
                    exc_acc = exc_acc.join(state)
            for target in block.exc:
                self._flow(cfg, target, exc_acc, "raise", block, block_in,
                           worklist, exit_states)
            for dst, kind in block.succs:
                self._flow(cfg, dst, state, kind, block, block_in, worklist,
                           exit_states)

        for st in exit_states:
            self._record_exit_effects(st)
        return sort_diagnostics(self.diags.values())

    def _flow(self, cfg: CFG, dst: int, state: State, kind: str,
              src_block, block_in, worklist, exit_states) -> None:
        if dst == cfg.exit or dst == cfg.raise_exit:
            exceptional = kind == "raise" or dst == cfg.raise_exit
            self._check_leaks(state, src_block, exceptional)
            if dst == cfg.exit:
                exit_states.append(state.copy())
            return
        prev = block_in.get(dst)
        joined = state if prev is None else prev.join(state)
        if prev is None or joined != prev:
            block_in[dst] = joined
            if dst not in worklist:
                worklist.append(dst)

    # ------------------------------------------------------------------
    def _record_exit_effects(self, state: State) -> None:
        for name in self.var_class:
            eff = self._effect(name)
            eff.exit_states = eff.exit_states | state.wins.get(
                name, frozenset()
            )

    def _effect(self, name: str) -> VarEffect:
        return self.effects.setdefault(name, VarEffect())

    # ------------------------------------------------------------------
    def _report(self, rule: str, line: int, message: str,
                related: tuple = (), fix: str = "") -> None:
        if not self.collect_diags:
            return
        key = (rule, line, message)
        if key not in self.diags:
            self.diags[key] = Diagnostic(
                self.path, line, rule, message, related=related,
                fix=fix or RULES[rule].fix,
            )

    def _check_leaks(self, state: State, src_block, exceptional: bool) -> None:
        exit_line = 0
        for atom in reversed(src_block.atoms):
            lineno = getattr(atom, "lineno", None)
            if lineno:
                exit_line = lineno
                break
        how = "an exception escapes" if exceptional else "the function returns"
        for name, states in sorted(state.wins.items()):
            if not self._reports_for(name):
                continue
            for status, line in sorted(states):
                if status in _OPEN and line > 0:
                    verb = "start" if status == PSCW else status
                    related = (
                        Related(self.path, exit_line or line,
                                f"path leaves `{self.name}` here"),
                    )
                    self._report(
                        "ANL009", line,
                        f"epoch opened by {name}.{verb}() may still be open "
                        f"when {how}; close it on every path",
                        related=related,
                    )

    # ------------------------------------------------------------------
    # atom interpretation
    # ------------------------------------------------------------------
    def _atom(self, atom, state: State) -> None:
        if isinstance(atom, WithExit):
            for names, verb, line in self._with_epochs.get(id(atom.node), ()):
                for name in names:
                    self._step_window(name, (SCOPES[verb][1],), verb, line,
                                      state)
            return
        if isinstance(atom, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return
        if isinstance(atom, (ast.If, ast.While)):
            self._eval(atom.test, state)
            return
        if isinstance(atom, ast.Match):
            self._eval(atom.subject, state)
            return
        if isinstance(atom, (ast.For, ast.AsyncFor)):
            self._eval(atom.iter, state, iter_read=True)
            for n in ast.walk(atom.target):
                if isinstance(n, ast.Name):
                    state.kill(n.id)
            return
        if isinstance(atom, (ast.With, ast.AsyncWith)):
            self._with_enter(atom, state)
            return
        if isinstance(atom, ast.Assign):
            self._eval(atom.value, state)
            self._assign(atom.targets, atom.value, state, atom.lineno)
            return
        if isinstance(atom, ast.AnnAssign):
            if atom.value is not None:
                self._eval(atom.value, state)
                self._assign([atom.target], atom.value, state, atom.lineno)
            return
        if isinstance(atom, ast.AugAssign):
            self._eval(atom.value, state)
            self._eval(atom.target, state, aug_target=True)
            return
        if isinstance(atom, ast.Return):
            if atom.value is not None:
                self._eval(atom.value, state)
            return
        if isinstance(atom, ast.Raise):
            if atom.exc is not None:
                self._eval(atom.exc, state)
            return
        if isinstance(atom, ast.Assert):
            self._eval(atom.test, state)
            return
        if isinstance(atom, ast.Delete):
            for t in atom.targets:
                if isinstance(t, ast.Name):
                    state.kill(t.id)
            return
        if isinstance(atom, ast.Expr):
            self._eval(atom.value, state)
            return
        # anything else: evaluate child expressions generically
        for child in ast.iter_child_nodes(atom):
            if isinstance(child, ast.expr):
                self._eval(child, state)

    # ------------------------------------------------------------------
    def _assign(self, targets: list, value, state: State, line: int) -> None:
        single = (
            targets[0]
            if len(targets) == 1 and isinstance(targets[0], ast.Name)
            else None
        )
        if single is not None:
            name = single.id
            state.kill(name)
            if isinstance(value, ast.Call):
                if _is_window_constructor(value):
                    state.set_win(name, CLOSED)
                    # provenance upgrades evidence: full checking
                    if self.var_class.get(name) != "param":
                        self.var_class[name] = "local"
                    return
                func = value.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and self._tracked(state, func.value.id)
                ):
                    win = func.value.id
                    if func.attr == "shrink":
                        state.set_win(name, CLOSED)
                        return
                    if func.attr in ("rget", "rput") and value.args:
                        first = value.args[0]
                        if isinstance(first, ast.Name):
                            self._requests[name] = (first.id, win, line)
                        return
            if isinstance(value, ast.Name) and self._tracked(state, value.id):
                state.wins[name] = state.wins[value.id]
                self.var_class.setdefault(
                    name, self.var_class.get(value.id, "local")
                )
                return
            if self.var_class.get(name) in ("param", "local"):
                state.set_win(name, UNKNOWN)
            return
        for t in targets:
            self._target_write(t, state)

    def _target_write(self, t, state: State) -> None:
        """Assignment target that is not a single plain Name.

        ``buf[...] = v`` *writes into* a buffer (pending hazards apply);
        only whole-name rebinding kills tracking.
        """
        for n in _shallow_walk(t):
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name):
                self._flag(state, "get", n.value.id, n.lineno, "overwritten")
                self._flag(state, "put", n.value.id, n.lineno)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                state.kill(n.id)

    # ------------------------------------------------------------------
    def _with_enter(self, stmt, state: State) -> None:
        epochs: list = []
        for item in stmt.items:
            expr = item.context_expr
            alias = (
                item.optional_vars.id
                if isinstance(item.optional_vars, ast.Name)
                else None
            )
            handled = False
            if isinstance(expr, ast.Call):
                func = expr.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and self._tracked(state, func.value.id)
                    and func.attr in SCOPES
                ):
                    win, verb = func.value.id, func.attr
                    self._step_window(win, (SCOPES[verb][0],), verb,
                                      expr.lineno, state)
                    names = (win,)
                    if alias is not None:
                        state.wins[alias] = state.wins[win]
                        self.var_class.setdefault(
                            alias, self.var_class.get(win, "local")
                        )
                        names = (win, alias)
                    epochs.append((names, verb, expr.lineno))
                    handled = True
                elif _is_window_constructor(expr) and alias is not None:
                    state.set_win(alias, CLOSED)
                    self.var_class.setdefault(alias, "local")
                    handled = True
            if not handled:
                self._eval(expr, state)
        if epochs:
            self._with_epochs[id(stmt)] = epochs

    # ------------------------------------------------------------------
    # expression evaluation: uses scan + call effects, in source order
    # ------------------------------------------------------------------
    def _eval(self, expr, state: State, iter_read: bool = False,
              aug_target: bool = False) -> None:
        self._scan_uses(expr, state, iter_read=iter_read,
                        aug_target=aug_target)
        for call in _calls_in_order(expr):
            self._apply_call(call, state)

    # -- pending-buffer uses ------------------------------------------------
    def _flag(self, state: State, kind: str, name: str, line: int,
              how: str = "") -> None:
        """A use of ``name`` while a ``kind`` op on it is in flight: ANL010
        for a get's destination, ANL011 for a put's origin."""
        entries = sorted(e for e in state.pend.get(name, ()) if e[0] == kind)
        if not entries or not self.collect_diags:
            return
        _kind, win, op_line = entries[0]
        if kind == "get":
            rule, message = "ANL010", (
                f"buffer `{name}` is {how} while a get into it is still in "
                f"flight; its contents are undefined until `{win}` is flushed"
            )
        else:
            rule, message = "ANL011", (
                f"origin buffer `{name}` is modified while a put from it is "
                f"still in flight; flush `{win}` first"
            )
        self._report(rule, line, message, related=(
            Related(self.path, op_line, f"pending {kind} issued here"),
        ))

    def _scan_uses(self, expr, state: State, iter_read: bool = False,
                   aug_target: bool = False) -> None:
        if not state.pend:
            return

        def reads(name: str, line: int, how: str) -> None:
            self._flag(state, "get", name, line, how)

        def writes(name: str, line: int) -> None:
            self._flag(state, "get", name, line, "overwritten")
            self._flag(state, "put", name, line)

        if aug_target and isinstance(expr, ast.Name):
            reads(expr.id, expr.lineno, "read")
            writes(expr.id, expr.lineno)
            return
        if iter_read and isinstance(expr, ast.Name):
            reads(expr.id, expr.lineno, "iterated over")

        for node in _shallow_walk(expr):
            if isinstance(node, ast.Subscript):
                if isinstance(node.value, ast.Name):
                    name = node.value.id
                    if isinstance(node.ctx, (ast.Store, ast.Del)):
                        writes(name, node.lineno)
                    else:
                        reads(name, node.lineno, "read")
            elif isinstance(node, (ast.BinOp,)):
                for operand in (node.left, node.right):
                    if isinstance(operand, ast.Name):
                        reads(operand.id, operand.lineno, "read")
            elif isinstance(node, ast.UnaryOp):
                if isinstance(node.operand, ast.Name):
                    reads(node.operand.id, node.operand.lineno, "read")
            elif isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    if isinstance(operand, ast.Name):
                        reads(operand.id, operand.lineno, "read")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(
                    func.value, ast.Name
                ):
                    name = func.value.id
                    if name in state.pend:
                        if func.attr in _MUTATORS:
                            writes(name, node.lineno)
                        else:
                            reads(name, node.lineno,
                                  f"read (via .{func.attr}())")
                dotted = _dotted(func)
                if dotted.startswith(_READERS_PREFIX) or dotted in _READER_FNS:
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            reads(arg.id, arg.lineno, "read")

    # -- call effects -------------------------------------------------------
    def _apply_call(self, call: ast.Call, state: State) -> None:
        func = call.func
        # 1. method call on a tracked window
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and self._tracked(state, func.value.id)
        ):
            self._window_verb(func.value.id, func.attr, call, state)
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            # request completion: r.wait() retires the rget/rput buffer
            req = self._requests.get(func.value.id)
            if req is not None and func.attr == "wait":
                _buf, win, op_line = req
                state.retire(lambda entry: entry[1:] == (win, op_line))
        # 2. bound epoch/flush methods passed as arguments are assumed
        #    invoked: recovery.retrying(win.flush_all) completes, etc.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if (
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and self._tracked(state, arg.value.id)
            ):
                self._step_window(arg.value.id, VERBS.get(arg.attr, ()),
                                  arg.attr, call.lineno, state)
        # 3. known callee: apply its one-level summary; unknown callee:
        #    havoc any window passed as a plain argument
        if isinstance(func, ast.Name):
            summary = self.summaries.get(func.id)
        else:
            summary = None
        window_args: list[tuple[str, str | None]] = []
        for idx, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and self._tracked(state, arg.id):
                pname = (
                    summary.params[idx]
                    if summary is not None and idx < len(summary.params)
                    else None
                )
                window_args.append((arg.id, pname))
        for kw in call.keywords:
            if isinstance(kw.value, ast.Name) and self._tracked(
                state, kw.value.id
            ):
                window_args.append((kw.value.id, kw.arg))
        for win, pname in window_args:
            if summary is not None:
                eff = summary.effects.get(pname) if pname else None
                self._apply_summary_effect(win, eff, call, state)
            elif not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == win
            ):
                # unknown callee with the window as an argument: havoc
                state.set_win(win, UNKNOWN)
                state.complete(win)

    def _apply_summary_effect(self, win: str, eff: VarEffect | None,
                              call: ast.Call, state: State) -> None:
        if eff is None:
            state.set_win(win, UNKNOWN)
            state.complete(win)
            return
        if eff.may_flush:
            state.complete(win)
            self._effect(win).may_flush = True
        statuses = state.statuses(win)
        if eff.needs_epoch and statuses and statuses <= {CLOSED}:
            if self._reports_for(win):
                self._report(
                    "ANL012", call.lineno,
                    f"call issues RMA ops on `{win}` but no epoch is open "
                    "here",
                )
        exit_statuses = frozenset(s for s, _l in eff.exit_states)
        if not exit_statuses or exit_statuses == {UNKNOWN}:
            return  # callee leaves the epoch state alone
        if UNKNOWN in exit_statuses:
            state.set_win(win, UNKNOWN)
            return
        state.wins[win] = frozenset(
            (s, call.lineno if s in _OPEN else 0) for s, _l in eff.exit_states
        )

    def _step_window(self, win: str, calls: tuple, verb: str, line: int,
                     state: State) -> None:
        """Step ``win``'s typestate through the epoch table, call by call:
        for a method call, a scoped ``with`` entry or exit, and a bound
        method passed as an argument (assumed invoked).  A refused step
        leaves that path's mode alone, as the window's raise does."""
        eff = self._effect(win)
        for call in calls:
            statuses = state.statuses(win)
            if call in NEEDS_EPOCH and UNKNOWN in statuses:
                eff.needs_epoch = True
            elif call in NEEDS_EPOCH and self._reports_for(win):
                refused = {s for s in statuses if step(s, call) not in MODES}
                if refused:
                    path = "on a path " if refused != statuses else ""
                    self._report(
                        "ANL012", line,
                        f"{win}.{verb}() {path}outside an epoch that allows it",
                    )
            state.wins[win] = frozenset(
                self._next(status, opened, call, line)
                for status, opened in state.wins[win]
            )
            if call in COMPLETES:
                state.complete(win)
                eff.may_flush = True

    @staticmethod
    def _next(status: str, opened: int, call: str, line: int) -> tuple:
        if status == UNKNOWN:
            nxt = _FROM_UNKNOWN[call]
        else:
            nxt = step(status, call)
            if nxt not in MODES:  # refused: the window raises, mode stays
                return status, opened
        if nxt == status:
            return status, opened
        return nxt, line if nxt in _OPEN else 0

    def _window_verb(self, win: str, verb: str, call: ast.Call,
                     state: State) -> None:
        calls = VERBS.get(verb, ())
        self._step_window(win, calls, verb, call.lineno, state)
        # a get leaves its destination pending, a put or accumulate its
        # origin; get_blocking completes first, and a batch's buffers
        # live in a list, not in names
        if (
            len(calls) == 1 and calls[0] in DATA_OPS and verb != "get_batch"
            and call.args and isinstance(call.args[0], ast.Name)
        ):
            buf, line = call.args[0].id, call.lineno
            if calls == ("get",):
                kind = "get"
                self._flag(state, "get", buf, line,
                                   "reused as a get destination")
                self._flag(state, "put", buf, line)
            else:
                kind = "put"
                self._flag(state, "get", buf, line, "used as a put origin")
            state.pend[buf] = state.pend.get(buf, frozenset()) | {
                (kind, win, line)
            }


# ---------------------------------------------------------------------------
# module driver
# ---------------------------------------------------------------------------
def _function_params(fn) -> list:
    a = fn.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]


def _summarize(path: str, fn, summaries: dict) -> Summary:
    analyzer = _FnAnalyzer(
        path, fn.name, fn.body, _function_params(fn), summaries={},
        collect_diags=False,
    )
    analyzer.run()
    return Summary(params=_function_params(fn), effects=analyzer.effects)


def verify_source(tree: ast.Module, path: str) -> list[Diagnostic]:
    """All ANL009–ANL012 findings for one parsed module."""
    functions = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # phase 1: one-level summaries (callees treated as unknown inside)
    summaries: dict[str, Summary] = {}
    for fn in functions:
        summaries[fn.name] = _summarize(path, fn, summaries)
    # phase 2: diagnose every scope with summaries available
    diags: list[Diagnostic] = []
    module_body = [
        s for s in tree.body
        if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
    ]
    scopes = [("<module>", module_body, [])] + [
        (fn.name, fn.body, _function_params(fn)) for fn in functions
    ]
    for name, body, params in scopes:
        analyzer = _FnAnalyzer(
            path, name, body, params, summaries, collect_diags=True
        )
        diags.extend(analyzer.run())
    return sort_diagnostics(diags)


def verify_file(path: Path) -> list[Diagnostic]:
    """Typestate-verify one file, applying suppressions (incl. ANL013)."""
    tree, src, parse_diags = parse_file(path)
    if tree is None:
        return parse_diags
    supp = SuppressionIndex(str(path), src)
    diags = supp.filter(verify_source(tree, str(path)))
    diags.extend(supp.unused(VERIFY_RULES))
    return diags


def run_verify(paths: Iterable[str | Path]) -> list[Diagnostic]:
    """Verify every ``.py`` file under ``paths``; returns sorted findings."""
    findings: list[Diagnostic] = []
    for f in collect_files(paths):
        findings.extend(verify_file(f))
    return sort_diagnostics(findings)
