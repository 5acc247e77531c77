"""The package graph is a DAG, and every module imports on a cold interpreter.

CLaMPI sits entirely above the MPI-3 RMA interface (DESIGN.md §1); this
file makes that layering a tested fact (docs/architecture.md §1).  Only
*module-level* imports count — statements outside any function, with
``if TYPE_CHECKING:`` blocks left out — because those are what run when a
module is imported.  A function-level import is a deliberate lazy edge and
may point anywhere.

The static checks read the source with :mod:`ast` and cost milliseconds;
the cold-import checks start one interpreter each (about 2 s in all).
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_core_call_budget import FORBIDDEN, _packages_of

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages (and the ``clampi`` facade module) from the bottom up.  A
#: module-level import may only point at a strictly lower tier; the
#: packages sharing a tier are independent of each other.  ``rma`` is the
#: op path's former import name, a re-export of ``repro.mpi.ops``.
LAYERS = (
    ("util",),
    ("obs",),
    ("net",),
    ("runtime",),
    ("faults",),
    ("mpi",),
    ("core", "rma"),
    ("clampi",),
    ("trace", "graph", "baselines", "recovery"),
    ("apps",),
    ("analysis",),
    ("verify",),
    ("bench",),
)
TIER = {pkg: i for i, tier in enumerate(LAYERS) for pkg in tier}


def _module_files() -> dict[str, Path]:
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _module_files()


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _top_level(stmts: list[ast.stmt]):
    """Statements that run at import: skip function bodies and
    ``if TYPE_CHECKING:`` branches, descend into everything else."""
    for node in stmts:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _top_level(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _top_level(getattr(node, field, []))


def module_level_imports(module: str) -> set[str]:
    """The ``repro`` modules ``module`` imports when it is imported."""
    tree = ast.parse(MODULES[module].read_text())
    out: set[str] = set()
    for node in _top_level(tree.body):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{module}: relative import"
            out.add(node.module)
            # ``from repro import obs`` imports the module repro.obs
            out.update(
                f"{node.module}.{a.name}"
                for a in node.names
                if f"{node.module}.{a.name}" in MODULES
            )
    return {m for m in out if m in MODULES}


def _package(module: str) -> str | None:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else None


@functools.cache
def module_graph() -> dict[str, set[str]]:
    """Edges ``a -> b``: importing ``a`` runs ``b`` (if not yet loaded).

    Importing ``repro.mpi.datatypes`` from another package also runs the
    ``repro.mpi`` package ``__init__``, so that is an edge too.
    """
    graph = {}
    for mod in MODULES:
        own = set(_packages_of(mod))
        deps = set()
        for imp in module_level_imports(mod):
            deps.add(imp)
            deps.update(a for a in _packages_of(imp) if a not in own)
        deps.discard(mod)
        graph[mod] = deps
    return graph


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state and (cycle := visit(nxt)):
                return cycle
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return None


# ---------------------------------------------------------------------------
# static: the layer order and an acyclic module graph
# ---------------------------------------------------------------------------
def test_every_package_has_a_layer():
    packages = {_package(m) for m in MODULES} - {None}
    assert packages == set(TIER)


def test_module_level_imports_only_point_down_the_layers():
    upward = sorted(
        (mod, imp)
        for mod, deps in module_graph().items()
        for imp in deps
        if _package(mod) and _package(imp)
        and _package(mod) != _package(imp)
        and TIER[_package(imp)] >= TIER[_package(mod)]
    )
    assert upward == []


def test_module_graph_is_acyclic():
    assert _find_cycle(module_graph()) is None


# ---------------------------------------------------------------------------
# cold imports, one fresh interpreter per question
# ---------------------------------------------------------------------------
def _cold(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(module: str) -> list[str]:
    out = _cold(
        f"import sys, {module}\n"
        "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    return out.split()


def test_every_module_imports_cold():
    """Each module in an interpreter holding no ``repro`` module, so one
    that imports only after some other module (a cycle) fails by name."""
    names = sorted(m for m in MODULES if not m.endswith("__main__"))
    out = _cold(
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for m in [m for m in sys.modules if m.startswith('repro')]:\n"
        "        del sys.modules[m]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        print(name, repr(exc))\n"
    )
    assert out == ""


def test_the_engine_loads_no_window_world_or_bus():
    loaded = _loaded_after("repro.core.engine")
    assert [
        m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    ] == []


def test_the_epoch_table_loads_only_value_types():
    assert _loaded_after("repro.mpi.epochs") == [
        "repro",
        "repro.mpi",
        "repro.mpi.datatypes",
        "repro.mpi.epochs",
        "repro.mpi.errors",
    ]


# ---------------------------------------------------------------------------
# the lazy repro.mpi surface
# ---------------------------------------------------------------------------
def test_every_mpi_export_resolves():
    import repro.mpi

    for name in repro.mpi.__all__:
        assert getattr(repro.mpi, name) is not None, name


def test_mpi_star_import():
    import repro.mpi

    ns: dict = {}
    exec("from repro.mpi import *", ns)
    assert set(repro.mpi.__all__) <= set(ns)


def test_unknown_mpi_name_raises_attribute_error():
    import repro.mpi

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.mpi.no_such_name  # noqa: B018
    assert not hasattr(repro.mpi, "no_such_name")


def test_rma_is_a_pure_reexport_of_the_op_path():
    import repro.rma
    from repro.mpi import ops

    assert all(getattr(repro.rma, n) is getattr(ops, n) for n in repro.rma.__all__)


# ---------------------------------------------------------------------------
# vocabularies that cross a layer by value, not by import
# ---------------------------------------------------------------------------
def test_obs_access_vocabulary_matches_the_cache():
    from repro.core.stats import AccessType
    from repro.obs.events import ACCESS_TYPES

    assert list(ACCESS_TYPES) == [a.value for a in AccessType]
