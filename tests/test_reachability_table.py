"""The committed reachability table against the source and the audit's tags.

``tests/reachability.py`` takes ~25 min, so nothing re-runs it per change;
this checks what can be checked without running it.  Every row of the
table in docs/testing.md §6 must name functions that exist, with the body
line count they have now and the tag the script's ``WHY`` gives them, and
``WHY`` must tag no function the table lacks.  A function that stops
being reached is only seen by re-running the script.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import reachability

REPO = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^\| `(repro[\w.]*)` \| (.+?) \| (\d+) \| (.+) \|$")


def qualnames(tree, prefix=""):
    """``{qualname: body lines}`` of every function in ``tree``, nested too."""
    found = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[prefix + node.name] = node.end_lineno - node.body[0].lineno + 1
            found.update(qualnames(node, prefix + node.name + "."))
        elif isinstance(node, ast.ClassDef):
            found.update(qualnames(node, prefix + node.name + "."))
        else:
            found.update(qualnames(node, prefix))
    return found


def module_path(module):
    path = REPO / "src" / Path(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def table():
    text = (REPO / "docs" / "testing.md").read_text()
    rows = [ROW.match(line) for line in text.split("## 6.")[1].splitlines()]
    return [row.groups() for row in rows if row]


def test_rows_match_the_source_and_the_tags():
    rows = table()
    assert rows
    listed = set()
    for module, names, lines, why in rows:
        funcs = qualnames(ast.parse(module_path(module).read_text()))
        names = re.findall(r"`([^`]+)`", names)
        missing = [name for name in names if name not in funcs]
        assert not missing, f"{module}: {missing} no longer exist"
        assert sum(funcs[name] for name in names) == int(lines), module
        short = module.removeprefix("repro.")
        for name in names:
            assert reachability.TAG.get(f"{short}:{name}") == why, f"{module}:{name}"
            listed.add(f"{short}:{name}")
    assert set(reachability.TAG) == listed
