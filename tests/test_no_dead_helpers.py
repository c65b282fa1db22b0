"""Every module-level private function or class under ``src/tmbcast`` is
referenced somewhere in the package outside its own definition, so a helper
left without callers by a change fails here."""

from __future__ import annotations

import ast
from pathlib import Path

import tmbcast

SOURCES = sorted(Path(tmbcast.__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def private_helpers(tree: ast.Module) -> list[ast.AST]:
    """The module-level definitions whose names start with one underscore."""
    return [
        node for node in tree.body
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def referenced_names(tree: ast.AST, skip: set[ast.AST]) -> set[str]:
    """Names ``tree`` reads or imports, as a name or an attribute, outside
    the subtrees in ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names


def dead_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """``module name`` for every private helper no module references outside
    its own definition."""
    dead = []
    for module, tree in trees.items():
        for node in private_helpers(tree):
            used = set()
            for other in trees.values():
                used |= referenced_names(other, {node})
            if node.name not in used:
                dead.append(f"{module} {node.name}")
    return dead


def test_every_private_helper_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert dead_helpers(trees) == []


def test_a_helper_called_only_by_itself_is_dead():
    trees = {
        "a": ast.parse(
            "def _loop(n):\n    return _loop(n - 1)\n"
            "def _used():\n    pass\n"
            "class _Kept:\n    pass\n"
            "class _Orphan:\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b": ast.parse("from a import _Kept\n"),
    }
    assert dead_helpers(trees) == ["a _loop", "a _Orphan"]
