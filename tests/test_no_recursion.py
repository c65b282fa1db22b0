"""No function under ``src/tmbcast`` calls itself by name, so no recursion
depth grows with the input: deep inputs cannot end in RecursionError."""

from __future__ import annotations

import ast
from pathlib import Path

import tmbcast

SOURCES = sorted(Path(tmbcast.__file__).parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """``file:line function`` for every call of a function by its own name:
    ``name(...)``, or ``self.name(...)`` / ``cls.name(...)`` in a method.
    ``super().__init__(...)`` calls the base class, not itself."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                found.append(f"{node.lineno} {func.name}")
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"{node.lineno} {func.name}")
    return found


def test_no_function_calls_itself():
    assert {p.name for p in SOURCES} >= {"core.py", "distances.py", "solvers.py", "tsot.py"}
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for where in self_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_self_calls_are_detected():
    tree = ast.parse(
        "def walk(v):\n    return walk(v - 1)\n"
        "class A:\n"
        "    def visit(self):\n        self.visit()\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def other(self, x):\n        x.other()\n"
    )
    assert self_calls(tree) == ["2 walk", "5 visit"]
