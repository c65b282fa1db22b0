"""Every name a module under ``src/tmbcast`` imports is used in it.  The
package's ``__init__.py`` imports names to export them, so it is left out."""

from __future__ import annotations

import ast
from pathlib import Path

import tmbcast

SOURCES = sorted(
    p for p in Path(tmbcast.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _annotation_names(annotation: ast.AST) -> set[str]:
    """Names in an annotation, including those inside quoted parts such as
    ``-> "Instance"`` or ``list["Edge"]``."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(quoted)
    return names


def unused_imports(tree: ast.AST) -> list[str]:
    """``line name`` for every imported name the module never reads.  Names
    in ``__all__`` and ``from __future__`` imports count as used."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted(f"{line} {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    assert {p.name for p in SOURCES} >= {"cli.py", "core.py", "distances.py", "solvers.py"}
    found = [
        f"{path.name}:{where}"
        for path in SOURCES
        for where in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_unused_imports_are_detected():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Iterator, Mapping, Sequence\n"
        "from x import Quoted, Nested, Listed, Dead\n"
        "__all__ = ['Listed']\n"
        "def f(a: 'Quoted') -> Mapping['str', 'Nested']:\n"
        "    return os.path.join(a)\n"
        "value: Sequence[int] = ()\n"
    )
    assert unused_imports(tree) == ["3 j", "4 Iterator", "5 Dead"]
