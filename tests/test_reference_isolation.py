"""``tests/reference_search.py`` keeps its own copies of the old
earliest-arrival kernel, minimum-waiting search, reachability test,
connectivity test, latest-departure bisection and backward search, front
search and candidate table, and never reaches the library's searches: a
reference that called ``tmbcast``'s would follow them when they change, and
every differential test over it would compare the new code with itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

REFERENCE = Path(__file__).with_name("reference_search.py")


def kernel_imports(tree: ast.AST, name: str = "earliest_arrival") -> list[str]:
    """``line`` entries for every way ``tree`` reaches ``name`` in
    ``tmbcast``: ``from tmbcast... import name`` or ``<module>.name`` on a
    module imported from ``tmbcast``."""
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tmbcast"):
            for alias in node.names:
                if alias.name == name:
                    found.append(f"{node.lineno} import {name}")
                else:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("tmbcast"):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, (ast.Name, ast.Attribute))
            and ast.unparse(node.value).split(".")[0] in modules
        ):
            found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_reference_search_keeps_its_own_kernel():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    assert kernel_imports(tree) == []
    own = [node for node in tree.body
           if isinstance(node, ast.FunctionDef) and node.name == "earliest_arrival"]
    assert len(own) == 1 and own[0].args.args[3].arg == "first_time"


def test_reference_search_keeps_its_own_min_wait_search():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    assert kernel_imports(tree, "_min_wait_run") == []


@pytest.mark.parametrize("name", [
    "_reaches_all", "latest_departure", "_latest_departure_to", "_free_run",
    "connected_after_removal", "_fronts", "_cost_fronts"])
def test_reference_search_keeps_its_own_reachability_and_latest_departure(name):
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    assert kernel_imports(tree, name) == []
    assert [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
            ].count(name) == 1


def test_reference_search_keeps_its_own_candidate_table():
    # A reference search over the library's table would read it the way
    # the code under test does, and follow it when the table changes.
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    assert kernel_imports(tree, "CandidateTable") == []
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)
            ].count("CandidateTable") == 1


# The library's private names the reference may import.  A new private
# import would tie the reference to code that may change under it; the
# list may only shrink.
PRIVATE_IMPORTS_ALLOWED = {
    "_NEVER", "_EXACT_MEASURES", "_finish", "_full_graph_trees",
    "_require_measure",
}


def private_imports(tree: ast.AST) -> set[str]:
    """The private names ``tree`` imports with ``from tmbcast... import``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tmbcast")
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_reference_search_imports_only_allowed_private_names():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    assert private_imports(tree) <= PRIVATE_IMPORTS_ALLOWED


def test_private_imports_are_detected():
    tree = ast.parse(
        "from tmbcast.core import CandidateTable, _NEVER\n"
        "from tmbcast.distances import _worst as worst\n"
        "from other import _hidden\n"
    )
    assert private_imports(tree) == {"_NEVER", "_worst"}


def test_kernel_imports_are_detected():
    tree = ast.parse(
        "from tmbcast.core import CandidateTable, earliest_arrival\n"
        "import tmbcast.core as core\n"
        "from tmbcast import distances\n"
        "core.earliest_arrival(1)\n"
        "distances.earliest_arrival(2)\n"
        "other.earliest_arrival(3)\n"
    )
    assert kernel_imports(tree) == [
        "1 import earliest_arrival",
        "4 core.earliest_arrival",
        "5 distances.earliest_arrival",
    ]
