"""No module of the package reaches another module's private name.

A name that starts with one underscore is private to the module that defines
it. The scan below parses every module of the package and reports a private
name taken from a sibling module, either by ``from .x import _name`` or as an
attribute ``x._name`` of a module bound by ``from . import x``.
"""

import ast
import pathlib

import lapgraph


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reaches(path: str, source: str) -> list[str]:
    """Every private name that the module ``source`` takes from a sibling."""
    tree = ast.parse(source)
    modules = set()
    bad = []
    for node in ast.walk(tree):
        inside = isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "lapgraph")
        if inside:
            where = "." * node.level + (node.module or "")
            for alias in node.names:
                if node.module in (None, "lapgraph"):
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    bad.append(f"{path}:{node.lineno}: from {where} import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            bad.append(f"{path}:{node.lineno}: {node.value.id}.{node.attr}")
    return bad


def test_no_module_imports_another_modules_private_name():
    package = pathlib.Path(lapgraph.__file__).parent
    bad = []
    for path in sorted(package.glob("*.py")):
        bad += private_reaches(path.name, path.read_text(encoding="utf-8"))
    assert bad == []


def test_the_scan_sees_a_private_name_imported_or_reached_as_an_attribute():
    source = (
        "from .fields import QQ, _MR_BASES\n"
        "from . import mahler as m\n"
        "from lapgraph.laurent import _gcd\n"
        "x = m._fiber_measure\n"
        "y = m.mahler_value\n"
        "z = m.__name__\n"
    )
    assert private_reaches("planted.py", source) == [
        "planted.py:1: from .fields import _MR_BASES",
        "planted.py:3: from lapgraph.laurent import _gcd",
        "planted.py:4: m._fiber_measure",
    ]
