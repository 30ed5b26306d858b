"""Static checks on the package source."""

import ast
from pathlib import Path

import dnacyclic

SOURCES = sorted(Path(dnacyclic.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an internal check written as
    # one silently stops running; the package raises explicitly instead.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
