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


def test_poly_classes_define_no_method_twice():
    # PolyZ4 and PolyR inherit one arithmetic body; only their rendering is
    # written per ring, so any other method defined in both is a duplicate.
    path = Path(dnacyclic.__file__).parent / "polynomials.py"
    classes = {
        node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    assert classes["PolyZ4"] & classes["PolyR"] <= {"__repr__", "to_power_str"}
