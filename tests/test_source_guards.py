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


def test_cli_prints_only_in_main():
    # Each subcommand returns one document and main alone prints it, as JSON
    # or through the subcommand's renderer; a print anywhere else would be a
    # second output path that --json does not see.
    path = Path(dnacyclic.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def prints(node):
        return [
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "print"
        ]

    (main,) = [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"
    ]
    assert prints(main)
    assert sorted(prints(tree)) == sorted(prints(main))
