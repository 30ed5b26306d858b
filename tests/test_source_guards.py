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


def test_package_never_calls_the_word_scan_oracles():
    # The reversible and rc verdicts come from generator membership; the
    # word-scan oracles stay public for the tests and are called nowhere in
    # the package.
    oracles = {"is_reversible_bruteforce", "is_rc_closed_bruteforce"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) in oracles
             or getattr(node.func, "attr", None) in oracles)
    ]
    assert found == []


def _calls_in_cli(name):
    """Line numbers of the calls to ``name`` in cli.py: all of them, and
    those inside main."""
    path = Path(dnacyclic.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def calls(node):
        return sorted(
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == name
        )

    (main,) = [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"
    ]
    return calls(tree), calls(main)


def test_cli_prints_only_in_main():
    # Each subcommand returns one document and main alone prints it, as JSON
    # or through the subcommand's renderer; a print anywhere else would be a
    # second output path that --json does not see.
    everywhere, in_main = _calls_in_cli("print")
    assert in_main
    assert everywhere == in_main


def test_cli_loads_caps_only_in_main():
    # main loads the caps once and hands them to every subcommand, so none
    # can ignore --config and the cap flags.
    everywhere, in_main = _calls_in_cli("load_caps")
    assert len(in_main) == 1
    assert everywhere == in_main


#: Functions and methods the package defines but does not call itself.
UNCALLED_BY_DESIGN = {
    # Tuple and string references the tests hold the packed path to.
    "reverse_word", "complement_word", "reverse_complement_word",
    "dna_complement", "gc_content",
    # Names the acceptance contract imports; the word-scan oracles are also
    # the tests' reference for the membership verdicts.
    "is_reversible_bruteforce", "is_rc_closed_bruteforce", "from_codon",
    # Ring and polynomial API.
    "inverse", "is_self_reciprocal",
    # The paper's bond count, an alias of the deletion similarity.
    "hybridization_energy",
}


def test_every_function_is_used_in_the_package_or_listed():
    # A helper that nothing in the package calls is dead code unless it is
    # kept on purpose; __init__.py only re-exports, so it does not count.
    defined, used = set(), set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used == UNCALLED_BY_DESIGN


def test_only_codes_reads_the_known_ideal_flag():
    # Whether a code is an ideal is decided by Code.is_ideal alone.
    found = [
        path.name
        for path in SOURCES
        if path.name != "codes.py" and "_known_ideal" in path.read_text(encoding="utf-8")
    ]
    assert found == []
