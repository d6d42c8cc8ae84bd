"""One place each, checked on the package's syntax trees: JSON is decoded
only by the catalogue's document reader, check outcomes are built only
by `verify_point`, each field has one elimination routine, the only one
to invert a pivot: `_absorb` mod p and `Matrix.rref` exactly, and the
witness search checks every relation through one residual: brackets mod
p are taken only by `residual`, by `images` for the word images, and by
the set-up routines `_mod_structure`, `_words` and `_rebase`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibkit"


def _calls(matches, name):
    """(file, innermost enclosing function) of each call in the package
    that `matches`; `name` may not be imported under an alias or be a
    module imported from, since either would hide a call from the scan."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function name
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom)
                        and node.module == name), path.name
            assert not (isinstance(node, (ast.Import, ast.ImportFrom))
                        and any(a.name == name and a.asname
                                for a in node.names)), path.name
            # breadth first, so an inner function overrides its outer one
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        calls += [(path.name, owner.get(node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and matches(node.func)]
    return calls


def _is_json_load(func):
    return (isinstance(func, ast.Attribute)
            and func.attr in ("load", "loads")
            and isinstance(func.value, ast.Name)
            and func.value.id == "json")


def _is_check_outcome(func):
    return (getattr(func, "id", None) == "CheckOutcome"
            or getattr(func, "attr", None) == "CheckOutcome")


def test_json_decoded_only_by_read_document():
    calls = _calls(_is_json_load, "json")
    assert calls == [("catalogue.py", "read_document")], calls


def test_check_outcomes_built_only_by_verify_point():
    calls = _calls(_is_check_outcome, "CheckOutcome")
    assert calls == [("catalogue.py", "verify_point")], calls


def test_one_elimination_per_field():
    pows = _calls(lambda func: getattr(func, "id", None) == "pow", "pow")
    assert [c for c in pows if c[0] == "iso.py"] == [("iso.py", "_absorb")]
    invs = _calls(lambda func: getattr(func, "attr", None) == "inv", "inv")
    assert [c for c in invs if c[0] == "linalg.py"] == [("linalg.py", "rref")]


def test_one_residual_per_relation():
    brks = _calls(lambda func: getattr(func, "id", None) == "_brk", "_brk")
    assert set(brks) == {("iso.py", name) for name in (
        "_mod_structure", "_words", "_rebase", "images", "residual")}, brks
