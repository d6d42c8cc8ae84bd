"""The package decodes JSON in one place: the catalogue's document reader."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibkit"


def _is_json_load(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("load", "loads")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json")


def test_json_decoded_only_by_read_document():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function name
        for node in ast.walk(tree):
            # an alias would hide a call from the scan below
            assert not (isinstance(node, ast.ImportFrom)
                        and node.module == "json"), path.name
            assert not (isinstance(node, ast.Import)
                        and any(a.name == "json" and a.asname
                                for a in node.names)), path.name
            # breadth first, so an inner function overrides its outer one
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        calls += [(path.name, owner.get(node))
                  for node in ast.walk(tree) if _is_json_load(node)]
    assert calls == [("catalogue.py", "read_document")], calls
