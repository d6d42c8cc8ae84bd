"""Every module-level function and class of the package is used somewhere,
and so is every method and annotated field of its classes; every function,
class and method is named outside the tests, which may not keep API alive
alone; every name a module imports is read in it."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_orphaned_definitions():
    package = sorted((ROOT / "src" / "leibkit").glob("*.py"))
    files = (sorted((ROOT / "src").rglob("*.py"))
             + sorted((ROOT / "tests").rglob("*.py"))
             + sorted((ROOT / "demos").rglob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py")))
    words = Counter(w for p in files
                    for w in re.findall(r"\w+", p.read_text()))
    orphans = []
    for path in package:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            defs = [(node.lineno, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += _class_members(node)
            for lineno, name in defs:
                # one occurrence is the definition itself
                if words[name] < 2:
                    orphans.append("%s:%d %s" % (path.name, lineno, name))
    assert not orphans, "defined but never named elsewhere: %s" % orphans


def test_no_definitions_only_tests_use():
    # the same scan without the tests; dataclass fields are left out, as
    # `Claims` reads its own through `fields()`
    files = [p for d in ("src", "demos", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(w for p in files
                    for w in re.findall(r"\w+", p.read_text()))
    only_tests = []
    for path in sorted((ROOT / "src" / "leibkit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += [name for _, name in _class_members(node)
                          if name not in _fields(node)]
            only_tests += ["%s %s" % (path.name, name) for name in names
                           if words[name] < 2]
    assert not only_tests, "named only by the tests: %s" % only_tests


def _fields(cls):
    return {node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)}


def _class_members(cls):
    """(line, name) of each method and annotated field of a class; dunder
    methods are reached by syntax, not by name."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            name = node.target.id
        else:
            continue
        if not (name.startswith("__") and name.endswith("__")):
            yield node.lineno, name


def test_no_unused_imports():
    # __init__.py imports to re-export, so it is left out
    unused = []
    for path in sorted((ROOT / "src" / "leibkit").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not unused, "imported but never read: %s" % unused
