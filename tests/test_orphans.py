"""Every module-level function and class of the package is used somewhere."""

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
            # one occurrence is the definition itself
            if words[node.name] < 2:
                orphans.append("%s:%d %s" % (path.name, node.lineno,
                                             node.name))
    assert not orphans, "defined but never named elsewhere: %s" % orphans
