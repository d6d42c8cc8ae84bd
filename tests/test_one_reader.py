"""One place each, checked on the package's syntax trees: JSON is
decoded only by the catalogue's document reader, check outcomes are
built only by `verify_point`, and expression texts are parsed through
one memo: `exprs.parse_expr` is called only by `catalogue._parsed` and
`exprs.parse_scalar`, `_parsed` only by `parse_expr_checked` and
`_admissible`, and the memo is cleared only by `parse_catalogue`, once
per load.  One elimination routine inverts pivots, `linalg._echelon`,
for every elimination, exact or over GF(p), the witness search's
included: in `linalg` only `_echelon` calls `inv`; `iso` calls no
`.inv()`, its one `inv` being `Matrix.inv` of the source's word matrix,
cached by `adapted_search` and called only by `leaf` for a witness, so
once in a search that reports one and never in one that does not; and
its one `pow` is the root of a linear check in `_zeros`.  The
witness search checks every relation through one residual: its int
brackets mod p are taken only by `residual` and by `images` for the
word images, its set-up and leaf running on the reduced algebra's own
methods; and its candidates are enumerated in one way, each call of
`_runs` handing its runs straight to `_sweep`.  An
algebra multiplies in one way, off the table's index by consumed
component, and has no second product loop (no `_bracket_sparse`):
`check_leibniz`, `subspace_product` and `_with_units`, the products
[u, e_x] from which `bracket` and the column products of `base_change`
and `iso.verify_witness` are summed, are its only readers, so
`check_leibniz`, `_leib_ideal` and `_lower_central_series` never bracket
two vectors.  Every scalar class has the fused multiply-add `muladd`,
and the kernel's four multiply-accumulate loops call it.  The scalar
tower's rules live in `scalars`: outside it, only `exprs.format_scalar`
tests for a Fraction or reads a scalar's field, and inside it only
`promote` and `_as_fraction` test for a Fraction; square roots are taken
and radicals adjoined only there, `adjoin_sqrt` being the one routine to
build an extension field and `_root_over` the one root formula, which
only `field_sqrt` calls, on Q(i) with `rational_sqrt`; and only
`reduce_mod_p` and `lift_mod_p` read the residue that plays the role of
i, mapping Q(i) into GF(p) and back.
Vectors change between dense tuples and sparse rows (`linalg._support`
and `_dense`) only at the public edge, where a caller hands a dense
vector in or reads one out: `Matrix.rref`, `Subspace.__init__` and
`Subspace.basis`, the algebra's `bracket`, `check_leibniz` and
`base_change`, and `iso.verify_witness`."""

import ast
import functools
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibkit"


@functools.cache
def _package():
    """(file name, syntax tree, node -> innermost enclosing function name)
    for each module of the package, parsed once for all the scans."""
    modules = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # breadth first, so an inner function overrides its outer one
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(node), node.name))
        modules.append((path.name, tree, owner))
    return modules


def _nodes(matches, name):
    """(file, innermost enclosing function) of each syntax node in the
    package that `matches`; `name` may not be imported under an alias or
    be a module imported from, since either would hide a use from the
    scan."""
    found = []
    for file, tree, owner in _package():
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.ImportFrom)
                        and node.module == name), file
            assert not (isinstance(node, (ast.Import, ast.ImportFrom))
                        and any(a.name == name and a.asname
                                for a in node.names)), file
        found += [(file, owner.get(node))
                  for node in ast.walk(tree) if matches(node)]
    return found


def _calls(matches, name):
    """_nodes for the calls whose callee `matches`."""
    return _nodes(lambda node: isinstance(node, ast.Call)
                  and matches(node.func), name)


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


def test_one_parse_memo():
    def named(name):
        return lambda func: name in (getattr(func, "id", None),
                                     getattr(func, "attr", None))
    parses = _calls(named("parse_expr"), "parse_expr")
    assert set(parses) == {("catalogue.py", "_parsed"),
                           ("exprs.py", "parse_scalar")}, parses
    memo = _calls(named("_parsed"), "_parsed")
    assert set(memo) == {("catalogue.py", "parse_expr_checked"),
                         ("catalogue.py", "_admissible")}, memo
    clears = _calls(named("cache_clear"), "cache_clear")
    assert clears == [("catalogue.py", "parse_catalogue")], clears


def test_one_elimination_per_field():
    pows = _calls(lambda func: getattr(func, "id", None) == "pow", "pow")
    assert [c for c in pows if c[0] == "iso.py"] == [("iso.py", "_zeros")]
    invs = _calls(lambda func: getattr(func, "attr", None) == "inv", "inv")
    assert [c for c in invs if c[0] == "linalg.py"] == [("linalg.py",
                                                         "_echelon")]
    assert [c for c in invs if c[0] == "iso.py"] == []
    # `words.inv`, a `Matrix.inv` whose elimination is `_echelon`'s, is
    # cached as `words_inv` and called only for a witness that passed
    refs = _nodes(lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "inv", "inv")
    words = _nodes(lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "inv"
                   and getattr(node.value, "id", None) == "words", "inv")
    assert [c for c in refs if c[0] == "iso.py"] == words == [
        ("iso.py", "adapted_search")]
    calls = _calls(lambda func: getattr(func, "id", None) == "words_inv",
                   "words_inv")
    assert calls == [("iso.py", "leaf")], calls


def test_dense_sparse_conversions_only_at_the_edge():
    found = set()
    for name in ("_support", "_dense"):
        found |= set(_nodes(lambda node: isinstance(node, ast.Name)
                            and node.id == name, name))
    # "__init__" is Subspace's: Matrix's promotes without a sparse row
    assert found == {("linalg.py", "rref"), ("linalg.py", "__init__"),
                     ("linalg.py", "basis"),
                     ("algebra.py", "bracket"),
                     ("algebra.py", "check_leibniz"),
                     ("algebra.py", "base_change"),
                     ("iso.py", "verify_witness")}, found


def test_one_residual_per_relation():
    brks = _calls(lambda func: getattr(func, "id", None) == "_brk", "_brk")
    assert set(brks) == {("iso.py", name) for name in (
        "images", "residual")}, brks


def _named(node, name):
    return name in (getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None))


def test_structure_passes_bracket_no_vectors():
    # one product loop: no `_bracket_sparse` is defined or named, and the
    # table's index is read by the Leibniz check, by [A, V] and by
    # `_with_units`, the products [u, e_x] from which `bracket`, [U, V]
    # and the column products of a base change or a witness check are
    # summed; so check_leibniz, _leib_ideal and _lower_central_series
    # bracket no two vectors
    assert _nodes(lambda node: _named(node, "_bracket_sparse"),
                  "_bracket_sparse") == []
    passes = _calls(lambda func: _named(func, "_unit_products"),
                    "_unit_products")
    assert set(passes) == {("algebra.py", "check_leibniz"),
                           ("algebra.py", "subspace_product"),
                           ("algebra.py", "_with_units")}, passes
    columns = _calls(lambda func: _named(func, "_column_products"),
                     "_column_products")
    assert set(columns) == {("algebra.py", "base_change"),
                            ("iso.py", "verify_witness")}, columns
    brackets = _calls(lambda func: _named(func, "bracket"), "bracket")
    assert set(brackets) == {("iso.py", "_words"),
                             ("forms.py", "extract_v_form")}, brackets


def test_kernel_loops_multiply_add_in_one_step():
    # every class of `scalars` with a product has `muladd`, and the four
    # loops that accumulate t + f*y call it, not `+` on a product
    bound = {}      # class of `scalars` -> the names its body binds
    [tree] = [tree for file, tree, _ in _package() if file == "scalars.py"]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = bound[node.name] = set()
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    names.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    names |= {t.id for t in stmt.targets
                              if isinstance(t, ast.Name)}
    scalar_classes = {c for c, names in bound.items() if "__mul__" in names}
    assert scalar_classes == {"GaussianRational", "QuadExtElem",
                              "PrimeFieldElem"}, bound
    assert all("muladd" in bound[c] for c in scalar_classes), bound
    calls = _calls(lambda func: getattr(func, "attr", None) == "muladd",
                   "muladd")
    assert set(calls) == {("linalg.py", "_sub_multiple"),
                          ("linalg.py", "_combine"), ("linalg.py", "_dot"),
                          ("algebra.py", "_unit_products")}, calls


def _names(func, name):
    return getattr(func, "id", None) == name


def test_runs_iterated_only_by_the_sweep():
    runs = _calls(lambda func: _names(func, "_runs"), "_runs")
    swept = _calls(lambda func: _names(func, "_sweep"), "_sweep")
    handed = _nodes(lambda node: isinstance(node, ast.Call)
                    and _names(node.func, "_sweep")
                    and any(isinstance(arg, ast.Call)
                            and _names(arg.func, "_runs")
                            for arg in node.args), "_sweep")
    assert runs and runs == handed == swept, (runs, handed, swept)
    assert {file for file, _ in runs} == {"iso.py"}


def _outside_scalars(found):
    return [c for c in found if c[0] != "scalars.py"]


def _names_fraction(node):
    return "Fraction" in (getattr(node, "id", None),
                          getattr(node, "attr", None))


def test_fraction_tests_only_in_scalars():
    fraction_tests = _nodes(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and any(_names_fraction(n)
                for arg in node.args[1:] for n in ast.walk(arg)),
        "Fraction")
    assert _outside_scalars(fraction_tests) == [
        ("exprs.py", "format_scalar")], fraction_tests
    # inside it, every other routine takes a Fraction through `promote`
    assert {c for c in fraction_tests if c[0] == "scalars.py"} == {
        ("scalars.py", "promote"), ("scalars.py", "_as_fraction")}, \
        fraction_tests


def test_scalar_fields_read_only_in_scalars():
    fields = _nodes(lambda node: isinstance(node, ast.Attribute)
                    and node.attr == "field", "field")
    assert _outside_scalars(fields) == [("exprs.py", "format_scalar")], fields


def test_roots_and_residues_only_in_scalars():
    for name in ("QuadExtField", "_root_over"):
        calls = _calls(lambda func: name in (getattr(func, "id", None),
                                             getattr(func, "attr", None)),
                       name)
        assert _outside_scalars(calls) == [], calls
    # one root formula serves both floors: only `field_sqrt` names the
    # rational root or the routine that takes a root one floor up
    for name in ("rational_sqrt", "_root_over"):
        named = _nodes(lambda node: name in (getattr(node, "id", None),
                                             getattr(node, "attr", None)),
                       name)
        assert named and set(named) == {("scalars.py", "field_sqrt")}, named
    built = _calls(lambda func: _names(func, "QuadExtField"), "QuadExtField")
    assert built == [("scalars.py", "adjoin_sqrt")], built
    reads = _nodes(lambda node: isinstance(node, ast.Attribute)
                   and node.attr == "i_residue", "i_residue")
    assert set(reads) == {("scalars.py", "reduce_mod_p"),
                          ("scalars.py", "lift_mod_p")}, reads
