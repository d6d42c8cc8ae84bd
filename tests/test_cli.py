"""Command-line surface, driven in-process through main()."""

import hashlib
import json
from importlib import resources

import pytest

from leibkit.cli import main


def run(capsys, *argv):
    # argparse failures surface as SystemExit(2); fold them into the code
    try:
        code = main(list(argv))
    except SystemExit as ex:
        code = ex.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_single_entry(capsys):
    code, out, err = run(capsys, "verify", "--entry", "A_1")
    assert code == 0
    assert "A_1" in out and "ok" in out
    shipped = (resources.files("leibkit") / "data" / "catalogue.json")
    digest = hashlib.sha256(shipped.read_text().encode()).hexdigest()
    assert "catalogue sha256 %s" % digest in out
    assert err == ""


def test_verify_explicit_point(capsys):
    code, out, _ = run(capsys, "verify", "--entry", "A_5:alpha=2")
    assert code == 0
    assert "A_5" in out
    assert "1 point" in out
    assert " ok" in out


def test_verify_known_failure_exits_nonzero(capsys):
    code, out, _ = run(capsys, "verify", "--entry", "A_242", "--samples", "2")
    assert code == 1
    assert "claim_dim_leib" in out
    assert "FAIL" in out


def test_verify_unknown_entry(capsys):
    code, _, err = run(capsys, "verify", "--entry", "A_999")
    assert code == 2
    assert "A_999" in err


def test_bad_entry_spec(capsys):
    code, _, err = run(capsys, "verify", "--entry", "A_5:alpha")
    assert code == 2
    assert "alpha" in err


def test_invariants_output(capsys):
    code, out, _ = run(capsys, "invariants", "--entry", "A_5:alpha=2")
    assert code == 0
    assert "alpha=2" in out
    assert "lower_central_dims=(5,3,2,1,0)" in out
    assert "dim_leib=1" in out


def test_invariants_deterministic(capsys):
    first = run(capsys, "invariants", "--entry", "A_17", "--samples", "2")
    second = run(capsys, "invariants", "--entry", "A_17", "--samples", "2")
    assert first == second


def test_iso_verify_all_fixtures(capsys):
    code, out, _ = run(capsys, "iso", "verify")
    assert code == 0
    assert "form-ii-vs-iv" in out
    assert out.count("ok") >= 10


def test_iso_verify_label_filter(capsys):
    code, out, _ = run(capsys, "iso", "verify", "--label", "pair-A_5")
    assert code == 0
    assert "pair-A_5" in out and "filiform-A_1" not in out
    code, _, _ = run(capsys, "iso", "verify", "--label", "no-such-fixture")
    assert code == 2


def test_iso_search_certified(capsys):
    code, out, _ = run(capsys, "iso", "search", "--a", "A_116:alpha=2",
                       "--b", "A_116:alpha=-2")
    assert code == 0
    assert "CERTIFIED" in out
    assert "candidates" in out


def test_iso_search_large_prime(capsys):
    # the search holds no table of size p, so an 18-digit prime is cheap
    code, out, _ = run(capsys, "iso", "search", "--a", "A_17:alpha=2",
                       "--b", "A_17:alpha=1/2",
                       "--prime", "1000000000000000009", "--cap", "3")
    assert code == 0
    assert "candidates considered: 3\n" in out


def test_iso_search_counters_on_stderr(capsys):
    code, out, err = run(capsys, "iso", "search", "--a", "A_116:alpha=2",
                         "--b", "A_116:alpha=-2")
    assert code == 0
    assert "candidates considered: 16\n" in out
    assert "tried" not in out and "search mod" not in out
    lines = err.splitlines()
    assert lines[0] == "search mod 13: found after 16 candidates"
    assert lines[1].split() == ["level", "tried", "dependent", "relations",
                                "inconsistent", "rank", "found", "passed"]
    rows = [line.split() for line in lines[2:]]
    assert [r[:2] for r in rows] == [["class", "1"], ["class", "2"],
                                     ["layer", "3"]]
    assert sum(int(r[2]) for r in rows) == 16
    for r in rows:
        assert int(r[2]) == sum(int(x) for x in r[3:])


def test_iso_search_cap_is_per_prime(capsys):
    # the first witness mod 5 does not lift, and the search that goes on
    # lifting the later ones is still the only search at that prime
    code, out, err = run(capsys, "iso", "search", "--a", "A_182:alpha=2",
                         "--b", "A_182:alpha=3", "--prime", "5",
                         "--cap", "3000")
    assert code == 0
    assert "candidates considered: 3000\n" in out
    assert [line for line in err.splitlines()
            if line.startswith("search mod 5:")] == [
        "search mod 5: found after 3000 candidates"]


def test_iso_search_distinct(capsys):
    code, out, _ = run(capsys, "iso", "search", "--a", "A_1", "--b", "A_16")
    assert code == 0
    assert "NON-ISOMORPHIC" in out
    assert "dim_leib" in out


def test_iso_search_inconclusive(capsys):
    # A_2 and A_3 share the signature and dim Der
    code, out, _ = run(capsys, "iso", "search", "--a", "A_2", "--b", "A_3",
                       "--cap", "200")
    assert code == 0
    assert "INCONCLUSIVE" in out
    assert "candidates considered: 400\n" in out


def test_iso_search_refuted_by_dim_der(capsys):
    # equal signatures, dim Der 8 and 7: settled before any search
    code, out, err = run(capsys, "iso", "search", "--a", "A_36",
                         "--b", "A_37")
    assert code == 0
    assert "NON-ISOMORPHIC (signature certificate)\n" in out
    assert "dim_der" in out and "candidates considered: 0\n" in out
    assert "search mod" not in err


def test_canon_kinds(capsys):
    code, out, _ = run(capsys, "canon", "[[0,2],[4,0]]")
    assert code == 0
    assert "(v)" in out and "c = 1/2" in out
    code, out, _ = run(capsys, "canon", "[[0,1],[-1,0]]")
    assert code == 0 and "(i)" in out
    code, out, _ = run(capsys, "canon", "[[1,0],[0,1]]")
    assert code == 0 and "(iii)" in out
    code, out, _ = run(capsys, "canon", "[[2,0],[0,0]]")
    assert code == 0 and "sqrt" in out


def test_canon_needs_a_second_radical(capsys):
    # a Q(i) form whose witness adjoins one root and then needs another
    assert run(capsys, "canon", "[[i,1],[0,1]]") == (
        2, "", "error: sqrt of (1/8-1/2*i)-1/8*sqrt((1-4*i)) leaves its "
        "quadratic extension\n")


def test_canon_rejects_garbage(capsys):
    assert run(capsys, "canon", "[[1,2],[3]]")[0] == 2
    assert run(capsys, "canon", "not a matrix")[0] == 2


def test_report_json(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["report", "--samples", "1", "--format", "json",
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 1  # the one recorded discrepancy keeps this nonzero
    doc = json.loads(out_path.read_text())
    assert doc["tool"] == "leibkit"
    assert doc["summary"]["entries"] == 277
    assert doc["summary"]["failed_checks"] >= 1
    assert doc["exit_status"] == 1
    assert {"A_242"} == set(doc["summary"]["failing_entries"])
    assert doc["signature_collisions"]
    assert len(doc["catalogue_sha256"]) == 64


def test_report_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["report", "--samples", "1", "--format", "json", "--out", str(a)])
    main(["report", "--samples", "1", "--format", "json", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_report_text_bytes(capsys):
    # the same bytes perfbench's REPORT_SHA256 pins; A_242 fails, so exit 1
    assert main(["report"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "91791d979bdeedafc903ae52d7811473efab9e934a570731b5b5ecee936de647"


SEARCH = ["iso", "search", "--a", "A_1", "--b", "A_3"]
IDENTITY = [["1" if r == c else "0" for c in range(5)] for r in range(5)]
BAD_SCALAR_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "A_1"}, "target": {"entry": "A_1"},
    "matrix": [["abc"] + IDENTITY[0][1:]] + IDENTITY[1:]}]})
NO_COMPONENTS_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "A_1"},
    "target": {"products": [{"left": 1, "right": 1}]},
    "matrix": IDENTITY}]})
UNKNOWN_ENTRY_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "A_999"}, "target": {"entry": "A_1"},
    "matrix": IDENTITY}]})
IRRATIONAL_PARAM_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "A_5", "params": {"alpha": "sqrt(2)"}},
    "target": {"entry": "A_5", "params": {"alpha": "2"}},
    "matrix": IDENTITY}]})
# the [1,1] product listed twice in an inline table
TWICE_LISTED_WITNESS = json.dumps({"witnesses": [{
    "label": "x", "source": {"products": [
        {"left": 1, "right": 1, "components": {"5": "1"}}] * 2},
    "target": {"products": [
        {"left": 1, "right": 1, "components": {"5": "1"}}]},
    "matrix": IDENTITY}]})
BAD_CLAIM_CATALOGUE = json.dumps({
    "dimension": 5, "cases": {"c": {"claims": {"dim_sq": "x"}}},
    "entries": [{"name": "X_1", "case": "c", "products": [
        {"left": 1, "right": 1, "components": {"5": "1"}}]}]})


def one_product_catalogue(product):
    return json.dumps({
        "dimension": 5, "cases": {"c": {"claims": {}}},
        "entries": [{"name": "X_1", "case": "c", "products": [product]}]})


def one_entry_catalogue(**fields):
    """A one-entry catalogue whose entry has one parameter, alpha, unless
    `fields` says otherwise."""
    entry = {"name": "X_1", "case": "c", "params": ["alpha"], "products": [
        {"left": 1, "right": 1, "components": {"5": "alpha"}}]}
    return json.dumps({"dimension": 5, "cases": {"c": {"claims": {}}},
                       "entries": [dict(entry, **fields)]})


# every entry field of the wrong shape, then a constant zero divisor
MALFORMED_ENTRY_CATALOGUES = [one_entry_catalogue(**fields) for fields in (
    {"params": 5}, {"params": ["alpha", 1]}, {"params": "alpha"},
    {"params": ["alpha", "alpha"]}, {"params": ["alpha", "i"]},
    {"params": ["alpha", "2x"]},
    {"constraints": 5}, {"constraints_any": [5]}, {"constraints_any": 5},
    {"iso": 3}, {"iso": {"pairs": [1]}}, {"iso": {"pairs": 1}},
    {"iso": {"statement": 3}}, {"case": [1]},
    {"products": [{"left": 1, "right": 1,
                   "components": {"5": "1/(1-1)"}}]})]

# claims, iso maps, names, cases, any-clauses and the dimension
MALFORMED_DOCUMENTS = [
    *[one_entry_catalogue(**fields) for fields in (
        {"iso": {"pairs": [{"beta": "1"}]}}, {"name": ""}, {"case": "d"},
        {"constraints_any": [[]]})],
    *[json.dumps(dict(json.loads(one_entry_catalogue()), **fields))
      for fields in ({"cases": {"c": {"claims": {"dim_squared": 1}}}},
                     {"dimension": 4})]]

# each factor parses, but their product is past CPython's int-string limit
THREES = "3" * 2500

BOOL_INDEX_CATALOGUE = one_product_catalogue(
    {"left": True, "right": 1, "components": {"5": "1"}})
PADDED_KEY_CATALOGUE = one_product_catalogue(
    {"left": 1, "right": 1, "components": {"05": "1"}})


def test_iso_verify_failing_witness(capsys, tmp_path):
    path = tmp_path / "witnesses.json"
    path.write_text(json.dumps({"witnesses": [{
        "label": "w", "source": {"entry": "A_1"}, "target": {"entry": "A_3"},
        "matrix": IDENTITY}]}))
    code, out, _ = run(capsys, "iso", "verify", "--fixtures", str(path))
    assert code == 1
    assert ("w                      FAIL  product (1,3) is not preserved\n"
            in out)
    assert out.endswith("1 witnesses, 1 failed\n")


@pytest.mark.parametrize("argv, file_text", [
    *[(SEARCH + ["--prime", p], None)
      for p in ("4", "7", "2", "1", "0", "-13")],
    (SEARCH + ["--prime", "13", "--prime", "15"], None),
    (SEARCH + ["--cap", "-1"], None),
    (SEARCH + ["--cap", "0"], None),
    (["verify", "--entry", "A_1", "--samples", "0"], None),
    (["invariants", "--entry", "A_1", "--samples", "-3"], None),
    (["report", "--samples", "0"], None),
    (["verify", "--catalogue", "FILE"], "[]"),
    (["iso", "verify", "--fixtures", "FILE"], "[]"),
    (["iso", "verify", "--fixtures", "FILE"], '{"witnesses": [{}]}'),
    (["iso", "verify", "--fixtures", "FILE"], BAD_SCALAR_WITNESS),
    (["iso", "verify", "--fixtures", "FILE"], NO_COMPONENTS_WITNESS),
    (["verify", "--catalogue", "FILE"], BAD_CLAIM_CATALOGUE),
    (["verify", "--entry", "A_5:alpha=sqrt(2)"], None),
    (["iso", "verify", "--fixtures", "FILE"], UNKNOWN_ENTRY_WITNESS),
    (["iso", "verify", "--fixtures", "FILE"], IRRATIONAL_PARAM_WITNESS),
    (["invariants", "--entry", "A_5:beta=1"], None),
    (["verify", "--catalogue", "FILE"], BOOL_INDEX_CATALOGUE),
    (["verify", "--catalogue", "FILE"], PADDED_KEY_CATALOGUE),
    (["iso", "verify", "--fixtures", "FILE"], TWICE_LISTED_WITNESS),
    (SEARCH[:2] + ["--a", "A_5:alpha=1/(1-1)", "--b", "A_5:alpha=2"], None),
    (SEARCH[:2] + ["--a", "A_5:alpha=sqrt(2)*sqrt(3)", "--b", "A_5:alpha=2"],
     None),
    (["canon", "[[1/(1-1),0],[0,1]]"], None),
    (["canon", "[[sqrt(2),0],[0,sqrt(3)]]"], None),
    *[(["verify", "--catalogue", "FILE"], text)
      for text in MALFORMED_ENTRY_CATALOGUES],
    (["verify", "--entry", "A_5:alpha=1,alpha=2"], None),
    (SEARCH + ["--prime", "13", "--prime", "13"], None),
    *[(["verify", "--catalogue", "FILE"], text)
      for text in MALFORMED_DOCUMENTS],
    (["canon", "[[sqrt(i),0],[0,1]]"], None),
    (["invariants", "--entry", "A_5:alpha=%s*%s" % (THREES, THREES)], None),
    (["verify", "--entry", "A_242:alpha=%s*%s" % (THREES, THREES)], None),
    (["verify", "--entry", "A_5:"], None),
    (["canon", "[[1,2],[3,4],[5,6]]"], None),
])
def test_misuse_exits_2(capsys, tmp_path, argv, file_text):
    if file_text is not None:
        path = tmp_path / "input.json"
        path.write_text(file_text)
        argv = [str(path) if arg == "FILE" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def product_catalogue(text):
    """The one-entry catalogue over alpha whose [e1, e1] is `text` e5."""
    return one_entry_catalogue(products=[
        {"left": 1, "right": 1, "components": {"5": text}}])


NOT_UTF8 = b"\xff\xfe{"
# every command that reads a catalogue file; the witness file names X_1
CATALOGUE_READERS = {
    "verify": ["verify", "--catalogue", "CAT"],
    "invariants": ["invariants", "--catalogue", "CAT"],
    "report": ["report", "--catalogue", "CAT"],
    "iso-verify": ["iso", "verify", "--catalogue", "CAT", "--fixtures", "WIT"],
    "iso-search": ["iso", "search", "--catalogue", "CAT",
                   "--a", "X_1:alpha=0", "--b", "X_1:alpha=1"],
}
X_1_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "X_1", "params": {"alpha": "0"}},
    "target": {"entry": "X_1", "params": {"alpha": "1"}},
    "matrix": IDENTITY}]})
MALFORMED_CATALOGUES = {
    "not-utf8": NOT_UTF8,
    "invalid-json": "{not json",
    "top-level-array": "[]",
    "undeclared-parameter": product_catalogue("beta"),
    "sqrt": product_catalogue("sqrt(2)"),
    # alpha = 0 is admissible and the first sample point
    "zero-divisor": product_catalogue("1/alpha"),
    "zero-divisor-constraint": one_entry_catalogue(constraints=["1/alpha"]),
}


def inline_witness(target_components, matrix):
    """A witness from [e1, e1] = e2 to the inline table whose [e1, e1]
    has `target_components`."""
    def side(components):
        return {"products": [
            {"left": 1, "right": 1, "components": components}]}
    return json.dumps({"witnesses": [{
        "label": "w", "source": side({"2": "1"}),
        "target": side(target_components), "matrix": matrix}]})


MALFORMED_WITNESSES = {
    "not-utf8": NOT_UTF8,
    "invalid-json": "{not json",
    "top-level-array": "[]",
    "parameter-in-literal": json.dumps({"witnesses": [{
        "label": "w", "source": {"entry": "A_5", "params": {"alpha": "alpha"}},
        "target": {"entry": "A_5", "params": {"alpha": "2"}},
        "matrix": IDENTITY}]}),
    "duplicate-label": json.dumps({"witnesses": [{
        "label": "w", "source": {"entry": "A_1"}, "target": {"entry": "A_1"},
        "matrix": IDENTITY}] * 2}),
    # the matrix needs sqrt(2) and the target's table sqrt(3)
    "radicals-matrix-and-table": inline_witness(
        {"2": "sqrt(3)"}, [["sqrt(2)"] + IDENTITY[0][1:]] + IDENTITY[1:]),
    # one table needs both, under a non-diagonal matrix
    "radicals-in-one-table": inline_witness(
        {"2": "sqrt(2)", "3": "sqrt(3)"},
        [["1", "1"] + IDENTITY[0][2:]] + IDENTITY[1:]),
}


@pytest.mark.parametrize("catalogue, witnesses, argv", [
    *[pytest.param(text, X_1_WITNESS, argv, id="catalogue-%s-%s" % (case, cmd))
      for case, text in MALFORMED_CATALOGUES.items()
      for cmd, argv in CATALOGUE_READERS.items()],
    *[pytest.param(None, text, ["iso", "verify", "--fixtures", "WIT"],
                   id="witnesses-%s-iso-verify" % case)
      for case, text in MALFORMED_WITNESSES.items()],
])
def test_malformed_input_one_error_line(capsys, tmp_path, catalogue,
                                        witnesses, argv):
    files = {"CAT": catalogue, "WIT": witnesses}
    for name, content in files.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
    code, out, err = run(capsys, *[str(tmp_path / arg) if arg in files
                                   else arg for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_iso_search_non_nilpotent_pair(capsys, tmp_path):
    # [e1,e2] = e2 keeps e2 in every term of the lower central series
    path = tmp_path / "cat.json"
    path.write_text(one_entry_catalogue(params=[], products=[
        {"left": 1, "right": 2, "components": {"2": "1"}},
        {"left": 1, "right": 1, "components": {"5": "1"}}]))
    code, out, err = run(capsys, "iso", "search", "--catalogue", str(path),
                         "--a", "X_1", "--b", "X_1")
    assert code == 0 and err == ""
    assert out.splitlines()[2:] == [
        "INCONCLUSIVE", "candidates considered: 0",
        "the layered search needs nilpotent algebras"]


# [e1,e2] = e2 and [e3,e3] = e4: the lower central series stalls at
# A^3 = span(e2), so dims are (5, 2, 1) and dim A^4 = 1
STALLED_CATALOGUE = json.dumps({
    "dimension": 5,
    "cases": {"c": {"claims": {"dim_sq": 2, "dim_cube": 0,
                               "dim_fourth": 0}}},
    "entries": [{"name": "X_1", "case": "c", "products": [
        {"left": 1, "right": 2, "components": {"2": "1"}},
        {"left": 3, "right": 3, "components": {"4": "1"}}]}]})


def test_stalled_series_claims(capsys, tmp_path):
    path = tmp_path / "stalled.json"
    path.write_text(STALLED_CATALOGUE)
    code, out, err = run(capsys, "verify", "--catalogue", str(path))
    assert code == 1 and err == ""
    assert "nilpotent: FAIL (lower central series stalls)" in out
    assert "claim_dim_sq" not in out
    assert "claim_dim_cube: FAIL (claimed 0, computed 1)" in out
    assert "claim_dim_fourth: FAIL (claimed 0, computed 1)" in out


def test_missing_catalogue_file(capsys):
    code = main(["verify", "--catalogue", "/nonexistent/cat.json"])
    assert code == 2
    assert capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "leibkit" in capsys.readouterr().out
