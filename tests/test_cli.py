"""Command-line surface, driven in-process through main()."""

import hashlib
import json
from importlib import resources

import pytest

from leibkit.cli import main


def run(capsys, *argv):
    # usage failures surface as SystemExit(2); fold them into the code
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


def test_iso_search_distinct(capsys):
    code, out, _ = run(capsys, "iso", "search", "--a", "A_1", "--b", "A_16")
    assert code == 0
    assert "NON-ISOMORPHIC" in out
    assert "dim_leib" in out


def test_iso_search_inconclusive(capsys):
    code, out, _ = run(capsys, "iso", "search", "--a", "A_1", "--b", "A_3",
                       "--cap", "200")
    assert code == 0
    assert "INCONCLUSIVE" in out


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


SEARCH = ["iso", "search", "--a", "A_1", "--b", "A_3"]
IDENTITY = [["1" if r == c else "0" for c in range(5)] for r in range(5)]
BAD_SCALAR_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "A_1"}, "target": {"entry": "A_1"},
    "matrix": [["abc"] + IDENTITY[0][1:]] + IDENTITY[1:]}]})
NO_COMPONENTS_WITNESS = json.dumps({"witnesses": [{
    "label": "w", "source": {"entry": "A_1"},
    "target": {"products": [{"left": 1, "right": 1}]},
    "matrix": IDENTITY}]})
BAD_CLAIM_CATALOGUE = json.dumps({
    "dimension": 5, "cases": {"c": {"claims": {"dim_sq": "x"}}},
    "entries": [{"name": "X_1", "case": "c", "products": [
        {"left": 1, "right": 1, "components": {"5": "1"}}]}]})


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


def test_missing_catalogue_file(capsys):
    code = main(["verify", "--catalogue", "/nonexistent/cat.json"])
    assert code == 2
    assert capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "leibkit" in capsys.readouterr().out
