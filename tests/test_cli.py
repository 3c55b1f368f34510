"""CLI tests: report schema, byte-determinism, path equivalence against the
test-side dense reference expansion, and the error -> exit-code mapping."""

from __future__ import annotations

import json

import pytest

from dense_frobenius import use_in_pipeline

from dworkzeta.cli import main

ELLIPTIC = {
    "p": 7, "a": 1, "field_poly": "conway", "n": 2, "mode": "affine",
    "terms": [{"exp": [3, 0], "coeff": [1]}, {"exp": [1, 0], "coeff": [2]},
              {"exp": [0, 0], "coeff": [1]}, {"exp": [0, 2], "coeff": [6]}],
    "precision": None, "confine": False,
}


def write_input(tmp_path, data, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_report(tmp_path, capsys):
    path = write_input(tmp_path, ELLIPTIC)
    code, out, err = run(capsys, ["compute", path, "--verify", "2"])
    assert code == 0, err
    report = json.loads(out)
    assert report["numerator"] == [1, -3, 7]
    assert report["denominator"] == [1, -7]
    assert report["mode"] == "affine" and report["v"] == 2
    assert report["verified_r"] == 2
    assert out.endswith("\n")


def test_byte_identical_and_dense_equivalent(tmp_path, capsys, monkeypatch):
    path = write_input(tmp_path, ELLIPTIC)
    _, out1, _ = run(capsys, ["compute", path])
    _, out2, _ = run(capsys, ["compute", path])
    dense_targets = use_in_pipeline(monkeypatch)
    _, out3, _ = run(capsys, ["compute", path])
    assert dense_targets
    assert out1 == out2 == out3


def test_emit_matrix(tmp_path, capsys):
    path = write_input(tmp_path, ELLIPTIC)
    code, out, _ = run(capsys, ["compute", path, "--emit-matrix"])
    assert code == 0
    report = json.loads(out)
    M = report["frobenius_matrix"]
    assert len(M) == 2 and len(M[0]) == 2 and len(M[0][0]) == 1


def test_oracle_count_subcommand(tmp_path, capsys):
    path = write_input(tmp_path, ELLIPTIC)
    code, out, _ = run(capsys, ["oracle", "count", path, "--r", "3"])
    assert code == 0
    assert json.loads(out)["counts"] == [4, 54, 379]


def test_precision_flag_recorded(tmp_path, capsys):
    path = write_input(tmp_path, ELLIPTIC)
    code, out, _ = run(capsys, ["compute", path, "--precision", "6"])
    assert code == 0
    assert json.loads(out)["N_used"] == 6


def test_exit_code_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _out, err = run(capsys, ["compute", str(path)])
    assert code == 2 and "InvalidInput" in err
    # JSON true/false where an integer is wanted (bool is an int subclass)
    terms = ELLIPTIC["terms"]
    for key, value, message in [
            ("p", True, "p, a, n must be positive integers"),
            ("a", True, "p, a, n must be positive integers"),
            ("n", True, "p, a, n must be positive integers"),
            ("precision", True, "precision must be an integer"),
            ("field_poly", [True, 1], "field_poly must be a list of integers"),
            ("terms", [dict(terms[0], exp=[True, 0])] + terms[1:],
             "term exponent [True, 0]"),
            ("terms", [dict(terms[0], coeff=[True])] + terms[1:],
             "term coefficient [True]"),
            # only a JSON boolean switches confinement
            ("confine", "false", "confine must be true or false"),
            ("confine", "no", "confine must be true or false"),
            ("confine", 1, "confine must be true or false"),
            ("confine", 0, "confine must be true or false")]:
        path = write_input(tmp_path, dict(ELLIPTIC, **{key: value}))
        code, _out, err = run(capsys, ["compute", path])
        assert code == 2 and f"InvalidInput: {message}" in err, (key, value)


def test_exit_code_unsupported_characteristic(tmp_path, capsys):
    data = dict(ELLIPTIC, p=2)
    path = write_input(tmp_path, data)
    code, _out, err = run(capsys, ["compute", path])
    assert code == 5 and "UnsupportedCharacteristic" in err


def test_exit_code_not_full_dimensional(tmp_path, capsys):
    data = dict(ELLIPTIC, mode="toric",
                terms=[{"exp": [1, 0], "coeff": [1]},
                       {"exp": [0, 0], "coeff": [1]}])
    path = write_input(tmp_path, data)
    code, _out, err = run(capsys, ["compute", path])
    assert code == 4 and "NotFullDimensional" in err


def test_exit_code_degenerate(tmp_path, capsys):
    data = {
        "p": 5, "a": 1, "field_poly": "conway", "n": 1, "mode": "toric",
        "terms": [{"exp": [2], "coeff": [1]}, {"exp": [1], "coeff": [2]},
                  {"exp": [0], "coeff": [1]}],
    }
    path = write_input(tmp_path, data)
    code, _out, err = run(capsys, ["compute", path])
    assert code == 6 and "NondegeneracyFailure" in err
    # the heuristic witness search reports the same class before the pipeline
    code2, _out, err2 = run(capsys, ["compute", path,
                                     "--check-nondegenerate", "1"])
    assert code2 == 6 and "NondegeneracyFailure" in err2


def test_check_nondegenerate_clean_pass(tmp_path, capsys):
    path = write_input(tmp_path, ELLIPTIC)
    code, out, _ = run(capsys, ["compute", path, "--check-nondegenerate", "1"])
    assert code == 0
    assert json.loads(out)["nondegeneracy_search_depth"] == 1


@pytest.mark.parametrize("change, code, name", [
    # a zero coefficient
    ({"terms": ELLIPTIC["terms"][:3] + [{"exp": [0, 2], "coeff": [7]}]},
     2, "InvalidInput"),
    # a reducible defining polynomial of F_49
    ({"a": 2, "field_poly": [0, 0, 1]}, 3, "InvalidFieldSpec"),
    # projective of degree divisible by p
    ({"mode": "projective", "terms": [{"exp": [7, 0], "coeff": [1]},
                                      {"exp": [0, 7], "coeff": [1]}]},
     2, "InvalidInput"),
    # projective with z dividing every monomial
    ({"n": 3, "mode": "projective",
      "terms": [{"exp": [2, 0, 1], "coeff": [1]},
                {"exp": [0, 2, 1], "coeff": [1]},
                {"exp": [1, 1, 1], "coeff": [1]}]}, 6, "NondegeneracyFailure"),
    # characteristic 2
    ({"p": 2}, 5, "UnsupportedCharacteristic"),
    # a defining polynomial of degree 2 for F_7 (a = 1)
    ({"field_poly": [3, 0, 1]}, 2, "InvalidInput"),
    # a precision override below 1
    ({"precision": 0}, 2, "InvalidInput"),
])
def test_check_nondegenerate_invalid_input_exit_code(tmp_path, capsys, change,
                                                     code, name):
    path = write_input(tmp_path, dict(ELLIPTIC, **change))
    for extra in ([], ["--check-nondegenerate", "2"]):
        got, _out, err = run(capsys, ["compute", path] + extra)
        assert got == code and err.startswith(f"{name}: "), (extra, err)
