"""CLI tests: report schema, byte-determinism, path equivalence against the
test-side dense reference expansion, and the error -> exit-code mapping."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dense_frobenius import use_in_pipeline

import dworkzeta
from dworkzeta.cli import main
from dworkzeta.errors import BudgetExceeded
from dworkzeta.jacobian import expected_rank

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
    # JSON of the wrong shape: a top-level value that is not an object (a
    # string holds every key as a substring), and terms that are not a list
    for data, message in [("p a n mode terms", "input must be a JSON object"),
                          (dict(ELLIPTIC, terms=5), "terms must be a list")]:
        path = write_input(tmp_path, data)
        for argv in (["compute", path], ["oracle", "count", path]):
            code, _out, err = run(capsys, argv)
            assert code == 2 and f"InvalidInput: {message}" in err, argv


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


@pytest.mark.parametrize("command, flags", [
    (["compute"], ["--verify", "-1"]),
    (["compute"], ["--check-nondegenerate", "-2"]),
    (["oracle", "count"], ["--r", "0"]),
    (["oracle", "count"], ["--r", "-1"]),
])
def test_negative_depth_rejected(tmp_path, capsys, command, flags):
    path = write_input(tmp_path, ELLIPTIC)
    code, out, err = run(capsys, command + [path] + flags)
    assert code == 2 and err.startswith("InvalidInput: ") and not out, err


@pytest.mark.parametrize("change, code, name", [
    # F_7[t]/(t^2) is not a field
    ({"a": 2, "field_poly": [0, 0, 1]}, 3, "InvalidFieldSpec"),
    # a duplicated exponent
    ({"terms": ELLIPTIC["terms"] + [{"exp": [3, 0], "coeff": [2]}]},
     2, "InvalidInput"),
    # a composite characteristic
    ({"p": 9}, 3, "InvalidFieldSpec"),
    # a composite characteristic too large for a float square root
    ({"p": 10 ** 400}, 3, "InvalidFieldSpec"),
    # the same two characteristics with a Conway polynomial to find: the
    # prime check comes before the search (which would factor p^m - 1)
    ({"p": 9, "a": 2}, 3, "InvalidFieldSpec"),
    ({"p": 10 ** 400, "a": 2}, 3, "InvalidFieldSpec"),
])
def test_oracle_count_validates_like_compute(tmp_path, capsys, change, code,
                                             name):
    path = write_input(tmp_path, dict(ELLIPTIC, **change))
    for argv in (["compute", path], ["oracle", "count", path, "--r", "1"]):
        got, out, err = run(capsys, argv)
        assert got == code and err.startswith(f"{name}: ") and not out, (
            argv, err)


@pytest.mark.parametrize("text, message", [
    # an integer of 5,001 digits, past the int-string conversion limit
    # (json.dumps cannot write it either, so the text is edited)
    (json.dumps(ELLIPTIC).replace('"p": 7', '"p": 1' + "0" * 5000).encode(),
     "Exceeds the limit"),
    # a file that is not UTF-8 (a Latin-1 key)
    (json.dumps(ELLIPTIC).replace('"mode"', '"modé"', 1)
     .encode("latin-1"), "can't decode byte 0xe9"),
], ids=["huge-integer", "latin-1"])
def test_undecodable_input_is_invalid(tmp_path, capsys, text, message):
    path = tmp_path / "in.json"
    path.write_bytes(text)
    for argv in (["compute", str(path)],
                 ["oracle", "count", str(path), "--r", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and not out, (argv, err)
        assert err.startswith("InvalidInput: input is not valid JSON: ")
        assert message in err, err


@pytest.mark.parametrize("p, a, shown", [
    (9, 2, "p = 9 is"),
    (10 ** 400, 1, "p = a 1329-bit number is"),
    (10 ** 400, 2, "p = a 1329-bit number is"),
])
def test_composite_characteristic_message(tmp_path, capsys, p, a, shown):
    path = write_input(tmp_path, dict(ELLIPTIC, p=p, a=a))
    code, out, err = run(capsys, ["compute", path])
    assert code == 3 and not out
    assert err.startswith(f"InvalidFieldSpec: {shown} not an odd prime"), err
    assert len(err) < 80, err


def test_oracle_count_large_prime_exceeds_budget(tmp_path, capsys):
    # A 61-bit prime passes the input check at once (the prime test is
    # Miller-Rabin, not trial division), and the count over p^2 points is
    # refused by the budget.
    path = write_input(tmp_path, dict(ELLIPTIC, p=2 ** 61 - 1))
    code, out, err = run(capsys, ["oracle", "count", path, "--r", "1"])
    assert code == 13 and not out
    assert err.startswith("BudgetExceeded: "), err


def run_within(seconds, argv):
    """The CLI in a fresh interpreter; a run that outlasts `seconds` fails
    the test with TimeoutExpired instead of holding it."""
    src = str(Path(dworkzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "dworkzeta.cli", *argv],
                          capture_output=True, text=True, timeout=seconds,
                          env=env)


TORIC_SIMPLEX = {"p": 7, "a": 1, "n": 2, "mode": "toric",
                 "terms": [{"exp": [1, 0], "coeff": [1]},
                           {"exp": [0, 1], "coeff": [1]},
                           {"exp": [-1, -1], "coeff": [1]}]}


@pytest.mark.parametrize("data, command, what", [
    # v * p congruence solutions
    (dict(ELLIPTIC, a=1), ["compute"], "congruence solutions"),
    # a simplex has one solution per target, but p*E series coefficients
    (TORIC_SIMPLEX, ["compute"], "splitting coefficients"),
    # the Conway search over p^2 candidates, before either command's own check
    (dict(ELLIPTIC, a=2), ["compute"], "Conway search"),
    (dict(ELLIPTIC, a=2), ["oracle", "count"], "Conway search"),
], ids=["compute-a1", "compute-simplex", "compute-a2", "oracle-count-a2"])
def test_large_prime_refused_by_budget_at_once(tmp_path, data, command, what):
    path = write_input(tmp_path, dict(data, p=2 ** 61 - 1))
    proc = run_within(5, [*command, path])
    assert proc.returncode == 13 and not proc.stdout, proc.stderr
    assert proc.stderr.startswith("BudgetExceeded: "), proc.stderr
    assert what in proc.stderr, proc.stderr


def test_huge_exponent_refused_by_budget_at_once(tmp_path):
    # x^(10^30) + 1 over F_5: its rank 10^30, the normalized volume of the
    # segment [0, 10^30], is read off its 10^30 + 1 lattice points, which
    # the budget refuses to list.
    with pytest.raises(BudgetExceeded):
        expected_rank("toric", [(10 ** 30,), (0,)])
    data = {"p": 5, "a": 1, "n": 1, "mode": "toric",
            "terms": [{"exp": [10 ** 30], "coeff": [1]},
                      {"exp": [0], "coeff": [1]}]}
    proc = run_within(5, ["compute", write_input(tmp_path, data)])
    assert proc.returncode == 13 and not proc.stdout, proc.stderr
    assert proc.stderr.startswith("BudgetExceeded: "), proc.stderr
    assert "lattice points" in proc.stderr, proc.stderr
