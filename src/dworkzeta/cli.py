"""Command-line interface.

Subcommands:
  compute <input.json>   run the full pipeline and print a JSON report
  oracle count <input.json> --r R   brute-force point counts only, after
                                    the input checks of compute

Reports are deterministic: keys sorted, fixed separators, one trailing
newline, so identical input and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from . import gf, oracle
from .errors import DworkZetaError, InvalidInput, NondegeneracyFailure
from .padic import check_characteristic
from .pipeline import (
    Problem,
    compute_zeta,
    nondegeneracy_witness_search,
    validate_problem,
    verify_against_oracle,
)


def _is_int(x: Any) -> bool:
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read input file: {exc}") from None
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError (a file that is not UTF-8) and
        # the ValueError of an integer past the int-string digit limit.
        raise InvalidInput(f"input is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInput("input must be a JSON object")
    for key in ("p", "a", "n", "mode", "terms"):
        if key not in data:
            raise InvalidInput(f"missing required input key {key!r}")
    p, a, n = data["p"], data["a"], data["n"]
    if not all(_is_int(x) and x > 0 for x in (p, a, n)):
        raise InvalidInput("p, a, n must be positive integers")
    field_poly = data.get("field_poly", "conway")
    if field_poly == "conway" or field_poly is None:
        if a > 1 and p != 2:
            # The Conway search factors p^m - 1; p = 2 is left to
            # validate_problem (UnsupportedCharacteristic).
            check_characteristic(p)
        hbar = (0, 1) if a == 1 else tuple(gf.conway_polynomial(p, a))
    else:
        if (not isinstance(field_poly, list)
                or not all(_is_int(c) for c in field_poly)):
            raise InvalidInput("field_poly must be a list of integers or \"conway\"")
        hbar = tuple(field_poly)
    if not isinstance(data["terms"], list):
        raise InvalidInput("terms must be a list")
    terms = []
    for entry in data["terms"]:
        if not isinstance(entry, dict) or "exp" not in entry or "coeff" not in entry:
            raise InvalidInput("each term needs \"exp\" and \"coeff\"")
        exp = entry["exp"]
        coeff = entry["coeff"]
        if (not isinstance(exp, list) or len(exp) != n
                or not all(_is_int(e) for e in exp)):
            raise InvalidInput(f"term exponent {exp!r} is not an integer "
                               f"vector of length n = {n}")
        if (not isinstance(coeff, list) or not coeff or len(coeff) > a
                or not all(_is_int(c) for c in coeff)):
            raise InvalidInput(f"term coefficient {coeff!r} is not an F_p "
                               f"vector of length <= a = {a}")
        terms.append((tuple(exp), tuple(coeff)))
    precision = data.get("precision")
    if precision is not None and not _is_int(precision):
        raise InvalidInput("precision must be an integer or null")
    confine = data.get("confine", False)
    if not isinstance(confine, bool):
        raise InvalidInput("confine must be true or false")
    return Problem(p=p, a=a, hbar=hbar, n=n, mode=data["mode"], terms=terms,
                   precision=precision, confine=confine)


def _emit(report: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _cmd_compute(args: argparse.Namespace) -> int:
    if args.verify < 0:
        raise InvalidInput("--verify must be >= 0")
    if args.check_nondegenerate < 0:
        raise InvalidInput("--check-nondegenerate must be >= 0")
    prob = _load_problem(args.input)
    if args.precision is not None:
        prob.precision = args.precision
    if args.confine:
        prob.confine = True
    if args.check_nondegenerate:
        witness = nondegeneracy_witness_search(prob, args.check_nondegenerate)
        if witness is not None:
            k, point = witness
            raise NondegeneracyFailure(
                "a face restriction shares a zero with all its logarithmic "
                f"derivatives at the torus point {list(point)} over the "
                f"degree-{k} extension")
    result = compute_zeta(prob, emit_matrix=args.emit_matrix)
    zf = result.zeta
    report: Dict[str, Any] = {
        "mode": zf.mode,
        "p": zf.p,
        "a": zf.a,
        "n": zf.n,
        "v": zf.v,
        "N_used": zf.N_used,
        "numerator": zf.numerator,
        "denominator": zf.denominator,
        "point_counts": zf.point_counts,
    }
    if args.emit_matrix:
        report["frobenius_matrix"] = result.matrix
    if args.verify:
        verify_against_oracle(prob, zf, args.verify)
        report["verified_r"] = args.verify
    if args.check_nondegenerate:
        report["nondegeneracy_search_depth"] = args.check_nondegenerate
    _emit(report)
    return 0


def _cmd_oracle_count(args: argparse.Namespace) -> int:
    if args.r < 1:
        raise InvalidInput("--r must be >= 1")
    prob = _load_problem(args.input)
    validate_problem(prob)
    counts = [oracle.count_points(prob.p, prob.a, prob.hbar, prob.terms,
                                  prob.mode, r)
              for r in range(1, args.r + 1)]
    _emit({"mode": prob.mode, "p": prob.p, "a": prob.a, "n": prob.n,
           "counts": counts})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dworkzeta",
        description="Zeta functions of nondegenerate hypersurfaces over F_q")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="run the full pipeline")
    pc.add_argument("input", help="input JSON file")
    pc.add_argument("--precision", type=int, default=None,
                    help="override the p-adic precision N")
    pc.add_argument("--confine", action="store_true",
                    help="apply a unimodular confinement first (toric only)")
    pc.add_argument("--verify", type=int, metavar="R", default=0,
                    help="cross-check counts against enumeration for r=1..R")
    pc.add_argument("--emit-matrix", action="store_true",
                    help="include the Frobenius matrix in the report")
    pc.add_argument("--check-nondegenerate", type=int, metavar="K", default=0,
                    help="search extensions of degree <= K for a degeneracy witness")
    pc.set_defaults(func=_cmd_compute)

    po = sub.add_parser("oracle", help="brute-force tools")
    posub = po.add_subparsers(dest="oracle_command", required=True)
    pcount = posub.add_parser("count", help="exhaustive point counts")
    pcount.add_argument("input", help="input JSON file")
    pcount.add_argument("--r", type=int, default=1,
                        help="count over extensions of degree 1..R")
    pcount.set_defaults(func=_cmd_oracle_count)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DworkZetaError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"InternalError: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
