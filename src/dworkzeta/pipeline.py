"""End-to-end orchestration: input -> ZetaFunction.

Order of operations: validate (validate_problem, the one input gate) ->
(optional confinement, toric only) -> rank v from the support by its closed
formula (jacobian.expected_rank), once per run and also under a precision
override -> choose N (or take the override)
-> working ring at N_work = N + a + 1 -> hull -> quotient basis (the one
Jacobian build of each attempt, given v, which checks |V| = v) -> Frobenius
expansion and reduction per basis monomial -> matrix assembly and charpoly
-> centered lift with Weil filter -> mode assembly.  On InsufficientPrecision
the whole computation reruns at N + 2, at most MAX_RETRIES times.  The
precision choice and every retry are logged at debug level on the
"dworkzeta" logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from . import oracle
from .errors import (
    ConsistencyFailure,
    InsufficientPrecision,
    InvalidInput,
    UnsupportedCharacteristic,
)
from .frobenius import expand_frobenius, splitting_for, truncation_bound
from .jacobian import (
    MODES,
    build_jacobian,
    check_terms,
    expected_rank,
    lift_input,
    working_exponent,
)
from .padic import FieldSpec, make_ring
from .polytope import confine as confine_support
from .polytope import faces, hull_and_triangulate
from .reduction import reduce as cone_reduce
from .zeta import (
    ZetaFunction,
    assemble_and_charpoly,
    assemble_zeta,
    lift_charpoly,
    precision_bound,
)

Term = Tuple[Tuple[int, ...], Tuple[int, ...]]

log = logging.getLogger("dworkzeta")

MAX_RETRIES = 2  # reruns at N + 2 after InsufficientPrecision


@dataclass
class Problem:
    """A zeta-function computation request."""

    p: int
    a: int
    hbar: Tuple[int, ...]
    n: int
    mode: str
    terms: List[Term]
    precision: Optional[int] = None
    confine: bool = False


@dataclass
class Result:
    zeta: ZetaFunction
    lifted_charpoly: List[int] = field(default_factory=list)
    matrix: Optional[List[List[List[int]]]] = None  # serialized ring elements


def _lift_weight(mode: str, n: int) -> int:
    """Weight w such that the lifted charpoly obeys |c_i| <= C(v,i) q^(iw/2).

    The toric charpoly is taken after the unit-block split and the division
    by q (inverse roots of weight <= n); the affine determinant has inverse
    roots q * (weight <= n-1); the projective determinant is P(qT) with P of
    weight n - 2.
    """
    if mode == "toric":
        return n
    if mode == "affine":
        return n + 1
    return n  # projective: n ambient variables


def validate_problem(prob: Problem) -> None:
    """The one input gate: every rule is checked here once, in this order,
    and the first that fails raises its typed error.

    1. p = 2 (UnsupportedCharacteristic);
    2. the shape of the Problem: mode, nonempty terms, lengths of exponents,
       hbar and coefficients, confinement only in toric mode, precision >= 1;
    3. the contract of the mode (jacobian.check_terms);
    4. the field F_q = F_p[t]/(hbar) (FieldSpec.validate, InvalidFieldSpec).
    """
    if prob.p == 2:
        raise UnsupportedCharacteristic("p = 2 is not supported")
    if prob.mode not in MODES:
        raise InvalidInput(f"unknown mode {prob.mode!r}")
    if not prob.terms:
        raise InvalidInput("the zero polynomial does not define a hypersurface")
    if any(len(nu) != prob.n for nu, _ in prob.terms):
        raise InvalidInput("every exponent vector must have length n")
    if len(prob.hbar) != prob.a + 1:
        raise InvalidInput(
            f"hbar must have a + 1 = {prob.a + 1} coefficients, got "
            f"{len(prob.hbar)}")
    if any(len(c) > prob.a for _, c in prob.terms):
        raise InvalidInput(
            f"a coefficient over F_q has at most a = {prob.a} coordinates")
    if prob.confine and prob.mode != "toric":
        raise InvalidInput(
            "confinement is a torus change of coordinates; only toric mode")
    if prob.precision is not None and prob.precision < 1:
        raise InvalidInput("precision must be >= 1")
    check_terms(prob.terms, prob.mode, prob.p)
    FieldSpec(p=prob.p, a=prob.a, hbar=prob.hbar, N_work=1).validate()


def apply_confinement(prob: Problem) -> Problem:
    """Unimodular change of torus coordinates; the zeta function is invariant."""
    exps = [nu for nu, _ in prob.terms]
    U, t = confine_support(exps)
    new_terms = []
    for nu, c in prob.terms:
        img = tuple(sum(U[i][j] * nu[j] for j in range(prob.n)) + t[i]
                    for i in range(prob.n))
        new_terms.append((img, c))
    return replace(prob, terms=new_terms, confine=False)


def _run_at(prob: Problem, N: int, v: int, emit_matrix: bool) -> Result:
    p, a, q = prob.p, prob.a, prob.p ** prob.a
    n_work = N + a + 1
    ring = make_ring(FieldSpec(p=prob.p, a=prob.a, hbar=prob.hbar,
                               N_work=n_work))
    lifted = lift_input(ring, prob.terms, prob.mode)
    poly = hull_and_triangulate(lifted.support)
    ech, basis = build_jacobian(lifted, poly, v)
    E = truncation_bound(p, lifted.n_eff, n_work)
    series = splitting_for(ring, E)
    columns = []
    for m in basis.V:
        alpha = expand_frobenius(m, lifted, poly, series, E)
        columns.append(cone_reduce(alpha, ech, basis))
    A, charpoly = assemble_and_charpoly(ring, columns, prob.mode, a)
    lifted_cp = lift_charpoly(ring, charpoly, q, _lift_weight(prob.mode, prob.n))
    zf = assemble_zeta(lifted_cp, prob.mode, prob.n, q, basis.v, p, a, N)
    matrix = None
    if emit_matrix:
        matrix = [[ring.serialize(e) for e in row] for row in A]
    return Result(zeta=zf, lifted_charpoly=lifted_cp, matrix=matrix)


def compute_zeta(prob: Problem, emit_matrix: bool = False) -> Result:
    validate_problem(prob)
    if prob.confine:
        prob = apply_confinement(prob)
    v = expected_rank(prob.mode, [nu for nu, _ in prob.terms])
    if prob.precision is not None:
        N = prob.precision
        log.debug("precision: N = %d (override)", N)
    else:
        N = precision_bound(v, prob.p ** prob.a,
                            _lift_weight(prob.mode, prob.n), prob.p)
        log.debug("precision: v = %d -> N = %d", v, N)
    for attempt in range(MAX_RETRIES + 1):
        try:
            return _run_at(prob, N, v, emit_matrix)
        except InsufficientPrecision as exc:
            if attempt == MAX_RETRIES:
                raise
            log.debug("precision retry: N = %d -> N = %d: %s", N, N + 2, exc)
            N += 2
    raise AssertionError("unreachable: the retry loop returns or raises")


def verify_against_oracle(prob: Problem, zf: ZetaFunction, r_max: int) -> List[int]:
    """Cross-check the expanded counts against brute-force enumeration."""
    # the oracle must see the same (possibly confined) polynomial
    terms = prob.terms
    if prob.confine:
        terms = apply_confinement(prob).terms
    counts = [oracle.count_points(prob.p, prob.a, prob.hbar, terms, prob.mode, r)
              for r in range(1, r_max + 1)]
    expanded = zf.counts(r_max)
    if counts != expanded:
        raise ConsistencyFailure(
            f"computed counts {expanded} disagree with enumerated counts "
            f"{counts}")
    return counts


def nondegeneracy_witness_search(prob: Problem, k_max: int
                                 ) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Heuristic search for a degeneracy witness.

    For every face of the Newton polytope of the working support, looks for a
    torus point over F_{q^k} (k <= k_max, within the oracle's enumeration
    budget) where the face restriction and all its logarithmic derivatives
    vanish.  Returns (k, point codes) for the first witness found, None
    otherwise.
    """
    validate_problem(prob)
    work_terms = {working_exponent(prob.mode, nu): c for nu, c in prob.terms}
    exps = sorted(work_terms)
    poly = hull_and_triangulate(exps)
    m = len(exps[0])
    q = prob.p ** prob.a
    for k in range(1, k_max + 1):
        if q ** (k * m) > oracle.DEFAULT_BUDGET:
            break
        F = oracle.get_field(prob.p, prob.a * k)
        codes = dict(zip(exps, oracle.embed_coefficients(
            F, prob.p, prob.a, prob.hbar, [work_terms[nu] for nu in exps])))
        for points in faces(poly, exps):
            f = [(nu, codes[nu]) for nu in points]
            # x_i df/dx_i scales the coefficient of x^nu by nu_i mod p
            derivs = [[(nu, F.mul(c, F.encode([nu[i]]))) for nu, c in f]
                      for i in range(m)]
            witness = oracle.torus_common_zero(F, [f] + derivs, m)
            if witness is not None:
                return k, witness
    return None
