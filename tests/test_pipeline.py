"""Pipeline tests: end-to-end agreement with enumeration on all three modes,
precision stability, confinement invariance, and the degeneracy witness
search."""

from __future__ import annotations

import hashlib
import json
import logging
import random
from dataclasses import replace

import pytest

from dworkzeta import gf, jacobian, pipeline
from dworkzeta.errors import (
    InsufficientPrecision,
    InvalidFieldSpec,
    InvalidInput,
    NondegeneracyFailure,
    UnsupportedCharacteristic,
)
from dworkzeta.jacobian import build_jacobian, expected_rank, lift_input
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.pipeline import (
    Problem,
    apply_confinement,
    compute_zeta,
    nondegeneracy_witness_search,
    verify_against_oracle,
)
from dworkzeta.polytope import hull_and_triangulate


def elliptic_affine(p, aa, bb):
    return Problem(p=p, a=1, hbar=(0, 1), n=2, mode="affine",
                   terms=[((3, 0), (1,)), ((1, 0), (aa,)),
                          ((0, 0), (bb,)), ((0, 2), (p - 1,))])


def naive_aq(p, aa, bb):
    squares = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    count = 1 + sum(squares.get((x ** 3 + aa * x + bb) % p, 0)
                    for x in range(p))
    return p + 1 - count


def test_affine_elliptic_recovers_aq():
    rng = random.Random(51)
    for p in (5, 11):
        for _ in range(3):
            while True:
                aa, bb = rng.randrange(1, p), rng.randrange(1, p)
                if (4 * aa ** 3 + 27 * bb ** 2) % p != 0:
                    break
            zf = compute_zeta(elliptic_affine(p, aa, bb)).zeta
            aq = naive_aq(p, aa, bb)
            assert zf.numerator == [1, -aq, p], (p, aa, bb)
            assert zf.denominator == [1, -p]


def test_toric_elliptic_against_oracle():
    prob = Problem(p=7, a=1, hbar=(0, 1), n=2, mode="toric",
                   terms=[((3, 0), (1,)), ((1, 0), (2,)),
                          ((0, 0), (1,)), ((0, 2), (6,))])
    zf = compute_zeta(prob).zeta
    assert verify_against_oracle(prob, zf, 3) == zf.point_counts[:3]
    # degree law: det(1 - T A_a) has degree exactly v, i.e. the split factor
    # has degree v - 1 with nonzero leading coefficient.
    assert zf.v == 6


def test_projective_fermat_cubic_against_oracle():
    prob = Problem(p=7, a=1, hbar=(0, 1), n=3, mode="projective",
                   terms=[((3, 0, 0), (1,)), ((0, 3, 0), (2,)),
                          ((0, 0, 3), (1,))])
    zf = compute_zeta(prob).zeta
    verify_against_oracle(prob, zf, 2)
    assert len(zf.numerator) == 3  # genus-1 curve: quadratic numerator


def test_extension_field_toric_against_oracle():
    prob = Problem(p=3, a=2, hbar=tuple(gf.conway_polynomial(3, 2)), n=1,
                   mode="toric",
                   terms=[((2,), (1, 0)), ((1,), (1, 0)), ((0,), (2, 0))])
    zf = compute_zeta(prob).zeta
    verify_against_oracle(prob, zf, 4)


@pytest.mark.parametrize("prob, r_max", [
    # y^2 = x^3 + x + t over F_25 = F_5[t]/(t^2 + 4t + 2)
    (Problem(p=5, a=2, hbar=(2, 4, 1), n=2, mode="affine",
             terms=[((3, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
                    ((0, 2), (4, 0))]), 2),
    # x^3 + y^3 + t z^3 over F_25; r = 2 would enumerate 25^6 > 10^8 points
    (Problem(p=5, a=2, hbar=(2, 4, 1), n=3, mode="projective",
             terms=[((3, 0, 0), (1, 0)), ((0, 3, 0), (1, 0)),
                    ((0, 0, 3), (0, 1))]), 1),
], ids=["affine", "projective"])
def test_extension_field_a2_against_oracle(prob, r_max):
    zf = compute_zeta(prob).zeta
    assert zf.v == 2
    verify_against_oracle(prob, zf, r_max)


def test_precision_stability():
    for prob in (elliptic_affine(7, 2, 1),
                 Problem(p=5, a=1, hbar=(0, 1), n=2, mode="toric",
                         terms=[((1, 0), (1,)), ((0, 1), (1,)),
                                ((-1, -1), (1,)), ((0, 0), (3,))])):
        base = compute_zeta(prob).zeta
        import dataclasses
        bumped = compute_zeta(dataclasses.replace(
            prob, precision=base.N_used + 2)).zeta
        assert bumped.numerator == base.numerator
        assert bumped.denominator == base.denominator
        assert bumped.point_counts == base.point_counts


def test_confinement_preserves_zeta():
    prob = Problem(p=5, a=1, hbar=(0, 1), n=2, mode="toric",
                   terms=[((3, 2), (1,)), ((2, 2), (1,)),
                          ((2, 3), (1,)), ((3, 3), (2,))])
    confined = apply_confinement(prob)
    assert confined.terms != prob.terms
    z1 = compute_zeta(confined).zeta
    import dataclasses
    z2 = compute_zeta(dataclasses.replace(prob, confine=True)).zeta
    assert z1.numerator == z2.numerator and z1.point_counts == z2.point_counts
    verify_against_oracle(confined, z1, 3)


def structural_rank(prob, v):
    """Reference for expected_rank: |V| from a Jacobian build at precision 1.

    build_jacobian raises NondegeneracyFailure when |V| differs from the v it
    is given, here the known rank, not expected_rank.
    """
    ring = make_ring(FieldSpec(p=prob.p, a=prob.a, hbar=prob.hbar, N_work=1))
    lifted = lift_input(ring, prob.terms, prob.mode)
    poly = hull_and_triangulate(lifted.support)
    _ech, basis = build_jacobian(lifted, poly, v)
    return basis.v


def over_fp(p, mode, terms):
    """Problem over F_p from (exponent, coefficient) pairs."""
    return Problem(p=p, a=1, hbar=(0, 1), n=len(terms[0][0]), mode=mode,
                   terms=[(nu, (c,)) for nu, c in terms])


@pytest.mark.parametrize("prob, v", [
    # toric y^2 = x^3 + 2x + 1 (normalized volume 6) and x + y + 1/(xy) + 1
    (over_fp(7, "toric", [((3, 0), 1), ((1, 0), 2), ((0, 0), 1),
                          ((0, 2), 6)]), 6),
    (over_fp(3, "toric", [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1),
                          ((0, 0), 1)]), 3),
    # the confined support of test_confinement_preserves_zeta
    (apply_confinement(over_fp(5, "toric", [((3, 2), 1), ((2, 2), 1),
                                            ((2, 3), 1), ((3, 3), 2)])), 2),
    # affine elliptic and genus 2
    (over_fp(7, "affine", [((3, 0), 1), ((1, 0), 2), ((0, 0), 1),
                           ((0, 2), 6)]), 2),
    (over_fp(7, "affine", [((5, 0), 1), ((1, 0), 3), ((0, 0), 1),
                           ((0, 2), 6)]), 4),
    # affine surfaces: x^2 + y^2 + 3z^2 + 1 and x^3 + y^2 + 3z^2 + 2xyz + 1
    (over_fp(7, "affine", [((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 3),
                           ((0, 0, 0), 1)]), 1),
    (over_fp(7, "affine", [((3, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 3),
                           ((1, 1, 1), 2), ((0, 0, 0), 1)]), 6),
    # diagonal projective cubic and quartic: ((D-1)^3 - (D-1)) / D
    (over_fp(7, "projective", [((3, 0, 0), 1), ((0, 3, 0), 2),
                               ((0, 0, 3), 1)]), 2),
    (over_fp(5, "projective", [((4, 0, 0), 2), ((0, 4, 0), 1),
                               ((0, 0, 4), 2)]), 6),
    # supports without pure powers: x^2y + y^2z + z^2x, x^3y + y^3z + z^3x
    (over_fp(5, "projective", [((2, 1, 0), 1), ((0, 2, 1), 1),
                               ((1, 0, 2), 1)]), 2),
    (over_fp(5, "projective", [((3, 1, 0), 1), ((0, 3, 1), 1),
                               ((1, 0, 3), 1)]), 6),
    # a cubic surface x^2y + y^2z + z^2w + w^2x
    (over_fp(7, "projective", [((2, 1, 0, 0), 1), ((0, 2, 1, 0), 1),
                               ((0, 0, 2, 1), 1), ((1, 0, 0, 2), 1)]), 6),
])
def test_expected_rank_matches_structural_build(prob, v):
    exps = [nu for nu, _ in prob.terms]
    assert expected_rank(prob.mode, exps) == structural_rank(prob, v) == v


def test_one_jacobian_build_per_run(monkeypatch):
    calls = []

    def counted(lifted, poly, v):
        calls.append(lifted.ring.N)
        return build_jacobian(lifted, poly, v)

    monkeypatch.setattr(pipeline, "build_jacobian", counted)
    res = compute_zeta(elliptic_affine(7, 2, 1))
    assert len(calls) == 1
    assert res.zeta.N_used + 2 == calls[0]  # built once, at N_work = N + a + 1


@pytest.mark.parametrize("prob", [
    # y z + 2y^2 + 3x y, 4z^3 + 4y^2 z + 3x^2 z, 2x z^2 + 3x y z + 3x^2 z
    over_fp(5, "projective", [((0, 1, 1), 1), ((0, 2, 0), 2), ((1, 1, 0), 3)]),
    over_fp(5, "projective", [((0, 0, 3), 4), ((0, 2, 1), 4), ((2, 0, 1), 3)]),
    over_fp(5, "projective", [((1, 0, 2), 2), ((1, 1, 1), 3), ((2, 0, 1), 3)]),
    # 4x y z + 5x y^2 + 5x^2 y over F_11
    over_fp(11, "projective", [((1, 1, 1), 4), ((1, 2, 0), 5),
                               ((2, 1, 0), 5)]),
])
def test_projective_divisible_by_variable_rejected(prob):
    # f = x_i * g contains the hyperplane x_i = 0: degenerate, not answered.
    with pytest.raises(NondegeneracyFailure):
        compute_zeta(prob)


def test_projective_points_divisible_by_variable_against_oracle():
    # In P^1, x * (x + y) is two points: divisible by x, yet nondegenerate.
    prob = over_fp(5, "projective", [((1, 1), 1), ((2, 0), 1)])
    zf = compute_zeta(prob).zeta
    assert zf.v == 1
    assert verify_against_oracle(prob, zf, 3) == [2, 2, 2]


@pytest.mark.parametrize("prob, N_used", [
    (elliptic_affine(7, 2, 1), 3),
    # genus 2: y^2 = x^5 + 3x + 1
    (over_fp(7, "affine", [((5, 0), 1), ((1, 0), 3), ((0, 0), 1),
                           ((0, 2), 6)]), 5),
])
def test_low_precision_override_retries(prob, N_used):
    # At N = 1 the top charpoly coefficient lifts to 0; det(Frobenius) is
    # never 0, so the run retries at N + 2 until the precision suffices.
    base = compute_zeta(prob).zeta
    low = compute_zeta(replace(prob, precision=1)).zeta
    assert low.N_used == N_used
    assert low.numerator == base.numerator
    assert low.denominator == base.denominator
    verify_against_oracle(prob, low, 2)


def test_emit_matrix_shape():
    prob = elliptic_affine(7, 2, 1)
    res = compute_zeta(prob, emit_matrix=True)
    assert len(res.matrix) == 2 and len(res.matrix[0]) == 2
    assert all(isinstance(x, int) for row in res.matrix for e in row for x in e)


def test_validation_errors():
    with pytest.raises(UnsupportedCharacteristic):
        compute_zeta(Problem(p=2, a=1, hbar=(0, 1), n=1, mode="toric",
                             terms=[((1,), (1,))]))
    with pytest.raises(InvalidInput):
        compute_zeta(Problem(p=5, a=1, hbar=(0, 1), n=2, mode="affine",
                             confine=True,
                             terms=[((1, 0), (1,)), ((0, 0), (1,))]))
    with pytest.raises(InvalidInput):  # hbar of F_25 with a = 1
        compute_zeta(replace(elliptic_affine(5, 1, 2), hbar=(2, 4, 1)))
    with pytest.raises(InvalidInput):  # a coefficient with two coordinates
        compute_zeta(Problem(p=5, a=1, hbar=(0, 1), n=1, mode="toric",
                             terms=[((1,), (1, 0)), ((0,), (2,))]))


def test_nondegeneracy_witness_search():
    # (x+1)^2 = x^2 + 2x + 1 is degenerate at x = -1.
    degenerate = Problem(p=5, a=1, hbar=(0, 1), n=1, mode="toric",
                         terms=[((2,), (1,)), ((1,), (2,)), ((0,), (1,))])
    hit = nondegeneracy_witness_search(degenerate, 2)
    assert hit is not None
    k, point = hit
    assert k == 1 and point == (4,)  # x = -1 over F_5
    good = elliptic_affine(5, 1, 2)
    assert nondegeneracy_witness_search(good, 1) is None


def _problem(p, terms, n=2, a=1, mode="toric"):
    hbar = (0, 1) if a == 1 else tuple(gf.conway_polynomial(p, a))
    return Problem(p=p, a=a, hbar=hbar, n=n, mode=mode,
                   terms=[(nu, c if isinstance(c, tuple) else (c,))
                          for nu, c in terms])


# (problem, k_max, witness): the first witness in face order, then in
# lexicographic order of the generator exponents of the torus point; the
# (x + 1)^2 case is pinned in test_nondegeneracy_witness_search.
@pytest.mark.parametrize("prob, k_max, witness", [
    # (x + y + 1)^2 over F_5
    (_problem(5, [((2, 0), 1), ((1, 1), 2), ((0, 2), 1), ((1, 0), 2),
                  ((0, 1), 2), ((0, 0), 1)]), 2, (1, (1, 4))),
    # (x^2 + 1)^2 + y over F_3: the edge y^0 vanishes doubly at x^2 = -1,
    # which has no root before F_9
    (_problem(3, [((4, 0), 1), ((2, 0), 2), ((0, 0), 1), ((0, 1), 1)]), 2,
     (2, (6, 1))),
    # projective quadric (x + y)^2 + z^2, degenerate on the edge (x + y)^2
    (_problem(3, [((2, 0, 0), 1), ((1, 1, 0), 2), ((0, 2, 0), 1),
                  ((0, 0, 2), 1)], n=3, mode="projective"), 2, (1, (1, 2))),
    (_problem(5, [((2, 0, 0), 1), ((1, 1, 0), 2), ((0, 2, 0), 1),
                  ((0, 0, 2), 1)], n=3, mode="projective"), 2, (1, (1, 4))),
    # a = 2: (x + t)^2 = x^2 + 2t x + t^2 over F_9, t^2 = t + 1
    (_problem(3, [((2,), (1, 0)), ((1,), (0, 2)), ((0,), (1, 1))], n=1, a=2),
     2, (1, (7,))),
    # nondegenerate: no witness up to the given degree
    (elliptic_affine(5, 1, 2), 2, None),
    (_problem(3, [((3, 0), 1), ((1, 0), 1), ((0, 0), 2), ((0, 2), 2)],
              mode="affine"), 2, None),
    (_problem(3, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1), ((0, 0), 1)]), 2,
     None),
])
def test_witness_search_pinned(prob, k_max, witness):
    assert nondegeneracy_witness_search(prob, k_max) == witness


# Inputs with two faults: validate_problem reports the one its order checks
# first (p = 2, then the Problem's shape, then the mode contract, then the
# field), and the witness search reports the same.
ZERO_AT_Y2 = [((3, 0), (1,)), ((1, 0), (2,)), ((0, 0), (1,)), ((0, 2), (7,))]


@pytest.mark.parametrize("change, error, message", [
    ({"p": 2, "hbar": (0, 0, 1)}, UnsupportedCharacteristic, "p = 2"),
    ({"p": 2, "precision": 0}, UnsupportedCharacteristic, "p = 2"),
    ({"precision": 0, "terms": ZERO_AT_Y2}, InvalidInput, "precision"),
    ({"a": 2, "hbar": (0, 0, 1), "terms": ZERO_AT_Y2}, InvalidInput,
     "zero coefficient"),
    ({"a": 2, "hbar": (0, 0, 1)}, InvalidFieldSpec, "reducible"),
])
def test_validate_problem_order(change, error, message):
    prob = replace(elliptic_affine(7, 2, 1), **change)
    with pytest.raises(error, match=message):
        compute_zeta(prob)
    with pytest.raises(error, match=message):
        nondegeneracy_witness_search(prob, 2)


def test_check_terms_once_per_solve(monkeypatch):
    calls = []
    check = jacobian.check_terms

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(jacobian, "check_terms", counted)
    monkeypatch.setattr(pipeline, "check_terms", counted)
    run_at = pipeline._run_at
    attempts = []

    def fail_once(prob, N, v, emit_matrix):
        attempts.append(N)
        if len(attempts) == 1:
            raise InsufficientPrecision("forced for the test")
        return run_at(prob, N, v, emit_matrix)

    monkeypatch.setattr(pipeline, "_run_at", fail_once)
    compute_zeta(elliptic_affine(7, 2, 1))
    assert len(attempts) == 2 and len(calls) == 1
    compute_zeta(elliptic_affine(5, 1, 2))
    assert len(calls) == 2


def test_toric_charpoly_exact_mod_p_to_n_work_minus_one():
    # 2x + 2t*y + 1/(xy) + t over F_9 (a = 2): Q = A_0 / p is known mod
    # p^(N_work - 1), so precision 1 suffices without a retry.
    prob = Problem(p=3, a=2, hbar=(2, 2, 1), n=2, mode="toric",
                   terms=[((1, 0), (2, 0)), ((0, 1), (0, 2)),
                          ((-1, -1), (1, 0)), ((0, 0), (0, 1))],
                   precision=1)
    zf = compute_zeta(prob).zeta
    assert zf.N_used == 1
    # the zeta of the default precision (N = 7)
    assert zf.numerator == [1, -3, 12, -19, 9]
    assert zf.denominator == [1, -9]
    assert verify_against_oracle(prob, zf, 2) == [6, 96]


def matrix_digest(matrix):
    """SHA-256 of the serialized Frobenius matrix (compact JSON)."""
    return hashlib.sha256(
        json.dumps(matrix, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("prob, digest", [
    # x + y + 1/(xy) + 1 over F_3
    (Problem(p=3, a=1, hbar=(0, 1), n=2, mode="toric",
             terms=[((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,)),
                    ((0, 0), (1,))]),
     "8afe3f61e2c3dda69348b50eee9fcf4ec2aa809df164de81fd3a19b61218576f"),
    # genus 2: y^2 = x^5 + 3x + 1 over F_7
    (Problem(p=7, a=1, hbar=(0, 1), n=2, mode="affine",
             terms=[((5, 0), (1,)), ((1, 0), (3,)), ((0, 0), (1,)),
                    ((0, 2), (6,))]),
     "82e87872f3f35a1b7d2dbd088f0b3aa9b7da45dd88d61b371f16d6a5721e6adf"),
    # y^2 = x^3 + x + t over F_25 = F_5[t]/(t^2 + 4t + 2)
    (Problem(p=5, a=2, hbar=(2, 4, 1), n=2, mode="affine",
             terms=[((3, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
                    ((0, 2), (4, 0))]),
     "abe682f5dbddf7f1aab513891e658e1fb4e04cd53ad6ab4dec1c510dd64cbc28"),
    # y^2 = x^3 + 2x + 3 over F_101: a large-p case, series length p*E = 707
    (elliptic_affine(101, 2, 3),
     "86d0ec935e656f91cac174f1da88feee26f2de9298168c2537c1883e48df4d7b"),
])
def test_frobenius_matrix_pinned(prob, digest):
    # Pinned bits: any change to the echelon, the expansion or the reduction
    # must leave the Frobenius matrix bit-identical, not merely give the same
    # zeta function.
    res = compute_zeta(prob, emit_matrix=True)
    assert matrix_digest(res.matrix) == digest


def test_precision_choice_and_retry_logged(monkeypatch, caplog):
    run_at = pipeline._run_at
    calls = []

    def fail_once(prob, N, v, emit_matrix):
        calls.append(N)
        if len(calls) == 1:
            raise InsufficientPrecision("forced for the test")
        return run_at(prob, N, v, emit_matrix)

    monkeypatch.setattr(pipeline, "_run_at", fail_once)
    with caplog.at_level(logging.DEBUG, logger="dworkzeta"):
        res = compute_zeta(elliptic_affine(7, 2, 1))
    N0 = calls[0]
    assert calls == [N0, N0 + 2]
    assert res.zeta.N_used == N0 + 2
    messages = [r.getMessage() for r in caplog.records if r.name == "dworkzeta"]
    assert messages == [
        f"precision: v = 2 -> N = {N0}",
        f"precision retry: N = {N0} -> N = {N0 + 2}: forced for the test",
    ]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="dworkzeta"):
        compute_zeta(replace(elliptic_affine(7, 2, 1), precision=3))
    assert [r.getMessage() for r in caplog.records] == [
        "precision: N = 3 (override)"]
