"""Zeta-assembly tests: precision bound, division-free charpoly against an
interpolation oracle, sigma-invariance of twisted-product charpolys, lifting
and Weil filtering, mode assembly formulas, and a tiny end-to-end toric case."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from dworkzeta import gf
from dworkzeta.errors import ConsistencyFailure, InsufficientPrecision
from dworkzeta.frobenius import (
    expand_frobenius,
    splitting_for,
    truncation_bound,
)
from dworkzeta.jacobian import build_jacobian, expected_rank, lift_input
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull_and_triangulate
from dworkzeta.reduction import reduce as cone_reduce
from dworkzeta.zeta import (
    CharpolyResult,
    ZetaFunction,
    assemble_and_charpoly,
    assemble_zeta,
    charpoly_det_one_minus_t,
    lift_charpoly,
    log_derivative_series,
    poly_mul,
    precision_bound,
    substitute_t_over_q,
    twisted_product,
)


def ring(p, a, n):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


# ---- precision bound ---------------------------------------------------------


def test_precision_bound_against_float_reference():
    import math
    for (v, q, w, p) in [(1, 5, 1, 5), (2, 7, 2, 7), (6, 9, 2, 3),
                         (8, 5, 2, 5), (2, 49, 3, 7), (3, 11, 1, 11)]:
        N = precision_bound(v, q, w, p)
        need = max(2 * comb(v, m) * q ** (w * m / 2) for m in range(v + 1))
        # N is the smallest power with p^N >= need (float check with slack)
        assert p ** N >= need * (1 - 1e-9)
        if N > 1:
            assert p ** (N - 1) < need * (1 + 1e-9)


def test_precision_bound_large_x_is_top_coefficient():
    # When q^(w/2) >= v the maximum is at m = v with binomial 1.
    v, q, w, p = 4, 25, 2, 5
    N = precision_bound(v, q, w, p)
    # need = 2 q^(w v / 2) = 2 * 25^4
    need = 2 * q ** (w * v // 2)
    assert p ** N >= need and p ** (N - 1) < need


# ---- charpoly oracle ---------------------------------------------------------


def det_fraction(M):
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    n = len(M)
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if M[r][i] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            M[i], M[piv] = M[piv], M[i]
            det = -det
        det *= M[i][i]
        for r in range(i + 1, n):
            f = M[r][i] / M[i][i]
            for c in range(i, n):
                M[r][c] -= f * M[i][c]
    return det


def det_one_minus_t_oracle(M):
    """Coefficients of det(1 - T M) by evaluation/interpolation over Q."""
    v = len(M)
    points = list(range(v + 1))
    values = []
    for t in points:
        A = [[(1 if i == j else 0) - t * M[i][j] for j in range(v)]
             for i in range(v)]
        values.append(det_fraction(A))
    # Lagrange interpolation to a degree-<=v polynomial.
    coeffs = [Fraction(0)] * (v + 1)
    for i, ti in enumerate(points):
        denom = Fraction(1)
        poly = [Fraction(1)]  # product of (T - tj) over j != i, ascending
        for j, tj in enumerate(points):
            if j == i:
                continue
            denom *= ti - tj
            new = [Fraction(0)] * (len(poly) + 1)
            for k, c in enumerate(poly):
                new[k] += c * (-tj)
                new[k + 1] += c
            poly = new
        scale = values[i] / denom
        for k, c in enumerate(poly):
            coeffs[k] += scale * c
    out = []
    for c in coeffs:
        assert c.denominator == 1
        out.append(int(c))
    return out


def test_charpoly_matches_interpolation_oracle():
    rng = random.Random(31)
    p, N = 7, 8
    R = ring(p, 1, N)
    for v in (1, 2, 3, 4, 5):
        for _ in range(3):
            M = [[rng.randrange(-9, 10) for _ in range(v)] for _ in range(v)]
            expected = det_one_minus_t_oracle(M)
            MR = [[R.from_int(x) for x in row] for row in M]
            got = charpoly_det_one_minus_t(R, MR)
            modulus = R.modulus
            for c_exp, c_got in zip(expected, got):
                assert c_got[0] % modulus == c_exp % modulus


def test_charpoly_empty_matrix():
    R = ring(5, 1, 3)
    assert charpoly_det_one_minus_t(R, []) == [R.one]


def test_twisted_product_charpoly_is_scalar():
    # det(1 - T A_a) has sigma-fixed (hence scalar) coefficients.
    rng = random.Random(32)
    R = ring(5, 2, 4)
    v = 3
    A = [[tuple(rng.randrange(R.modulus) for _ in range(2)) for _ in range(v)]
         for _ in range(v)]
    Aa = twisted_product(R, A, 2)
    coeffs = charpoly_det_one_minus_t(R, Aa)
    for c in coeffs:
        assert all(comp % R.modulus == 0 for comp in c[1:]), c


# ---- lifting and filtering ---------------------------------------------------


def test_lift_charpoly_centered_and_filtered():
    R = ring(7, 1, 4)
    q, v, weight = 7, 2, 3
    # c_1 = -a_q * q with a_q = 4: stored as modulus - 28
    coeffs = [R.one, R.from_int(-28), R.from_int(q ** 3)]
    res = CharpolyResult(coefficients=coeffs, modulus=R.modulus)
    lifted = lift_charpoly(R, res, q, weight)
    assert lifted == [1, -28, 343]
    # violate the Weil bound for i = 1: |c| > 2 q^(3/2) = 37.0...
    bad = CharpolyResult(coefficients=[R.one, R.from_int(1000), R.from_int(0)],
                         modulus=R.modulus)
    with pytest.raises(InsufficientPrecision):
        lift_charpoly(R, bad, q, weight)


def test_substitute_t_over_q():
    assert substitute_t_over_q([1, -28, 343], 7) == [1, -4, 7]
    with pytest.raises(InsufficientPrecision):
        substitute_t_over_q([1, 3], 7)


# ---- series and assembly -----------------------------------------------------


def test_log_derivative_series_closed_form():
    # (1-3T)(1+2T)/(1-5T): N_r = 5^r - 3^r - (-2)^r
    num = poly_mul([1, -3], [1, 2])
    den = [1, -5]
    s_num = log_derivative_series(num, 6)
    s_den = log_derivative_series(den, 6)
    for r in range(1, 7):
        assert s_num[r - 1] - s_den[r - 1] == 5 ** r - 3 ** r - (-2) ** r


def test_log_derivative_series_power_sums():
    # f = prod (1 - alpha_i T) has T f'/f = -sum_r (sum_i alpha_i^r) T^r,
    # also for r beyond deg f and with repeated or zero alpha_i.
    rng = random.Random(12)
    for _ in range(40):
        alphas = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 6))]
        f = [1]
        for alpha in alphas:
            f = poly_mul(f, [1, -alpha])
        r_max = rng.randrange(1, 10)
        assert log_derivative_series(f, r_max) == [
            -sum(alpha ** r for alpha in alphas) for r in range(1, r_max + 1)]


def test_assemble_zeta_affine_elliptic_shape():
    q, a_q = 7, 2
    lifted = [1, -a_q * q, q ** 3]
    zf = assemble_zeta(lifted, "affine", 2, q, 2, 7, 1, 3)
    assert zf.numerator == [1, -2, 7]
    assert zf.denominator == [1, -7]
    # N_r = q^r - alpha^r - beta^r with alpha+beta = 2, alpha*beta = 7
    s, prod = a_q, q
    pw = [2]  # power sums alpha^r + beta^r
    pw.append(s * pw[0] - 2 * prod)
    pw.append(s * pw[1] - prod * pw[0])
    pw.append(s * pw[2] - prod * pw[1])
    assert zf.point_counts == [q ** r - pw[r - 1] for r in range(1, 5)]


def test_assemble_zeta_projective_quadric_like():
    # v = 0: P = 1 and Z = 1/((1-T)(1-qT)) for n_vars = 3 (a smooth conic).
    q = 5
    zf = assemble_zeta([1], "projective", 3, q, 0, 5, 1, 2)
    assert zf.numerator == [1]
    assert zf.denominator == poly_mul([1, -1], [1, -q])
    assert zf.point_counts == [q ** r + 1 for r in range(1, 5)]


def test_assemble_zeta_negative_counts_fail():
    with pytest.raises(ConsistencyFailure):
        # P = 1 - 30T gives N_1 = 5 - 30 < 0.
        assemble_zeta([1, -150, 0], "affine", 2, 5, 2, 5, 1, 2)


def same_function(z1, z2):
    """Equality as rational functions: cross-multiplied polynomials agree."""
    return (poly_mul(z1.numerator, z2.denominator)
            == poly_mul(z2.numerator, z1.denominator))


def test_zeta_same_function_up_to_common_factors():
    z1 = ZetaFunction("toric", 5, 1, 5, 1, 1, 2, [1, -1], [1, -5])
    z2 = ZetaFunction("toric", 5, 1, 5, 1, 1, 2,
                      poly_mul([1, -1], [1, 3]), poly_mul([1, -5], [1, 3]))
    assert same_function(z1, z2)
    z3 = ZetaFunction("toric", 5, 1, 5, 1, 1, 2, [1, -2], [1, -5])
    assert not same_function(z1, z3)


# ---- end-to-end: f = x + 2 on G_m -------------------------------------------


def test_end_to_end_single_point_on_torus():
    p, N_work = 5, 4
    R = ring(p, 1, N_work)
    lifted = lift_input(R, [((1,), (1,)), ((0,), (2,))], "toric")
    poly = hull_and_triangulate(lifted.support)
    ech, basis = build_jacobian(lifted, poly,
                                expected_rank("toric", lifted.support))
    assert basis.v == 1
    bound = truncation_bound(p, lifted.n_eff, N_work)
    series = splitting_for(R, bound)
    columns = []
    for m in basis.V:
        alpha = expand_frobenius(m, lifted, poly, series, bound)
        columns.append(cone_reduce(alpha, ech, basis))
    A, res = assemble_and_charpoly(R, columns, "toric", 1)
    # the (1-T) factor of the unit row is split off: degree v - 1 = 0
    assert res.coefficients == [R.one]
    lifted_cp = lift_charpoly(R, res, p, 1)
    zf = assemble_zeta(lifted_cp, "toric", 1, p, basis.v, p, 1, 2)
    # V is the single torus point x = -2: one point over every extension.
    assert zf.point_counts == [1, 1, 1, 1]
