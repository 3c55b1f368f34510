"""Frobenius-expansion tests: congruence solving, the elliptic double-sum
oracle evaluated independently with exact rationals, and agreement of the
fewnomial expansion with the test-side dense reference (dense_frobenius.py)."""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from dense_frobenius import expand_frobenius_dense
from splitting_oracle import ell_fraction

from dworkzeta import gf
from dworkzeta.cone_algebra import term_order_key
from dworkzeta.frobenius import (
    expand_frobenius,
    solve_congruence,
    splitting_for,
    truncation_bound,
)
from dworkzeta.jacobian import lift_input
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull_and_triangulate


def ring(p, a, n):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def elliptic_terms(p, aa, bb):
    return [((3, 0), (1,)), ((1, 0), (aa,)), ((0, 0), (bb,)), ((0, 2), (p - 1,))]


def test_truncation_bound_values():
    # beta(3) = 6
    assert truncation_bound(3, 2, 4) == 6 * 4 + 3  # ceil(6*(4 + 3/6)) = 27
    assert Fraction(5 * 5 - 5, 5 * 5 - 15 + 1) == Fraction(20, 11)
    assert truncation_bound(5, 2, 4) == 8  # ceil(20/11 * (4 + 3/20))


def test_solve_congruence_basics():
    p = 5
    # Elliptic support matrix, columns ordered (1, x, x^3, y^2).
    U = [[1, 1, 1, 1], [3, 1, 0, 0], [0, 0, 2, 0]]
    target = [(-1) % p, (-1) % p, (-1) % p]
    K = solve_congruence(U, target, p)
    assert len(K) == p  # p^(s - rank of U mod p) = p^(4 - 3)
    for k in K:
        for row, t in zip(U, target):
            assert sum(c * e for c, e in zip(row, k)) % p == t
        assert k[2] == (p - 1) // 2  # forced y^2 index
    assert len(set(K)) == p

    # invertible square system: singleton solution
    K1 = solve_congruence([[1, 0], [0, 1]], [2, 3], 5)
    assert K1 == [(2, 3)]
    # inconsistent system: empty
    assert solve_congruence([[1, 1], [2, 2]], [0, 1], 5) == []


def teich_int(c, p, modulus):
    x = c % modulus
    for _ in range(200):
        y = pow(x, p, modulus)
        if y == x:
            return x
        x = y
    raise AssertionError("no fixpoint")


def elliptic_alpha_oracle(p, aa, bb, N, max_degree):
    """Evaluate the elliptic double sum for alpha(wxy) directly: exact ell
    fractions, brute-force congruence solutions, integer Teichmueller lifts.

    Returns {(degree, (mx, my)): coefficient mod p^N}."""
    modulus = p ** N
    ahat = teich_int(aa, p, modulus)
    bhat = teich_int(bb, p, modulus)
    nus = [(3, 0), (1, 0), (0, 2), (0, 0)]  # x^3, x, y^2, 1 coefficient order
    coeffs = {}
    K = [k for k in iproduct(range(p), repeat=4)
         if (sum(k) + 1) % p == 0
         and (3 * k[0] + k[1] + 1) % p == 0
         and (2 * k[2] + 1) % p == 0]
    for k in K:
        bw = (sum(k) + 1) // p
        for e in iproduct(range(max_degree + 1), repeat=4):
            D = bw + sum(e)
            if D > max_degree:
                continue
            mono = (D, ((3 * k[0] + k[1] + 1) // p + 3 * e[0] + e[1],
                        (2 * k[2] + 1) // p + 2 * e[2]))
            ell = Fraction(1)
            for ki, ei in zip(k, e):
                ell *= ell_fraction(p, ki + p * ei)
            val = ell * (-p) ** D
            # sigma is trivial over F_p; coefficient powers a^(k2+e2) etc.
            num, den = val.numerator, val.denominator
            scalar = (num * pow(den, -1, modulus)) % modulus
            scalar = (scalar * pow(ahat, k[1] + e[1], modulus)
                      * pow(bhat, k[3] + e[3], modulus)
                      * pow(modulus - 1, k[2] + e[2], modulus)) % modulus
            coeffs[mono] = (coeffs.get(mono, 0) + scalar) % modulus
    return {m: c for m, c in coeffs.items() if c}


def expansion_setup(R, terms, mode):
    lifted = lift_input(R, terms, mode)
    poly = hull_and_triangulate(lifted.support)
    bound = truncation_bound(R.p, lifted.n_eff, R.N)
    series = splitting_for(R, bound)
    return lifted, poly, bound, series


def test_elliptic_alpha_wxy_against_paper_series():
    p, aa, bb, N = 5, 2, 1, 4
    R = ring(p, 1, N)
    lifted, poly, bound, series = expansion_setup(
        R, elliptic_terms(p, aa, bb), "affine")
    alpha = expand_frobenius((1, (1, 1)), lifted, poly, series, bound)
    oracle = elliptic_alpha_oracle(p, aa, bb, N, max_degree=3)
    got = {m: c[0] for m, c in alpha.terms.items() if m[0] <= 3}
    checked = sorted(oracle, key=term_order_key)
    assert len(checked) >= 5
    for m in checked:
        assert got.get(m, 0) == oracle[m], m
    # and nothing extra at low degree
    assert set(got) == set(oracle)


def test_unit_monomial_constant_term_is_one():
    # alpha(1) has constant coefficient ell_0 = 1 (the unit block).
    p, N = 5, 4
    R = ring(p, 1, N)
    terms = [((1,), (1,)), ((0,), (2,))]  # x + 2 on G_m
    lifted, poly, bound, series = expansion_setup(R, terms, "toric")
    alpha = expand_frobenius((0, (0,)), lifted, poly, series, bound)
    assert alpha.terms[(0, (0,))] == R.one


def test_cone_support_invariant():
    p, N = 7, 4
    R = ring(p, 1, N)
    lifted, poly, bound, series = expansion_setup(
        R, elliptic_terms(p, 3, 2), "toric")
    alpha = expand_frobenius((1, (1, 1)), lifted, poly, series, bound)
    for (d, mu), c in alpha.terms.items():
        assert poly.contains(mu, d)
        assert not R.is_zero(c)


def test_fewnomial_equals_dense():
    cases = [
        (ring(5, 1, 4), elliptic_terms(5, 1, 2), "affine", (1, (1, 1))),
        (ring(5, 1, 4), elliptic_terms(5, 1, 2), "affine", (2, (1, 1))),
        (ring(7, 1, 3), [((1, 0), (1,)), ((0, 1), (1,)),
                         ((-1, -1), (1,)), ((0, 0), (3,))], "toric", (1, (0, 0))),
        (ring(5, 2, 3), [((2, 0), (1, 0)), ((0, 2), (0, 1)),
                         ((0, 0), (1, 1)), ((1, 1), (2, 0))], "affine", (1, (1, 1))),
    ]
    for R, terms, mode, target in cases:
        lifted, poly, bound, series = expansion_setup(R, terms, mode)
        few = expand_frobenius(target, lifted, poly, series, bound)
        dense = expand_frobenius_dense(target, lifted, poly, series, bound)
        assert few.terms == dense.terms, (R.p, mode, target)


def test_projective_expansion_paths_agree():
    R = ring(7, 1, 3)
    terms = [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]
    lifted, poly, bound, series = expansion_setup(R, terms, "projective")
    target = (1, (1, 1))  # w * xyz with z implicit
    few = expand_frobenius(target, lifted, poly, series, bound)
    dense = expand_frobenius_dense(target, lifted, poly, series, bound)
    assert few.terms == dense.terms
    assert few.terms  # nonempty
