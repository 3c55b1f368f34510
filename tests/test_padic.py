"""Tests for arithmetic in R = Z_q/p^N: ring axioms, Frobenius, Teichmueller."""

from __future__ import annotations

import random

import pytest

from dworkzeta import gf
from dworkzeta.errors import InvalidFieldSpec
from dworkzeta.padic import FieldSpec, make_ring


def ring(p, a, n, hbar=None):
    if hbar is None:
        hbar = gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def test_prime_field_sigma_identity():
    R = ring(7, 1, 3, hbar=(0, 1))  # hbar = t
    x = R.from_int(123)
    assert R.sigma(x) == x
    assert R.sigma_inverse(x) == x


def test_reducible_polynomial_rejected():
    with pytest.raises(InvalidFieldSpec):
        ring(3, 2, 4, hbar=(1, 2, 1))  # (t+1)^2


def test_p2_and_composite_rejected():
    with pytest.raises(InvalidFieldSpec):
        ring(2, 1, 3, hbar=(0, 1))
    with pytest.raises(InvalidFieldSpec):
        ring(9, 1, 3, hbar=(0, 1))


def test_lifted_polynomial_divides_xq_minus_x():
    # (p=3, a=2, hbar=t^2+1): generator must satisfy t^9 = t, sigma^2 = id,
    # sigma(t) = t^3 = -t modulo the lifted polynomial.
    R = ring(3, 2, 5, hbar=(1, 0, 1))
    t = R.gen()
    assert R.pow(t, 9) == t
    assert R.sigma(R.sigma(t)) == t
    assert R.sigma(t) == R.neg(t)


def test_ring_axioms_random():
    R = ring(5, 2, 4)
    rng = random.Random(1)
    sample = [tuple(rng.randrange(R.modulus) for _ in range(R.a)) for _ in range(12)]
    for x in sample[:4]:
        for y in sample[4:8]:
            assert R.mul(x, y) == R.mul(y, x)
            for z in sample[8:]:
                assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))
                assert R.mul(R.mul(x, y), z) == R.mul(x, R.mul(y, z))


def test_unit_inverse():
    R = ring(7, 2, 5)
    rng = random.Random(2)
    count = 0
    while count < 25:
        u = tuple(rng.randrange(R.modulus) for _ in range(R.a))
        if not R.is_unit(u):
            continue
        count += 1
        assert R.mul(u, R.inv(u)) == R.one


def test_sigma_is_ring_hom_and_reduces_to_pth_power():
    for (p, a) in [(3, 2), (5, 2), (7, 2)]:
        R = ring(p, a, 4)
        rng = random.Random(p)
        for _ in range(10):
            x = tuple(rng.randrange(R.modulus) for _ in range(a))
            y = tuple(rng.randrange(R.modulus) for _ in range(a))
            assert R.sigma(R.mul(x, y)) == R.mul(R.sigma(x), R.sigma(y))
            assert R.sigma(R.add(x, y)) == R.add(R.sigma(x), R.sigma(y))
        # exhaustively on residues: sigma == p-th power mod p
        for code in range(p ** a):
            res = [code % p, (code // p) % p][:a]
            x = R.from_residue(res)
            lhs = R.sigma(x)
            rhs = R.pow(x, p)
            assert all((l - r) % p == 0 for l, r in zip(lhs, rhs))


def test_sigma_order_a():
    R = ring(5, 2, 4)
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(rng.randrange(R.modulus) for _ in range(R.a))
        y = x
        for _ in range(R.a):
            y = R.sigma(y)
        assert y == x
        assert R.sigma(R.sigma_inverse(x)) == x


def test_teichmuller_prime_field_frozen():
    # p=7, N=3: the unique x in Z/343 with x^7 = x and x = 2 mod 7.
    # Frozen from the independent iteration x -> x^7 mod 343 run by hand:
    # 2 -> 128 -> ... fixpoint.
    x = 2
    while pow(x, 7, 343) != x:
        x = pow(x, 7, 343)
    R = ring(7, 1, 3, hbar=(0, 1))
    assert R.teichmuller_lift((2,)) == (x,)
    assert R.teichmuller_lift((0,)) == R.zero
    assert R.teichmuller_lift((1,)) == R.one


def test_teichmuller_roots_of_unity():
    R = ring(5, 1, 4, hbar=(0, 1))
    for c in range(1, 5):
        x = R.teichmuller_lift((c,))
        assert R.pow(x, 4) == R.one


def test_teichmuller_multiplicative_exhaustive_q25():
    R = ring(5, 2, 3)
    p = 5
    residues = [(i, j) for i in range(p) for j in range(p)]

    def fq_mul(u, v):
        prod = gf.mul(gf.trim(u), gf.trim(v), p)
        hbar = R.spec.hbar
        return gf.mod(prod, hbar, p)

    for u in residues:
        for v in residues:
            w = fq_mul(u, v)
            lhs = R.mul(R.teichmuller_lift(u), R.teichmuller_lift(v))
            rhs = R.teichmuller_lift(tuple(w) + (0,) * (2 - len(w)))
            assert lhs == rhs


def test_teichmuller_power_frobenius_inverse():
    # For Teichmueller x: sigma^{-1}(x) = x^(q/p).
    R = ring(3, 2, 5)
    for code in range(1, 9):
        res = (code % 3, code // 3)
        x = R.teichmuller_lift(res)
        assert R.sigma_inverse(x) == R.pow(x, R.q // R.p)


def test_valuation_and_exact_division():
    R = ring(5, 2, 4)
    x = R.smul(25, R.gen())
    assert R.valuation(x) == 2
    assert R.valuation(R.zero) == R.N
    assert R.divide_exact_by_p(R.from_int(10)) == R.from_int(2)
    with pytest.raises(ZeroDivisionError):
        R.divide_exact_by_p(R.from_int(3))


def test_conway_polynomials_known_values():
    assert gf.conway_polynomial(3, 1) == (1, 1)          # x + 1
    assert gf.conway_polynomial(3, 2) == (2, 2, 1)       # x^2 + 2x + 2
    assert gf.conway_polynomial(5, 2) == (2, 4, 1)       # x^2 + 4x + 2
    assert gf.conway_polynomial(7, 2) == (3, 6, 1)       # x^2 + 6x + 3
