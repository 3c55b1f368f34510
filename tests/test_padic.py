"""Tests for arithmetic in R = Z_q/p^N: ring axioms, inverse Frobenius,
Teichmueller lifts, pinned values of the lifted polynomial and sigma^-1, and
the int representation and normalize's contract against a schoolbook tuple
reference."""

from __future__ import annotations

import random

import pytest

from ring_helpers import TupleRing, from_coords, from_int, valuation

from dworkzeta import gf
from dworkzeta.errors import DEFAULT_BUDGET, BudgetExceeded, InvalidFieldSpec
from dworkzeta.padic import (HEADROOM_BITS, FieldSpec, check_characteristic,
                             make_ring)


def ring(p, a, n, hbar=None):
    if hbar is None:
        hbar = gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def sigma_inverse_power(R, x, k):
    for _ in range(k):
        x = R.sigma_inverse(x)
    return x


def random_element(R, rng):
    return from_coords(R, [rng.randrange(R.modulus) for _ in range(R.a)])


def residues(R):
    """Every F_q element as its F_p coefficient vector."""
    return [tuple((code // R.p ** i) % R.p for i in range(R.a))
            for code in range(R.q)]


def test_prime_field_sigma_identity():
    R = ring(7, 1, 3, hbar=(0, 1))  # hbar = t
    x = from_int(R, 123)
    assert R.sigma_inverse(x) == x


def test_reducible_polynomial_rejected():
    with pytest.raises(InvalidFieldSpec):
        ring(3, 2, 4, hbar=(1, 2, 1))  # (t+1)^2


def test_p2_and_composite_rejected():
    with pytest.raises(InvalidFieldSpec):
        ring(2, 1, 3, hbar=(0, 1))
    with pytest.raises(InvalidFieldSpec):
        ring(9, 1, 3, hbar=(0, 1))
    with pytest.raises(InvalidFieldSpec):
        ring(10 ** 400, 1, 3, hbar=(0, 1))


@pytest.mark.parametrize("p", [3, 7, 2 ** 31 - 1, 2 ** 61 - 1])
def test_primes_accepted(p):
    check_characteristic(p)


@pytest.mark.parametrize("p", [
    1, 2, 9, 561, 2047, 3215031751,
    # 149491 * 747451 * 34233211: a strong pseudoprime to every prime base
    # up to 23
    3825123056546413051,
])
def test_composites_rejected(p):
    with pytest.raises(InvalidFieldSpec, match="not an odd prime"):
        check_characteristic(p)


@pytest.mark.parametrize("p", [
    # the least strong pseudoprime to every base 2..41
    gf.PRIME_TEST_LIMIT,
    2 ** 89 - 1,  # a prime past the limit
])
def test_prime_test_beyond_its_limit_rejected(p):
    with pytest.raises(InvalidFieldSpec, match="too large"):
        check_characteristic(p)


def test_lifted_polynomial_divides_xq_minus_x():
    # (p=3, a=2, hbar=t^2+1): generator must satisfy t^9 = t, sigma^-2 = id,
    # sigma^-1(t) = t^3 = -t modulo the lifted polynomial.
    R = ring(3, 2, 5, hbar=(1, 0, 1))
    t = R.gen()
    assert R.pow(t, 9) == t
    assert R.sigma_inverse(R.sigma_inverse(t)) == t
    assert R.sigma_inverse(t) == R.neg(t)


def test_ring_axioms_random():
    R = ring(5, 2, 4)
    rng = random.Random(1)
    sample = [random_element(R, rng) for _ in range(12)]
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
        u = random_element(R, rng)
        if not R.is_unit(u):
            continue
        count += 1
        assert R.mul(u, R.inv(u)) == R.one


def test_sigma_is_ring_hom_and_reduces_to_pth_power():
    # sigma^-1 is a ring homomorphism, and its image raised to the p-th power
    # is the element again mod p (sigma^-1 inverts x -> x^p on F_q).
    for (p, a) in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        R = ring(p, a, 4)
        rng = random.Random(p)
        for _ in range(10):
            x = random_element(R, rng)
            y = random_element(R, rng)
            assert R.sigma_inverse(R.mul(x, y)) == R.mul(
                R.sigma_inverse(x), R.sigma_inverse(y))
            assert R.sigma_inverse(R.add(x, y)) == R.add(
                R.sigma_inverse(x), R.sigma_inverse(y))
        for res in residues(R):
            x = R.from_residue(res)
            lhs = R.pow(R.sigma_inverse(x), p)
            assert all((l - r) % p == 0
                       for l, r in zip(R.serialize(lhs), R.serialize(x)))


def test_sigma_order_a():
    for (p, a) in [(5, 2), (3, 3)]:
        R = ring(p, a, 4)
        t = R.gen()
        fixed = [sigma_inverse_power(R, t, k) == t for k in range(1, a + 1)]
        assert fixed == [False] * (a - 1) + [True]
        rng = random.Random(3)
        for _ in range(20):
            x = random_element(R, rng)
            assert sigma_inverse_power(R, x, a) == x


def test_teichmuller_prime_field_frozen():
    # p=7, N=3: the unique x in Z/343 with x^7 = x and x = 2 mod 7.
    # Frozen from the independent iteration x -> x^7 mod 343 run by hand:
    # 2 -> 128 -> ... fixpoint.
    x = 2
    while pow(x, 7, 343) != x:
        x = pow(x, 7, 343)
    R = ring(7, 1, 3, hbar=(0, 1))
    assert R.teichmuller_lift((2,)) == from_int(R, x)
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


def test_teichmuller_multiplicative_and_lifted_polynomial_q27():
    # a = 3: h | x^27 - x (the generator is a Teichmueller element) and the
    # lifts of all F_27 elements multiply like their residues.
    R = ring(3, 3, 6)
    t = R.gen()
    assert R.pow(t, R.q) == t
    lifts = {res: R.teichmuller_lift(res) for res in residues(R)}
    for u in lifts:
        for v in lifts:
            w = gf.mod(gf.mul(gf.trim(u), gf.trim(v), 3), R.spec.hbar, 3)
            key = tuple(w) + (0,) * (3 - len(w))
            assert R.mul(lifts[u], lifts[v]) == lifts[key]


def test_precision_one_lifts_are_residues():
    # N = 1: the lift exponent is q^0, so teich is the identity on F_q, and
    # h is hbar itself.
    for (p, a) in [(5, 1), (3, 2), (3, 3)]:
        R = ring(p, a, 1)
        assert R._h == tuple(c % p for c in R.spec.hbar[:-1])
        for res in residues(R):
            x = R.from_residue(res)
            assert R.teichmuller_lift(res) == x
            assert R.pow(R.sigma_inverse(x), p) == x


# (p, a, N) -> (h_0..h_{a-1}, sigma^-1 matrix) over the Conway polynomial,
# computed by other rules (a Newton iteration for the lift, sigma^(a-1) for
# sigma^-1); both values are unique, so every correct rule reproduces them.
PINNED_RINGS = {
    (7, 1, 9): ((14906455,), [[1]]),
    (3, 2, 5): ((242, 221), [[1, 22], [0, 242]]),
    (5, 2, 8): ((280182, 117214), [[1, 273411], [0, 390624]]),
    (3, 3, 6): ((1, 722, 606),
                [[1, 124, 556], [0, 721, 605], [0, 606, 7]]),
}


@pytest.mark.parametrize("key", sorted(PINNED_RINGS))
def test_lifted_polynomial_and_sigma_inverse_pinned(key):
    h, sigma_inv = PINNED_RINGS[key]
    R = ring(*key)
    assert R._h == h
    # Column j of the matrix holds the coordinates of sigma^-1(t^j).
    columns = [R.serialize(R.sigma_inverse(R.pow(R.gen(), j)))
               for j in range(R.a)]
    assert [list(row) for row in zip(*columns)] == sigma_inv


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
    assert valuation(R, x) == 2
    assert valuation(R, R.zero) == R.N
    assert R.divide_exact_by_p(from_int(R, 10)) == from_int(R, 2)
    with pytest.raises(ZeroDivisionError):
        R.divide_exact_by_p(from_int(R, 3))


def test_conway_polynomials_known_values():
    assert gf.conway_polynomial(3, 1) == (1, 1)          # x + 1
    assert gf.conway_polynomial(3, 2) == (2, 2, 1)       # x^2 + 2x + 2
    assert gf.conway_polynomial(5, 2) == (2, 4, 1)       # x^2 + 4x + 2
    assert gf.conway_polynomial(7, 2) == (3, 6, 1)       # x^2 + 6x + 3


# C_{p,m} for p <= 11, m <= 4, as the search over every word finds them
# (they agree with the published tables of Conway polynomials).
CONWAY_TABLE = {
    (3, 1): (1, 1), (3, 2): (2, 2, 1), (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1), (5, 1): (3, 1), (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1), (5, 4): (2, 4, 4, 0, 1), (7, 1): (4, 1),
    (7, 2): (3, 6, 1), (7, 3): (4, 0, 6, 1), (7, 4): (3, 4, 5, 0, 1),
    (11, 1): (9, 1), (11, 2): (2, 7, 1), (11, 3): (9, 2, 0, 1),
    (11, 4): (2, 10, 8, 0, 1),
}


def test_conway_search_on_constant_term_matches_table():
    search = gf.conway_polynomial.__wrapped__
    for (p, m), f in CONWAY_TABLE.items():
        assert search(p, m) == f, (p, m)


def test_conway_search_budget_counts_candidates_tried(monkeypatch):
    # Only the words ending in C_{7,1}'s root 3 are tried: C_{7,3} =
    # x^3 + 6x^2 + 4 is the word (1, 0, 3), the 8th candidate tried.
    search = gf.conway_polynomial.__wrapped__
    monkeypatch.setattr(gf, "DEFAULT_BUDGET", 8)
    assert search(7, 3) == (4, 0, 6, 1)
    monkeypatch.setattr(gf, "DEFAULT_BUDGET", 7)
    with pytest.raises(BudgetExceeded):
        search(7, 3)


def test_conway_search_past_budget_p_squared():
    # p^2 exceeds DEFAULT_BUDGET, but the search ends after 2 candidates:
    # the word (1, 3), with 3 = C_{p,1}'s root (the norm of x).
    p = 10039
    assert p ** 2 > DEFAULT_BUDGET
    assert gf.conway_polynomial(p, 1) == (p - 3, 1)     # x - 3
    assert gf.conway_polynomial(p, 2) == (3, p - 1, 1)  # x^2 - x + 3
    # A p above the budget is refused before any candidate is tried.
    with pytest.raises(BudgetExceeded):
        gf.conway_polynomial(2 ** 61 - 1, 2)


@pytest.mark.parametrize("search", [gf.smallest_irreducible,
                                    gf.conway_polynomial])
def test_field_search_cache_bounded(search):
    assert search.cache_info().maxsize == gf.CACHE_SIZE
    expected = search(5, 2)
    # more distinct prime fields than the cache holds evict (5, 2)
    primes = [p for p in range(3, 1000)
              if all(p % k for k in range(2, int(p ** 0.5) + 1))]
    for p in primes[:gf.CACHE_SIZE + 1]:
        search(p, 1)
    misses = search.cache_info().misses
    assert search(5, 2) == expected
    assert search.cache_info().misses == misses + 1


# ---- the int representation --------------------------------------------------

INT_RINGS = [(7, 1, 6), (5, 2, 7), (3, 3, 6)]


@pytest.mark.parametrize("p, a, n", INT_RINGS)
def test_operations_are_ints_agreeing_with_tuple_reference(p, a, n):
    R = ring(p, a, n)
    ref = TupleRing(R)
    assert type(R.zero) is int and type(R.one) is int and type(R.gen()) is int
    assert R.serialize(R.one) == [1] + [0] * (a - 1)
    if a > 1:
        assert R.serialize(R.gen()) == [0, 1] + [0] * (a - 2)
    rng = random.Random(100 * p + a)
    units = 0
    for _ in range(40):
        xs = [rng.randrange(R.modulus) for _ in range(a)]
        ys = [rng.randrange(R.modulus) for _ in range(a)]
        x, y = from_coords(R, xs), from_coords(R, ys)
        assert R.serialize(x) == xs and R.serialize(y) == ys
        X, Y = tuple(xs), tuple(ys)
        c = rng.randrange(-R.modulus, R.modulus)
        for got, want in [(R.add(x, y), ref.add(X, Y)),
                          (R.sub(x, y), ref.sub(X, Y)),
                          (R.neg(x), ref.neg(X)),
                          (R.smul(c, x), ref.smul(c, X)),
                          (R.mul(x, y), ref.mul(X, Y))]:
            assert type(got) is int
            assert tuple(R.serialize(got)) == want
        assert R.is_unit(x) == any(v % p for v in xs)
        if R.is_unit(x):
            units += 1
            u = R.inv(x)
            assert type(u) is int
            assert ref.mul(X, tuple(R.serialize(u))) == tuple(R.serialize(R.one))
    assert units > 20


@pytest.mark.parametrize("p, a, n", INT_RINGS)
def test_packing_width_leaves_headroom(p, a, n):
    R = ring(p, a, n)
    ref = TupleRing(R)
    m = R.modulus
    assert a * (m - 1) ** 2 < 2 ** R.k
    assert (m - 1) ** 2 * 2 ** HEADROOM_BITS < 2 ** R.k
    # The largest element squared: every convolution digit at its maximum.
    top = from_coords(R, [m - 1] * a)
    assert tuple(R.serialize(R.mul(top, top))) == ref.mul((m - 1,) * a,
                                                         (m - 1,) * a)
    # 2^HEADROOM_BITS terms (m-1) * top, one more than normalize's term
    # count: a sum with no products fits even so.
    assert R.serialize(R.normalize((m - 1) * top * 2 ** HEADROOM_BITS)) == (
        [(m - 1) ** 2 * 2 ** HEADROOM_BITS % m] * a)
    # An unreduced sum of scaled elements equals the reference sum.
    rng = random.Random(7 * p + a)
    acc, want = 0, (0,) * a
    for _ in range(50):
        c = rng.randrange(m)
        xs = tuple(rng.randrange(m) for _ in range(a))
        acc += c * from_coords(R, xs)
        want = ref.add(want, ref.smul(c, xs))
    assert tuple(R.serialize(R.normalize(acc))) == want


@pytest.mark.parametrize("p, a, n", [(5, 2, 7), (3, 3, 6), (7, 2, 3)])
def test_normalize_takes_sums_of_products_and_scaled_elements(p, a, n):
    """One normalize of a sum of products of two elements and of elements
    times integers in [0, p^N) equals the reference sum, up to the term
    count that the packing width is checked for."""
    R = ring(p, a, n)
    ref = TupleRing(R)
    m = R.modulus
    terms = 2 ** HEADROOM_BITS - 1
    assert (terms * a + a - 1) * (m - 1) ** 2 < 2 ** R.k
    rng = random.Random(11 * p + a)
    acc, want = 0, (0,) * a
    for _ in range(300):
        xs = tuple(rng.randrange(m) for _ in range(a))
        ys = tuple(rng.randrange(m) for _ in range(a))
        if rng.random() < 0.5:
            acc += from_coords(R, xs) * from_coords(R, ys)
            want = ref.add(want, ref.mul(xs, ys))
        else:
            c = rng.randrange(m)
            acc += c * from_coords(R, xs)
            want = ref.add(want, ref.smul(c, xs))
    assert tuple(R.serialize(R.normalize(acc))) == want
    # The largest such sum: every term the product of the largest element
    # with itself.
    top = (m - 1,) * a
    x = from_coords(R, top)
    assert tuple(R.serialize(R.normalize(x * x * terms))) == ref.smul(
        terms, ref.mul(top, top))
    # mul and muladd are normalize of a product (plus an element).
    y = random_element(R, rng)
    assert R.mul(x, y) == R.normalize(x * y)
    assert R.muladd(x, y, x) == R.normalize(x * y + x)


@pytest.mark.parametrize("p, a, n", INT_RINGS)
def test_scalar_zero_and_exact_division_on_ints(p, a, n):
    R = ring(p, a, n)
    assert R.is_zero(R.zero) and not R.is_zero(R.one)
    assert R.scalar(from_int(R, -3), p ** (n - 1)) == -3 % p ** (n - 1)
    if a > 1:
        with pytest.raises(ValueError):
            R.scalar(R.gen(), R.modulus)
        # a non-scalar part that vanishes mod the given modulus is accepted
        x = R.add(from_int(R, 5), R.smul(p ** (n - 1), R.gen()))
        assert R.scalar(x, p ** (n - 1)) == 5
    xs = [p * (i + 2) for i in range(a)]
    assert R.serialize(R.divide_exact_by_p(from_coords(R, xs))) == [
        i + 2 for i in range(a)]
