"""Cone-algebra tests: term order, monomial codes and sparse arithmetic."""

from __future__ import annotations

import random

import pytest
from cone_helpers import add_term, cone_sum, mul_monomial, term_order_key
from ring_helpers import from_coords

from dworkzeta import gf
from dworkzeta.cone_algebra import (
    CODE_BITS,
    ConeElement,
    check_code_bound,
    decode,
    encode,
)
from dworkzeta.errors import PrecisionOrLogicError
from dworkzeta.padic import FieldSpec, make_ring


def ring(p=5, a=2, n=4):
    return make_ring(FieldSpec(p=p, a=a, hbar=gf.conway_polynomial(p, a), N_work=n))


def test_term_order_degree_then_lex():
    ms = [(1, (0, 1)), (0, (0, 0)), (1, (1, 0)), (2, (0, 0)), (1, (0, 0))]
    assert sorted(ms, key=term_order_key) == [
        (0, (0, 0)), (1, (0, 0)), (1, (0, 1)), (1, (1, 0)), (2, (0, 0))]


def test_zero_coefficients_dropped():
    R = ring()
    e = ConeElement(R, {(1, (0, 0)): R.zero, (1, (1, 0)): R.one})
    assert list(e.terms) == [(1, (1, 0))]
    add_term(e, (1, (1, 0)), R.neg(R.one))
    assert e.terms == {}


def test_arithmetic_against_dict_model():
    """Random sums (by add_term) and monomial multiplies compared with a naive
    dict model that does the bookkeeping with plain ring operations."""
    R = ring()
    rng = random.Random(9)

    def rand_elt(k):
        terms = {}
        for _ in range(k):
            m = (rng.randrange(0, 3), (rng.randrange(0, 4), rng.randrange(0, 4)))
            terms[m] = from_coords(R, [rng.randrange(R.modulus) for _ in range(R.a)])
        return ConeElement(R, terms)

    for _ in range(25):
        x, y = rand_elt(5), rand_elt(5)
        s = cone_sum(R, x, y)
        model = dict(x.terms)
        for m, c in y.terms.items():
            model[m] = R.add(model.get(m, R.zero), c)
        model = {m: c for m, c in model.items() if not R.is_zero(c)}
        assert s.terms == model
        assert cone_sum(R, y, x).terms == model
        neg_x = ConeElement(R, {m: R.neg(c) for m, c in x.terms.items()})
        assert cone_sum(R, x, neg_x).terms == {}

        m0 = (1, (2, 1))
        shifted = mul_monomial(x, m0)
        assert shifted.terms == {
            (d + 1, (mu[0] + 2, mu[1] + 1)): v for (d, mu), v in x.terms.items()}

        c = from_coords(R, [rng.randrange(R.modulus) for _ in range(R.a)])
        assert mul_monomial(x, m0, c).terms == {
            (d + 1, (mu[0] + 2, mu[1] + 1)): R.mul(c, v)
            for (d, mu), v in x.terms.items() if not R.is_zero(R.mul(c, v))}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_codes_keep_term_order_and_products(n):
    """On random monomials with negative coordinates, up to the largest
    the bound allows: code order is the term order, decode inverts encode,
    and code(m) + code(m') - code(1) is the code of m * m'."""
    rng = random.Random(30 + n)
    half = 1 << (CODE_BITS - 1)
    one = encode((0, (0,) * n))

    def monomial(big):
        d = rng.randrange(1 << 40) if big else rng.randrange(6)
        span = half // 2 if big else 6
        return (d, tuple(rng.randrange(-span, span) for _ in range(n)))

    ms = [monomial(big) for big in (False, True) for _ in range(300)]
    ms += [(0, (0,) * n), (3, (half - 1,) * n), (3, (-half,) * n)]
    assert sorted(ms, key=encode) == sorted(ms, key=term_order_key)
    for m in ms:
        assert decode(encode(m), n) == m
    for _ in range(300):
        m, m2 = monomial(False), monomial(rng.random() < 0.5)
        prod = (m[0] + m2[0], tuple(a + b for a, b in zip(m[1], m2[1])))
        assert encode(m) + encode(m2) - one == encode(prod)


def test_code_bound():
    """check_code_bound admits degree times the largest vertex coordinate
    up to 2^(B-1) - 1, the largest that keeps every field apart, and
    refuses the next: there a coordinate spills into the neighbouring
    field."""
    half = 1 << (CODE_BITS - 1)
    check_code_bound(half - 1, [(1, 0), (0, -1)])
    check_code_bound(7, [(0, 0), ((half - 1) // 7, 0)])
    check_code_bound(0, [(10 ** 30,)])
    for degree, c in ((half, 1), (1, half), (7, half // 7 + 1)):
        for vertices in ([(c, 0), (0, 1)], [(0, 0), (0, -c)]):
            with pytest.raises(PrecisionOrLogicError):
                check_code_bound(degree, vertices)
    for c in (half - 1, -half):
        assert decode(encode((1, (c, 0))), 2) == (1, (c, 0))
    for c in (half, -half - 1):
        assert decode(encode((1, (c, 0))), 2) != (1, (c, 0))
