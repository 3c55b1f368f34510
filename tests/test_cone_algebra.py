"""Cone-algebra tests: term order and sparse arithmetic."""

from __future__ import annotations

import random

from cone_helpers import add_term, cone_sum, mul_monomial

from dworkzeta import gf
from dworkzeta.cone_algebra import ConeElement, term_order_key
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
            terms[m] = tuple(rng.randrange(R.modulus) for _ in range(R.a))
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

        c = tuple(rng.randrange(R.modulus) for _ in range(R.a))
        assert mul_monomial(x, m0, c).terms == {
            (d + 1, (mu[0] + 2, mu[1] + 1)): R.mul(c, v)
            for (d, mu), v in x.terms.items() if not R.is_zero(R.mul(c, v))}
