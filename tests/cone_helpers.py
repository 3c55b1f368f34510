"""Cone-algebra arithmetic the tests need and the package does not: the term
order as a sort key, adding a term in place, sums of elements, products with
a monomial, and the operators D_i applied to an element.

These helpers key an element by (d, mu) tuples, which a test builds by
hand; coded turns such an element into the package's form, keyed by
monomial codes (cone_algebra), and decoded reads the package's form back."""

from __future__ import annotations

from dworkzeta.cone_algebra import ConeElement, decode, encode


def term_order_key(m):
    """Sort key: weight degree first, then lexicographic on the exponents."""
    return (m[0],) + m[1]


def coded(elem):
    """The element keyed by (d, mu) tuples elem, keyed by codes."""
    return ConeElement(elem.ring,
                       {encode(m): c for m, c in elem.terms.items()})


def decoded(elem, n):
    """The terms of the code-keyed element elem, whose monomials have n
    coordinates, as {(d, mu): coefficient}."""
    return {decode(key, n): c for key, c in elem.terms.items()}


def add_term(elem, m, c):
    """Accumulate c on the monomial m of elem, in place; a sum that cancels
    drops the monomial."""
    ring = elem.ring
    total = ring.add(elem.terms.get(m, ring.zero), c)
    if ring.is_zero(total):
        elem.terms.pop(m, None)
    else:
        elem.terms[m] = total


def cone_sum(ring, *elements):
    """The sum of the given ConeElements, accumulated with add_term."""
    out = ConeElement(ring)
    for e in elements:
        for m, c in e.terms.items():
            add_term(out, m, c)
    return out


def mul_monomial(elem, m0, c=None):
    """elem times the monomial m0 (optionally scaled by c), by add_term."""
    ring = elem.ring
    d0, mu0 = m0
    out = ConeElement(ring)
    for (d, mu), v in elem.terms.items():
        if c is not None:
            v = ring.mul(c, v)
            if ring.is_zero(v):
                continue
        add_term(out, (d + d0, tuple(x + y for x, y in zip(mu, mu0))), v)
    return out


def apply_Di(lifted, i, xi):
    """D_i xi = x_i d(xi)/dx_i + (pi*w) f_i * xi, computed in the cone algebra."""
    ring = lifted.ring
    out = ConeElement(ring)
    for m, c in xi.terms.items():
        mult = lifted.var_exponent(i, m)
        if mult:
            add_term(out, m, ring.smul(mult, c))
    gen = ConeElement(ring, {(1, nu): c for nu, c in lifted.generator(i)})
    return cone_sum(ring, out,
                    *(mul_monomial(gen, m, c) for m, c in xi.terms.items()))
