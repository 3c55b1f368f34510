"""Cone-algebra arithmetic the tests need and the package does not: sums of
elements, products with a monomial, and the operators D_i applied to an
element."""

from __future__ import annotations

from dworkzeta.cone_algebra import ConeElement


def cone_sum(ring, *elements):
    """The sum of the given ConeElements, accumulated with add_term."""
    out = ConeElement(ring)
    for e in elements:
        for m, c in e:
            out.add_term(m, c)
    return out


def mul_monomial(elem, m0, c=None):
    """elem times the monomial m0 (optionally scaled by c), by add_term."""
    ring = elem.ring
    d0, mu0 = m0
    out = ConeElement(ring)
    for (d, mu), v in elem:
        if c is not None:
            v = ring.mul(c, v)
            if ring.is_zero(v):
                continue
        out.add_term((d + d0, tuple(x + y for x, y in zip(mu, mu0))), v)
    return out


def apply_Di(lifted, i, xi):
    """D_i xi = x_i d(xi)/dx_i + (pi*w) f_i * xi, computed in the cone algebra."""
    ring = lifted.ring
    out = ConeElement(ring)
    for m, c in xi:
        mult = lifted.var_exponent(i, m)
        if mult:
            out.add_term(m, ring.smul(mult, c))
    gen = lifted.generator(i)
    return cone_sum(ring, out, *(mul_monomial(gen, m, c) for m, c in xi))
