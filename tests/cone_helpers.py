"""Cone-algebra arithmetic the tests need and the package does not: sums of
elements and the operators D_i applied to an element."""

from __future__ import annotations

from dworkzeta.cone_algebra import ConeElement


def cone_sum(ring, *elements):
    """The sum of the given ConeElements, accumulated with add_term."""
    out = ConeElement(ring)
    for e in elements:
        for m, c in e:
            out.add_term(m, c)
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
    return cone_sum(ring, out, *(gen.mul_monomial(m, c) for m, c in xi))
