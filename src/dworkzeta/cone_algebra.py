"""Graded monomials on the cone over a polytope, and sparse elements over R.

A cone monomial is a pair (d, mu): an auxiliary weight degree d >= 0 together
with an exponent vector mu lying in d * Delta.  The term order compares the
weight degree first and then the exponent vector lexicographically; it is a
total order on monomials, and it is the order of the pairs as tuples.

A ConeElement is a finite R-linear combination of cone monomials, stored
sparsely as a dict; zero coefficients are dropped eagerly so that emptiness
means zero.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .padic import RingContext, RingElement

ConeMonomial = Tuple[int, Tuple[int, ...]]


class ConeElement:
    """Sparse R-linear combination of cone monomials."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext,
                 terms: Dict[ConeMonomial, RingElement] | None = None):
        self.ring = ring
        self.terms: Dict[ConeMonomial, RingElement] = {}
        if terms:
            for m, c in terms.items():
                if not ring.is_zero(c):
                    self.terms[m] = c
