"""Graded monomials on the cone over a polytope, and sparse elements over R.

A cone monomial is a pair (d, mu): an auxiliary weight degree d >= 0 together
with an exponent vector mu lying in d * Delta.  The term order compares the
weight degree first and then the exponent vector lexicographically; it is a
total order on monomials, and it is the order of the pairs as tuples.

Monomial codes.  The package keys monomials by one int each, from the
Frobenius expansion through the reduction sweep: the code of (d, mu) with n
coordinates is d * 2^(B*n) + sum_i (mu_i + 2^(B-1)) * 2^(B*(n-1-i)),
B = CODE_BITS, so the degree is the most significant field and each
coordinate sits biased in a field of its own.  While every coordinate lies in
[-2^(B-1), 2^(B-1)) the fields do not touch, so the integer order of codes
is the term order and the code of a product m * m' is code(m) + code(m') -
code(1) (code(1) = encode((0, (0,) * n)) is the bias).  check_code_bound
refuses a range of monomials for which that could fail; a monomial of
weight degree d in d * Delta has coordinates of absolute value at most d
times the largest vertex coordinate of Delta.  The sum itself is exact
whatever the bound: code(m) - code(1) is linear in (d, mu).

A ConeElement is a finite R-linear combination of cone monomials, stored
sparsely as a dict keyed by their codes; zero coefficients are dropped
eagerly so that emptiness means zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from .errors import PrecisionOrLogicError
from .padic import RingContext, RingElement

ConeMonomial = Tuple[int, Tuple[int, ...]]

CODE_BITS = 32
_HALF = 1 << (CODE_BITS - 1)
_FIELD = (1 << CODE_BITS) - 1


def encode(m: ConeMonomial) -> int:
    """The code of the monomial m (module docstring)."""
    d, mu = m
    for x in mu:
        d = (d << CODE_BITS) + x + _HALF
    return d


def decode(code: int, n: int) -> ConeMonomial:
    """The monomial with n coordinates whose code is code."""
    mu = []
    for _ in range(n):
        mu.append((code & _FIELD) - _HALF)
        code >>= CODE_BITS
    return code, tuple(reversed(mu))


def check_code_bound(degree: int, vertices: Iterable[Sequence[int]]) -> None:
    """Raise PrecisionOrLogicError unless the codes of all monomials of
    weight degree at most degree, in the cone over the polytope with these
    vertices, keep their fields apart."""
    coordinate = max(abs(c) for v in vertices for c in v)
    if degree * coordinate >= _HALF:
        raise PrecisionOrLogicError(
            f"monomials of degree {degree} over vertex coordinates up to "
            f"{coordinate} overflow the {CODE_BITS}-bit fields of their codes")


class ConeElement:
    """Sparse R-linear combination of cone monomials: terms maps the code of
    each monomial to its coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingContext,
                 terms: Dict[int, RingElement] | None = None):
        self.ring = ring
        # Elements are canonical ints, zero exactly when 0 (padic).
        self.terms: Dict[int, RingElement] = {
            key: c for key, c in (terms or {}).items() if c}
