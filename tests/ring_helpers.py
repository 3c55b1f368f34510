"""Ring arithmetic the tests need and the package does not."""

from __future__ import annotations


def valuation(ring, x):
    """min_i ord_p(coeff_i) of x in ring; N for the zero element (the ring is
    unramified)."""
    best = ring.N
    for c in x:
        c %= ring.modulus
        if c == 0:
            continue
        v = 0
        while c % ring.p == 0:
            c //= ring.p
            v += 1
        best = min(best, v)
    return best
