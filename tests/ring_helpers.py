"""Ring arithmetic the tests need and the package does not."""

from __future__ import annotations


def valuation(ring, x):
    """min_i ord_p(coeff_i) of x in ring; N for the zero element (the ring is
    unramified)."""
    best = ring.N
    for c in ring.serialize(x):
        c %= ring.modulus
        if c == 0:
            continue
        v = 0
        while c % ring.p == 0:
            c //= ring.p
            v += 1
        best = min(best, v)
    return best


def from_int(ring, c):
    """The integer c as an element of ring."""
    return ring.smul(c, ring.one)


def from_coords(ring, coords):
    """The element sum_i coords[i] * t^i of ring, built with ring operations
    only (coords has at most ring.a integer entries)."""
    out, t_pow, g = ring.zero, ring.one, ring.gen()
    for c in coords:
        out = ring.add(out, ring.smul(c, t_pow))
        t_pow = ring.mul(t_pow, g)
    return out


class TupleRing:
    """Schoolbook reference for (Z/p^N)[t]/(h) on coordinate tuples of length
    a, over the defining polynomial h of ring: the element layout that
    ring.serialize reports."""

    def __init__(self, ring):
        self.a, self.m, self.h = ring.a, ring.modulus, ring._h

    def add(self, x, y):
        return tuple((u + v) % self.m for u, v in zip(x, y))

    def sub(self, x, y):
        return tuple((u - v) % self.m for u, v in zip(x, y))

    def neg(self, x):
        return tuple(-u % self.m for u in x)

    def smul(self, c, x):
        return tuple(c * u % self.m for u in x)

    def mul(self, x, y):
        a = self.a
        conv = [0] * (2 * a - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                conv[i + j] += u * v
        # t^a = -(h_0 + h_1 t + ... + h_(a-1) t^(a-1)), highest power first.
        for i in range(2 * a - 2, a - 1, -1):
            for j in range(a):
                conv[i - a + j] -= conv[i] * self.h[j]
        return tuple(c % self.m for c in conv[:a])
