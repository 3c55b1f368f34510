"""Polynomial arithmetic and row reduction over the prime field F_p.

Polynomials are tuples of coefficients in ascending degree order with no
trailing zeros (the zero polynomial is the empty tuple).  This module supplies
the small amount of characteristic-p plumbing needed elsewhere: irreducibility
and primitivity tests, deterministic choices of defining polynomials, Conway
polynomials computed from their defining property, and the one dense row
reduction mod p.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

from .errors import DEFAULT_BUDGET, BudgetExceeded, InvalidFieldSpec

Poly = Tuple[int, ...]

CACHE_SIZE = 32  # entries kept by each memoized field search


def trim(coeffs) -> Poly:
    """Drop trailing zeros to canonical form."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def add(f: Poly, g: Poly, p: int) -> Poly:
    n = max(len(f), len(g))
    return trim((((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % p)
                for i in range(n))


def mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def mod(f: Poly, g: Poly, p: int) -> Poly:
    """Remainder of f modulo g (g nonzero)."""
    if not g:
        raise ZeroDivisionError("polynomial modulus is zero")
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    while len(f) - 1 >= dg and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        shift = len(f) - 1 - dg
        factor = (f[-1] * inv_lead) % p
        for j, b in enumerate(g):
            f[shift + j] = (f[shift + j] - factor * b) % p
        while f and f[-1] == 0:
            f.pop()
    return trim(f)


def gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, mod(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = tuple((c * inv) % p for c in f)
    return f


def powmod(f: Poly, e: int, g: Poly, p: int) -> Poly:
    """f^e modulo g."""
    result: Poly = (1,)
    f = mod(f, g, p)
    while e > 0:
        if e & 1:
            result = mod(mul(result, f, p), g, p)
        f = mod(mul(f, f, p), g, p)
        e >>= 1
    return result


def row_reduce(rows: List[List[int]], ncols: int, p: int) -> List[int]:
    """Bring rows (entries in [0, p)) to reduced row echelon form mod p on
    their first ncols columns, in place; row r holds the pivot in column
    pivots[r], and the pivots are returned."""
    pivots: List[int] = []
    for j in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        pivot_row = rows[rank] = [c * inv % p for c in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[j]:
                c = row[j]
                rows[i] = [(x - c * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(j)
    return pivots


def is_irreducible(f: Poly, p: int) -> bool:
    """Test irreducibility of a monic polynomial over F_p."""
    m = len(f) - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    x: Poly = (0, 1)
    # x^(p^m) == x mod f, and gcd(x^(p^(m/l)) - x, f) == 1 for primes l | m.
    xq = x
    for _ in range(m):
        xq = powmod(xq, p, f, p)
    if xq != mod(x, f, p):
        return False
    for ell in factorize(m):
        xk = x
        for _ in range(m // ell):
            xk = powmod(xk, p, f, p)
        if gcd(add(xk, tuple((-c) % p for c in x), p), f, p) != (1,):
            return False
    return True


# The primes 2, ..., 41.  Every odd composite below PRIME_TEST_LIMIT fails
# the strong test to one of them; PRIME_TEST_LIMIT itself is the least
# composite that passes all thirteen.
PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test to the bases PRIME_TEST_BASES, exact
    for p < PRIME_TEST_LIMIT; a larger p that passes every base raises
    InvalidFieldSpec, since the test cannot tell it from a composite."""
    if p < 2 or any(p % b == 0 for b in PRIME_TEST_BASES):
        return p in PRIME_TEST_BASES
    d, s = p - 1, 0  # p - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in PRIME_TEST_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= PRIME_TEST_LIMIT:
        raise InvalidFieldSpec(
            f"p = a {p.bit_length()}-bit number is too large for the "
            "deterministic prime test (p < 3.3e24)")
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_primitive(f: Poly, g: Poly, p: int, q_minus_1_factors: dict[int, int]) -> bool:
    """Is f a generator of (F_p[x]/g)^x ?  g must be irreducible, of degree
    m: then the group is cyclic of order p^m - 1, so f^(p^m - 1) = 1 for
    every f not divisible by g, and f generates it unless
    f^((p^m - 1)/l) = 1 for a prime l of q_minus_1_factors, those of
    p^m - 1."""
    order = p ** (len(g) - 1) - 1
    if not mod(f, g, p):
        return False
    return all(powmod(f, order // ell, g, p) != (1,)
               for ell in q_minus_1_factors)


def _monic_polys(p: int, m: int) -> Iterator[Poly]:
    """All monic degree-m polynomials, low coefficients enumerated lexicographically."""
    total = p ** m
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(m):
            coeffs.append(c % p)
            c //= p
        yield tuple(coeffs) + (1,)


@lru_cache(maxsize=CACHE_SIZE)
def smallest_irreducible(p: int, m: int) -> Poly:
    """The lexicographically smallest (on low-to-high coefficients) monic
    irreducible polynomial of degree m over F_p; deterministic."""
    for f in _monic_polys(p, m):
        if is_irreducible(f, p):
            return f
    raise InvalidFieldSpec(f"no irreducible polynomial of degree {m} over F_{p}")


def _conway_candidates(p: int, m: int, a0s) -> Iterator[Poly]:
    """Monic degree-m polynomials whose word ends in a value of a0s, in the
    Conway word order.

    A candidate x^m + c_{m-1}x^{m-1} + ... + c_0 is identified with the word
    (a_{m-1}, ..., a_0) where a_i = (-1)^(m-i) c_i mod p; candidates are
    enumerated in ascending lexicographic word order, in which a_0 varies
    fastest: the higher words (a_{m-1}, ..., a_1) come in the order in which
    _monic_polys enumerates (a_1, ..., a_{m-1}).
    """
    for high in _monic_polys(p, m - 1):
        for a0 in a0s:
            word = (a0,) + high[:-1]
            yield tuple((-1) ** (m - i) * ai % p
                        for i, ai in enumerate(word)) + (1,)


@lru_cache(maxsize=CACHE_SIZE)
def conway_polynomial(p: int, m: int) -> Poly:
    """Conway polynomial C_{p,m}, computed from its defining property:

    the word-order-minimal monic primitive polynomial of degree m over F_p
    compatible with all proper subfields, i.e. C_{p,k}(x^((p^m-1)/(p^k-1)))
    vanishes modulo the candidate for every proper divisor k of m.

    For m > 1 compatibility with C_{p,1} = x - r fixes the constant term:
    x^((p^m-1)/(p-1)) is the norm of x, (-1)^m c_0 = a_0, so it must be r.
    Only the candidates with a_0 = r are tried, one per higher word.  The
    search stops at the first candidate that passes and raises
    BudgetExceeded once it has tried more than DEFAULT_BUDGET.  For m > 1
    a p above DEFAULT_BUDGET is refused before the search starts: the
    trial division that factors p^m - 1 may take p^(m/2) steps.
    """
    if m > 1 and p > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"the Conway search over degree-{m} polynomials mod p factors "
            f"p^{m} - 1 by trial division, up to p^({m}/2) steps, more than "
            f"the budget of {DEFAULT_BUDGET}")
    order_factors = factorize(p ** m - 1)
    subs = [(k, conway_polynomial(p, k)) for k in range(1, m) if m % k == 0]
    # For m > 1, a_0 is the root r of C_{p,1} = subs[0][1] (docstring).
    a0s = range(p) if m == 1 else (-subs[0][1][0] % p,)
    x: Poly = (0, 1)
    for tried, f in enumerate(_conway_candidates(p, m, a0s), 1):
        if tried > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"the Conway search for p = {p}, m = {m} tried more than the "
                f"budget of {DEFAULT_BUDGET} candidates")
        if not is_irreducible(f, p):
            continue
        if not is_primitive(x, f, p, order_factors):
            continue
        ok = True
        for k, ck in subs:
            e = (p ** m - 1) // (p ** k - 1)
            xe = powmod(x, e, f, p)
            val: Poly = ()
            for c in reversed(ck):
                val = add(mod(mul(val, xe, p), f, p), (c,) if c else (), p)
            if val != ():
                ok = False
                break
        if ok:
            return f
    raise InvalidFieldSpec(f"no Conway polynomial found for p={p}, m={m}")
