"""The oracle's field tables built the earlier way: the reference that
oracle.ExtensionField is checked against.

reference_tables builds F_p[t]/(h), h = gf.smallest_irreducible(p, d), with
its own generator search (the smallest code whose order is Q - 1, tested by
polynomial powers) and a digit table: digits[k] holds the base-p digits of
g^k, filled by doubling, each round one (rows x d)(d x d) integer product
with the matrix of multiplication by g^m, in row chunks.  The codes, the
log and the padded Zech table follow from the digits as they do in the
oracle.  It keeps the n x d digit table that the oracle avoids, so it is
slower and larger, and only tests call it."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from dworkzeta import gf

# Rows of the digit table multiplied at once.
CHUNK_ROWS = 8192


def reference_generator(p: int, d: int, h: gf.Poly) -> gf.Poly:
    """The element of F_p[t]/(h) of order p^d - 1 with the smallest code."""
    n = p ** d - 1
    factors = gf.factorize(n)
    for code in range(1, n + 1):
        cand = gf.trim((code // p ** i) % p for i in range(d))
        if gf.powmod(cand, n, h, p) == (1,) and all(
                gf.powmod(cand, n // ell, h, p) != (1,) for ell in factors):
            return cand
    raise AssertionError(f"F_{p}^{d} has no generator")


def mul_matrix(c: gf.Poly, h: gf.Poly, p: int, d: int, dtype) -> np.ndarray:
    """d x d matrix over F_p of multiplication by c: row j holds the digits
    of c*t^j mod h, so a digit row vector times it gives the digits of the
    product, before reduction mod p."""
    M = np.zeros((d, d), dtype=dtype)
    row = gf.trim(c)
    for j in range(d):
        M[j, :len(row)] = row
        row = gf.mod(gf.mul((0, 1), row, p), h, p)
    return M


def reference_tables(p: int, d: int
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(exp_codes, log, zech, zero_mark) of F_{p^d}, as documented on
    oracle.ExtensionField."""
    h = gf.smallest_irreducible(p, d)
    n = p ** d - 1
    g = reference_generator(p, d, h)
    # A product sums d terms below p^2, so int32 holds it while
    # d (p - 1)^2 < 2^31.
    wide = np.int32 if d * (p - 1) ** 2 < 2 ** 31 else np.int64
    digits = np.zeros((n, d), dtype=wide)
    digits[0, 0] = 1
    m = 1
    while m < n:
        step = min(m, n - m)
        M = mul_matrix(gf.powmod(g, m, h, p), h, p, d, wide)
        for lo in range(0, step, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, step)
            np.remainder(digits[lo:hi] @ M, p, out=digits[m + lo:m + hi])
        m += step
    dtype = np.int32
    place = np.array([p ** i for i in range(d)], dtype=wide)
    codes = (digits @ place).astype(dtype, copy=False)
    log = np.full(n + 1, -1, dtype=dtype)
    log[codes] = np.arange(n, dtype=dtype)
    zech = np.zeros(9 * n, dtype=dtype)
    base = zech[:n]
    base[log[1:]] = np.roll(log.reshape(-1, p), -1, axis=1).ravel()[1:]
    zero_mark = 5 * n
    base[log[p - 1]] = zero_mark
    for k in (1, 2, 7, 8):
        zech[k * n:(k + 1) * n] = base
    return codes, log, zech, zero_mark
