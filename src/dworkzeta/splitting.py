"""Coefficients of the p-adic splitting series.

The exponential-sum machinery rewrites additive characters through the series
theta(z) = exp(pi*z - pi*z^p) = sum_i ell_i (pi*z)^i, where pi^(p-1) = -p.
Each coefficient ell_i is a rational number lying in Z_p[1/p] with a small,
explicitly bounded power of p in the denominator:

    ell_i = sum_{j=0}^{floor(i/p)} 1 / (p^j * (i - p*j)! * j!),

and  ord_p(ell_i) >= -d(p, i)  with  d(p, i) = floor(i*(2p-1) / (p^2*(p-1))).

The coefficients come from a recurrence rather than from that sum.  theta
satisfies theta' = pi*(1 - p*z^(p-1))*theta; comparing coefficients and using
pi^(p-1) = -p gives

    ell_0 = 1,   i * ell_i = ell_{i-1} + ell_{i-p}   (ell_j = 0 for j < 0).

Precision ledger for a series of length L.  Put D = d(p, L-1), the largest
denominator exponent allowed (d is nondecreasing in i), so X_i = p^D * ell_i
is a p-adic integer for every i < L.  The recurrence runs on the X_i as
integers mod p^M.  Adding and multiplying by the inverse of the unit part of
i lose nothing; dividing the sum by p^(v_p(i)) turns a value known mod p^k
into one known mod p^(k - v_p(i)).  So X_i is known mod p^(M - v_p(i!)), and
M = N_work + D + v_p((L-1)!) leaves every X_i known mod p^(N_work + D).  The
output needs exactly that: ell_i = p^(-e) * numer has e = D - min(v_p(X_i), D),
and numer = X_i / p^(D-e) is wanted mod p^(N_work + e).

Each coefficient is the pair (e, numer), the value p^(-e) * numer with numer
taken modulo p^(N_work + e), which is precisely the precision needed so that
any later product multiplied by a compensating p^e is correct modulo
p^(N_work).

compute_splitting keeps nothing; frobenius.splitting_for keeps the tables
the expansion reads off the last series it asked for.
"""

from __future__ import annotations

from typing import Tuple

from .errors import InternalPrecisionError

# ell_0..ell_{L-1} as pairs (e, numer): ell_i = p^(-e) * numer, numer mod
# p^(N_work+e).
SplittingSeries = Tuple[Tuple[int, int], ...]


def d_bound(p: int, i: int) -> int:
    """Upper bound for the denominator exponent of ell_i: ord_p(ell_i) >= -d_bound."""
    return (i * (2 * p - 1)) // (p * p * (p - 1))


def _vp_factorial(p: int, n: int) -> int:
    """ord_p(n!) by Legendre's formula."""
    total = 0
    while n:
        n //= p
        total += n
    return total


def compute_splitting(p: int, N_work: int, length: int) -> SplittingSeries:
    """Splitting coefficients ell_0..ell_{length-1} for the prime p."""
    if length <= 0:
        return ()
    D = d_bound(p, length - 1)
    modulus = p ** (N_work + D + _vp_factorial(p, length - 1))
    X = [p ** D]  # X_i = p^D * ell_i, see the precision ledger above
    for i in range(1, length):
        s = X[i - 1] + (X[i - p] if i >= p else 0)
        unit = i
        while unit % p == 0:
            unit //= p
            if s % p:
                raise InternalPrecisionError(
                    f"splitting coefficient ell_{i} has a denominator "
                    f"exponent exceeding the bound {D}")
            s //= p
        X.append(s * pow(unit, -1, modulus) % modulus)

    kept = p ** (N_work + D)
    coeffs = []
    for i, x in enumerate(X):
        x %= kept
        e = D
        while e and x % p == 0:
            x //= p
            e -= 1
        if e > d_bound(p, i):
            raise InternalPrecisionError(
                f"splitting coefficient ell_{i} has denominator exponent {e} "
                f"exceeding the bound {d_bound(p, i)}")
        coeffs.append((e, x))
    return tuple(coeffs)
