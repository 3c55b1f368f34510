"""Exact splitting coefficients (test-side only).

ell_fraction sums the defining series of ell_i with Fractions and factorials;
scaled_residue packages such an exact value the way
dworkzeta.splitting.compute_splitting does, so the recurrence there can be
checked coefficient by coefficient against an independent computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def ell_fraction(p: int, i: int) -> Fraction:
    """Exact value of the i-th splitting coefficient."""
    total = Fraction(0)
    for j in range(i // p + 1):
        total += Fraction(1, p ** j * factorial(i - p * j) * factorial(j))
    return total


def p_adic_split(x: Fraction, p: int) -> tuple[int, int, int]:
    """Write x = p^(-e) * (num/den) with e >= 0 and p dividing neither num nor den.

    Returns (e, num, den); for x with nonnegative valuation e is 0.
    """
    num, den = x.numerator, x.denominator
    e = 0
    while den % p == 0:
        den //= p
        e += 1
    while e > 0 and num % p == 0:
        num //= p
        e -= 1
    return e, num, den


def scaled_residue(x: Fraction, p: int, N_work: int) -> tuple[int, int]:
    """(denom_exp, numer mod p^(N_work + denom_exp)) with x = p^(-denom_exp) * numer."""
    e, num, den = p_adic_split(x, p)
    modulus = p ** (N_work + e)
    return e, num * pow(den, -1, modulus) % modulus
