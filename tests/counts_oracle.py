"""Rational reconstruction of a zeta function from raw point counts
(test-side only).

zeta_from_counts fits Num/Den of bounded degrees to Z(T) = exp(sum N_r T^r / r)
by exact linear algebra over Q.  It uses nothing of the cohomological
pipeline, so it checks zeta functions the tests know from theory.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from dworkzeta.errors import ConsistencyFailure


class UnderDetermined(Exception):
    """Not enough point counts to pin down the rational function."""


def series_from_counts(counts: Sequence[int], R: int) -> List[Fraction]:
    """Z(T) = exp(sum N_r T^r / r) as exact series coefficients z_0..z_R."""
    z = [Fraction(1)] + [Fraction(0)] * R
    for k in range(1, R + 1):
        acc = Fraction(0)
        for r in range(1, k + 1):
            acc += counts[r - 1] * z[k - r]
        z[k] = acc / k
    return z


def zeta_from_counts(counts: Sequence[int], num_deg: int, den_deg: int
                     ) -> Tuple[List[int], List[int]]:
    """The unique Num/Den (constant terms 1, bounded degrees) whose
    log-derivative series reproduces the counts.

    Raises UnderDetermined when the counts do not pin down a unique rational
    function, ConsistencyFailure when no rational function of the given
    degrees fits.
    """
    R = len(counts)
    unknowns = num_deg + den_deg
    if R < unknowns:
        raise UnderDetermined(
            f"{R} counts cannot determine {unknowns} coefficients")
    z = series_from_counts(counts, R)
    # Equations: coefficient of T^k in Den*Z - Num vanishes, k = 1..R.
    rows = []
    for k in range(1, R + 1):
        row = [Fraction(0)] * unknowns
        if k <= num_deg:
            row[k - 1] = Fraction(-1)
        for j in range(1, min(k, den_deg) + 1):
            row[num_deg + j - 1] = z[k - j]
        rows.append((row, -z[k]))
    sol = solve_unique(rows, unknowns)
    num = [1] + [int(x) for x in sol[:num_deg]]
    den = [1] + [int(x) for x in sol[num_deg:]]
    return num, den


def solve_unique(rows: List[Tuple[List[Fraction], Fraction]],
                 unknowns: int) -> List[Fraction]:
    """Gaussian elimination over Q; unique solution or raise."""
    A = [list(r) + [b] for r, b in rows]
    nrows = len(A)
    pivots = []
    ri = 0
    for col in range(unknowns):
        piv = next((r for r in range(ri, nrows) if A[r][col] != 0), None)
        if piv is None:
            continue
        A[ri], A[piv] = A[piv], A[ri]
        pr = A[ri]
        inv = 1 / pr[col]
        A[ri] = [x * inv for x in pr]
        for r in range(nrows):
            if r != ri and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[ri])]
        pivots.append(col)
        ri += 1
    for r in range(ri, nrows):
        if A[r][unknowns] != 0:
            raise ConsistencyFailure(
                "no rational function of the given degrees matches the counts")
    if len(pivots) < unknowns:
        raise UnderDetermined(
            "multiple rational functions of the given degrees match the counts")
    sol = [Fraction(0)] * unknowns
    for r, col in enumerate(pivots):
        sol[col] = A[r][unknowns]
    for x in sol:
        if x.denominator != 1:
            raise ConsistencyFailure(
                "the fitted rational function has non-integer coefficients")
    return sol
