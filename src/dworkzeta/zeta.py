"""Matrix assembly, characteristic polynomial, and zeta-function assembly.

The columns of the Frobenius matrix A are the reduced images of the basis
monomials.  The q-power Frobenius acts through the a-fold twisted product
A_a = A * A^(sigma^-1) * ... * A^(sigma^-(a-1)).  Its characteristic
polynomial has Z_p coefficients; lifting them centered modulo the working
power of p and filtering with the Weil-type bound |c_i| <= C(v,i) q^(i*w/2)
recovers the exact integer polynomial, from which the zeta function follows
by mode-specific bookkeeping over exact integer polynomial arithmetic:

* toric:      Z(V,qT) = det(1-T A_a)^((-1)^n) * Z(G_m^n, T); the unit block
              of A contributes an exact factor (1-T) that cancels the i = 0
              torus factor after the substitution T -> T/q, leaving
              Z(V,T) = det(1-T Q_a)^((-1)^n) * prod_{i=1}^{n}
                       (1-q^(i-1) T)^(C(n,i) (-1)^(i+n+1))
              with Q = p^{-1} A_0 by exact entrywise division, so that
              Q_a = q^{-1} (A_0)_a.
* affine:     Z(V,qT) = L / (1 - q^n T) with L = det(1-T A_a)^((-1)^n), so
              Z(V,T) = P^((-1)^n) / (1 - q^(n-1) T), P(T) = det(1-T A_a)(T/q).
* projective: det(1-T A_a) = P(qT) and
              Z = P^((-1)^(n-1)) / prod_{i=0}^{n-2} (1-q^i T).

All T -> T/q substitutions are exact integer divisions of coefficients
(checked).  Point counts come from the integer log-derivative series of the
assembled rational function and must be nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import List, Tuple

from .errors import (
    ConsistencyFailure,
    InsufficientPrecision,
    PrecisionOrLogicError,
)
from .padic import RingContext, RingElement

Matrix = List[List[RingElement]]

POINT_COUNT_DEPTH = 4  # ZetaFunction.point_counts holds N_r for r = 1..4


def precision_bound(v: int, q: int, weight: int, p: int) -> int:
    """Smallest N with p^N >= 2 C(v,m) q^(weight*m/2) for every m <= v.

    Comparisons involving q^(m/2) are made exactly by squaring.
    """
    if v < 0:
        raise ValueError("negative basis cardinality")
    need = max(4 * comb(v, m) ** 2 * q ** (weight * m) for m in range(v + 1))
    N = 1
    while (p ** N) ** 2 < need:
        N += 1
    return N


def sigma_inverse_matrix(ring: RingContext, A: Matrix) -> Matrix:
    return [[ring.sigma_inverse(e) for e in row] for row in A]


def matrix_mul(ring: RingContext, A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            e = A[i][l]
            if ring.is_zero(e):
                continue
            for j in range(m):
                out[i][j] = ring.add(out[i][j], ring.mul(e, B[l][j]))
    return out


def twisted_product(ring: RingContext, A: Matrix, a: int) -> Matrix:
    """A_a = A * A^(sigma^-1) * ... * A^(sigma^-(a-1))."""
    result = A
    twisted = A
    for _ in range(1, a):
        twisted = sigma_inverse_matrix(ring, twisted)
        result = matrix_mul(ring, result, twisted)
    return result


def charpoly_det_one_minus_t(ring: RingContext, M: Matrix) -> List[RingElement]:
    """Coefficients (ascending in T) of det(1 - T*M), by a division-free
    principal-minor recursion (R has zero divisors, so no elimination)."""
    v = len(M)
    if v == 0:
        return [ring.one]
    # C holds the descending coefficients of det(lambda*I - M_k) for the
    # leading principal k x k block.
    C = [ring.one, ring.neg(M[0][0])]
    for k in range(2, v + 1):
        a = M[k - 1][k - 1]
        row = M[k - 1][:k - 1]
        col = [M[i][k - 1] for i in range(k - 1)]
        sub = [r[:k - 1] for r in M[:k - 1]]
        t = [ring.one, ring.neg(a)]
        cur = col
        for _ in range(2, k + 1):
            t.append(ring.neg(_dot_row(ring, row, cur)))
            cur = [_dot_row(ring, sub[i], cur) for i in range(k - 1)]
        C = [_convolve_at(ring, t, C, i) for i in range(k + 1)]
    # C[k] is the coefficient of lambda^(v-k) in det(lambda I - M), i.e.
    # (-1)^k e_k(M), which is exactly the T^k coefficient of det(1 - T M).
    return list(C)


def _dot_row(ring: RingContext, row: List[RingElement],
             vec: List[RingElement]) -> RingElement:
    acc = ring.zero
    for x, y in zip(row, vec):
        acc = ring.add(acc, ring.mul(x, y))
    return acc


def _convolve_at(ring: RingContext, t: List[RingElement],
                 C: List[RingElement], i: int) -> RingElement:
    acc = ring.zero
    for j in range(min(i, len(t) - 1) + 1):
        if i - j < len(C):
            acc = ring.add(acc, ring.mul(t[j], C[i - j]))
    return acc


@dataclass
class CharpolyResult:
    """det(1 - T A_a) data: ring coefficients plus the usable modulus."""

    coefficients: List[RingElement]  # ascending in T
    modulus: int                     # coefficients are exact modulo this


def assemble_and_charpoly(ring: RingContext, columns: List[List[RingElement]],
                          mode: str, a: int) -> Tuple[Matrix, CharpolyResult]:
    """Assemble A from the reduced columns and compute the relevant
    characteristic polynomial.

    In toric mode the first basis monomial is 1 and A has the block form
    [[1, 0], [*, A_0]] with A_0 entrywise divisible by p; the (1-T) factor is
    split off and the remaining factor is det(1 - T q^{-1}(A_0)_a) = det(1 - T
    Q_a) with Q = p^{-1} A_0.  The exact division leaves Q known modulo
    p^(N_work - 1), and so are Q_a and every coefficient of its charpoly.
    """
    v = len(columns)
    A = [[columns[j][i] for j in range(v)] for i in range(v)]
    p = ring.p
    if mode == "toric":
        if v < 1 or A[0][0] != ring.one or any(
                not ring.is_zero(A[0][j]) for j in range(1, v)):
            raise PrecisionOrLogicError(
                "Frobenius matrix lacks the exact unit row on the monomial 1")
        try:
            Q = [[ring.divide_exact_by_p(e) for e in row[1:]] for row in A[1:]]
        except ZeroDivisionError:
            raise PrecisionOrLogicError(
                "non-unit block entry not divisible by p") from None
        coeffs = charpoly_det_one_minus_t(ring, twisted_product(ring, Q, a))
        return A, CharpolyResult(coefficients=coeffs,
                                 modulus=p ** (ring.N - 1))
    Aa = twisted_product(ring, A, a)
    coeffs = charpoly_det_one_minus_t(ring, Aa)
    return A, CharpolyResult(coefficients=coeffs, modulus=p ** ring.N)


def lift_charpoly(ring: RingContext, result: CharpolyResult, q: int,
                  weight: int) -> List[int]:
    """Centered integer lift of the charpoly, Weil-filtered.

    Coefficients must be scalars (fixed by sigma); each is lifted to the
    residue of smallest absolute value and checked against
    |c_i| <= C(v,i) q^(i*weight/2) (squared comparison, exact).  A top
    coefficient that lifts to 0 also means the precision was too low.
    """
    modulus = result.modulus
    v = len(result.coefficients) - 1
    out = []
    for i, c in enumerate(result.coefficients):
        for comp in c[1:]:
            if comp % modulus:
                raise PrecisionOrLogicError(
                    f"charpoly coefficient {i} is not a scalar: {c}")
        r = c[0] % modulus
        centered = r if 2 * r <= modulus else r - modulus
        if centered * centered > comb(v, i) ** 2 * q ** (weight * i):
            raise InsufficientPrecision(
                f"lifted coefficient {centered} of T^{i} violates the "
                f"weight-{weight} bound; rerun with higher precision")
        out.append(centered)
    if out[-1] == 0:
        # The top coefficient is +-det(Frobenius), never 0: a zero here means
        # the precision could not see it.
        raise InsufficientPrecision(
            f"lifted coefficient of T^{v} is 0, but det(Frobenius) is not; "
            "rerun with higher precision")
    return out


# --- exact integer polynomial helpers (ascending coefficient lists) ---

def poly_mul(f: List[int], g: List[int]) -> List[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def substitute_t_over_q(f: List[int], q: int) -> List[int]:
    """f(T/q) as an integer polynomial; coefficient i must be divisible by q^i."""
    out = []
    for i, c in enumerate(f):
        d, r = divmod(c, q ** i)
        if r:
            raise InsufficientPrecision(
                f"coefficient {c} of T^{i} is not divisible by q^{i}; the "
                "lift is inconsistent with the expected q-divisibility")
        out.append(d)
    return out


def log_derivative_series(f: List[int], r_max: int) -> List[int]:
    """Coefficients s_1..s_r of T f'(T)/f(T), f(0) = 1 (exact integers), by
    Newton's recurrence s_r = r c_r - sum_{i=1}^{r-1} c_i s_{r-i}, which is
    the T^r coefficient of f * (T f'/f) = T f'."""
    if not f or f[0] != 1:
        raise PrecisionOrLogicError("series must have constant term 1")
    c = list(f) + [0] * (r_max + 1 - len(f))
    s = [0]
    for r in range(1, r_max + 1):
        s.append(r * c[r] - sum(c[i] * s[r - i] for i in range(1, r)))
    return s[1:]


@dataclass
class ZetaFunction:
    """Z as an integer rational function in 1 + T Z[[T]], with point counts."""

    mode: str
    p: int
    a: int
    q: int
    n: int
    v: int
    N_used: int
    numerator: List[int]
    denominator: List[int]
    point_counts: List[int] = field(default_factory=list)

    def counts(self, r_max: int) -> List[int]:
        s_num = log_derivative_series(self.numerator, r_max)
        s_den = log_derivative_series(self.denominator, r_max)
        counts = [sn - sd for sn, sd in zip(s_num, s_den)]
        for r, c in enumerate(counts, start=1):
            if c < 0:
                raise ConsistencyFailure(
                    f"negative point count {c} over the degree-{r} extension")
        return counts


def assemble_zeta(lifted: List[int], mode: str, n_vars: int, q: int, v: int,
                  p: int, a: int, N_used: int) -> ZetaFunction:
    """Build Z(f, T) from the lifted integer charpoly, per mode; in toric mode
    the charpoly is the one with the (1-T) factor split off."""
    num: List[int] = [1]
    den: List[int] = [1]

    def apply(f: List[int], exponent: int) -> None:
        nonlocal num, den
        for _ in range(abs(exponent)):
            if exponent > 0:
                num = poly_mul(num, f)
            else:
                den = poly_mul(den, f)

    if mode == "toric":
        n = n_vars
        P = lifted
        apply(P, 1 if n % 2 == 0 else -1)
        for i in range(1, n + 1):
            e = comb(n, i) * (-1) ** (i + n + 1)
            apply([1, -(q ** (i - 1))], e)
    elif mode == "affine":
        n = n_vars
        P = substitute_t_over_q(lifted, q)
        apply(P, 1 if n % 2 == 0 else -1)
        apply([1, -(q ** (n - 1))], -1)
    elif mode == "projective":
        n = n_vars
        P = substitute_t_over_q(lifted, q)
        apply(P, 1 if (n - 1) % 2 == 0 else -1)
        for i in range(0, n - 1):
            apply([1, -(q ** i)], -1)
    else:
        raise PrecisionOrLogicError(f"unknown mode {mode!r}")

    zf = ZetaFunction(mode=mode, p=p, a=a, q=q, n=n_vars, v=v, N_used=N_used,
                      numerator=num, denominator=den)
    zf.point_counts = zf.counts(POINT_COUNT_DEPTH)
    return zf
