"""Frobenius images of basis monomials on the cone.

For each basis monomial (pi*w)^d x^mu we compute the truncation mod p^N_work
of alpha((pi*w)^d x^mu) = psi(F * (pi*w)^d x^mu), where F is the product of
splitting-series factors theta(a_nu w x^nu) over the support of f and psi
divides all exponents by p (dropping non-divisible terms) and applies the
inverse Frobenius to coefficients.  The auxiliary global factor pi^d used to
keep every coefficient in R is a formal tag carried by the caller; it cancels
at matrix assembly because both sides of the matrix carry the same grading.

expand_frobenius does this by "fewnomial" enumeration.  Write the multi-index
of F as k + p*e with k in {0..p-1}^s.  Terms survive psi exactly when
U*k = -(d, mu) mod p, where U has columns (1, nu) over the lifted support;
then U*k + (d, mu) = p*(bw, base_x).  For each solution k one loop over the
support points extends a list of partial terms by every choice of e_j, with
|e| < E, and cuts a choice once

    bw + |e| + e_j - delta - d(p, k_j + p*e_j) >= N_work,

delta being the ell-denominator exponent so far.  The left side bounds the
net p-power of every completion from below and grows with e_j, because
d(p, i) = 0 for i < p and d(p, i + p) <= d(p, i) + 1.
Each term contributes

    (-1)^(bw+|e|) * p^(bw+|e|) * prod_i ell_{k_i+p e_i}
        * sigma^{-1}(a^k) * a^e   on the monomial (bw+|e|, (k.nu+mu)/p + e.nu)

with bw = (|k|+d)/p; the p-power always clears the ell denominators (their
total exponent is at most bw + |e| for p >= 3), and the cleared coefficient
lies in R.  Only terms that are individually 0 mod p^N_work are dropped, so
the output is exactly the truncation of alpha.

The enumeration reads the denominator bounds d(p, i) from one table per call.
Each term, its scalar reduced mod p^N_work times its ring coefficient, is
added unreduced to one integer per monomial; every monomial is checked
against the cone once, when it first appears, and each sum becomes a ring
element once, by ring.normalize, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil
from operator import add
from typing import Dict, List, Sequence, Tuple

from .cone_algebra import ConeElement, ConeMonomial
from .errors import InternalPrecisionError, PrecisionOrLogicError
from .jacobian import LiftedInput
from .padic import RingContext
from .polytope import LatticePolytope
from .splitting import SplittingSeries, compute_splitting, d_bound


def solve_congruence(U: Sequence[Sequence[int]], target: Sequence[int],
                     p: int) -> List[Tuple[int, ...]]:
    """All e in {0..p-1}^s with U*e = target mod p, in lexicographic order of
    the free-coordinate assignment; empty if the system is inconsistent."""
    nrows = len(U)
    s = len(U[0])
    aug = [[U[i][j] % p for j in range(s)] + [target[i] % p] for i in range(nrows)]
    pivots: List[int] = []
    rank = 0
    for j in range(s):
        piv = next((i for i in range(rank, nrows) if aug[i][j] % p), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][j], -1, p)
        aug[rank] = [(c * inv) % p for c in aug[rank]]
        for i in range(nrows):
            if i != rank and aug[i][j]:
                c = aug[i][j]
                aug[i] = [(a - c * b) % p for a, b in zip(aug[i], aug[rank])]
        pivots.append(j)
        rank += 1
    for i in range(rank, nrows):
        if aug[i][s] % p:
            return []  # inconsistent
    free = [j for j in range(s) if j not in pivots]
    solutions: List[Tuple[int, ...]] = []
    for assign in product(range(p), repeat=len(free)):
        e = [0] * s
        for j, v in zip(free, assign):
            e[j] = v
        for r, j in enumerate(pivots):
            e[j] = (aug[r][s] - sum(aug[r][jf] * v
                                    for jf, v in zip(free, assign))) % p
        solutions.append(tuple(e))
    return solutions


def truncation_bound(p: int, n_eff: int, N_work: int) -> int:
    """Cutoff E on the total e-exponent: terms with |e| >= E vanish mod p^N_work."""
    beta = Fraction(p * p - p, p * p - 3 * p + 1)
    gamma = Fraction(n_eff + 1, p * p - p)
    return ceil(beta * (N_work + gamma))


def splitting_for(ring: RingContext, E: int) -> SplittingSeries:
    """Splitting coefficients are consumed at indices k + p*e < p*E."""
    return compute_splitting(ring.p, ring.N, ring.p * E)


def expand_frobenius(target: ConeMonomial, lifted: LiftedInput,
                     poly: LatticePolytope, series: SplittingSeries,
                     E: int) -> ConeElement:
    """Fewnomial-enumeration expansion of alpha((pi*w)^d x^mu) mod p^N_work,
    with E = truncation_bound(p, n_eff, N_work)."""
    ring = lifted.ring
    p, N_work, modulus, mul = ring.p, ring.N, ring.modulus, ring.mul
    d, mu = target
    nus, a_list = lifted.support, lifted.coeffs
    U = [[1] * len(nus)] + [[nu[i] for nu in nus] for i in range(lifted.n_eff)]
    dtab = [d_bound(p, i) for i in range(len(series))]
    p_pows = [p ** net for net in range(N_work)]

    shift = (d,) + mu
    neg_target = tuple(-t % p for t in shift)
    # Unreduced sum of each monomial's terms, (scalar mod p^N_work) * apow
    # (see padic.normalize); a monomial enters only after it has been
    # checked against the cone.
    raw: Dict[ConeMonomial, int] = {}
    for k in solve_congruence(U, neg_target, p):
        image = [sum(u * kj for u, kj in zip(row, k)) + t
                 for row, t in zip(U, shift)]
        if any(c % p for c in image):
            raise PrecisionOrLogicError(
                f"congruence solution {k} fails divisibility by p")
        bw, *base_x = (c // p for c in image)
        # sigma^{-1}(a^k) for Teichmueller coefficients is (a^k)^(q/p)
        ak = ring.one
        for aj, kj in zip(a_list, k):
            if kj:
                ak = mul(ak, ring.pow(aj, kj))

        # Partial terms (|e|, delta, numerator product, a^e, exponent) in
        # lexicographic order of e, cut as the module docstring says.
        terms = [(0, 0, 1, ring.pow(ak, ring.q // p), tuple(base_x))]
        for nu, aj, kj in zip(nus, a_list, k):
            extended = []
            for esum, delta, numer, apow, exps in terms:
                for ej in range(E - esum):
                    idx = kj + p * ej
                    if bw + esum + ej - delta - dtab[idx] >= N_work:
                        break
                    if ej:
                        apow = mul(apow, aj)
                        exps = tuple(map(add, exps, nu))
                    denom_exp, ell = series[idx]
                    extended.append((esum + ej, delta + denom_exp,
                                     numer * ell, apow, exps))
            terms = extended

        for esum, delta, numer, apow, exps in terms:
            net = bw + esum - delta
            if net < 0:
                raise InternalPrecisionError(
                    f"negative net p-power {net} at target {target}")
            if net >= N_work:
                continue
            mono = (bw + esum, exps)
            acc = raw.get(mono)
            if acc is None:
                if not poly.contains(exps, mono[0]):
                    raise PrecisionOrLogicError(
                        f"Frobenius term {mono} escapes the cone over the polytope")
                acc = 0
            scalar = p_pows[net] * numer
            if mono[0] % 2:
                scalar = -scalar
            raw[mono] = acc + scalar % modulus * apow

    return ConeElement(ring, {m: ring.normalize(acc) for m, acc in raw.items()})
