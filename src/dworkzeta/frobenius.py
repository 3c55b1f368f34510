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
U*k = -(d, mu) mod p, where U has columns (1, nu) over the lifted support.
For each solution k the e-part is enumerated by a recursive walk over the
support points, one e_j at a time, with |e| < E and exact pruning on the
guaranteed p-adic valuation.
Each term contributes

    (-1)^(bw+|e|) * p^(bw+|e|) * prod_i ell_{k_i+p e_i}
        * sigma^{-1}(a^k) * a^e   on the monomial (bw+|e|, (k.nu+mu)/p + e.nu)

with bw = (|k|+d)/p; the p-power always clears the ell denominators (their
total exponent is at most bw + |e| for p >= 3), and the cleared coefficient
lies in R.  Only terms that are individually 0 mod p^N_work are dropped, so
the output is exactly the truncation of alpha.

The enumeration reads the denominator bounds d(p, i) from one table per call.
Each term is added, unreduced, to one list of integer coordinates per
monomial; every monomial is checked against the cone once, when it first
appears, and the lists are reduced mod p^N_work once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from operator import add
from typing import Dict, List, Sequence, Tuple

from .cone_algebra import ConeElement, ConeMonomial
from .errors import InternalPrecisionError, PrecisionOrLogicError
from .jacobian import LiftedInput
from .padic import RingContext, RingElement
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
    # Enumerate free assignments lexicographically with an odometer.
    assign = [0] * len(free)
    while True:
        e = [0] * s
        for idx, j in enumerate(free):
            e[j] = assign[idx]
        for r, j in enumerate(pivots):
            val = aug[r][s]
            for idx, jf in enumerate(free):
                val -= aug[r][jf] * assign[idx]
            e[j] = val % p
        solutions.append(tuple(e))
        for idx in range(len(free) - 1, -1, -1):
            assign[idx] += 1
            if assign[idx] < p:
                break
            assign[idx] = 0
        else:
            break
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
    p, N_work = ring.p, ring.N
    d, mu = target
    nus, a_list = lifted.support, lifted.coeffs
    s = len(nus)
    U = [[1] * s] + [[nu[i] for nu in nus] for i in range(lifted.n_eff)]
    dtab = [d_bound(p, i) for i in range(len(series))]
    p_pows = [p ** net for net in range(N_work)]

    neg_target = tuple((-t) % p for t in (d,) + mu)
    # Unreduced coordinates of each monomial's coefficient; a monomial enters
    # only after it has been checked against the cone.
    raw: Dict[ConeMonomial, List[int]] = {}
    for k in solve_congruence(U, neg_target, p):
        total_k = sum(k)
        bw, rem = divmod(total_k + d, p)
        if rem:
            raise PrecisionOrLogicError("congruence solution fails w-divisibility")
        base_x = []
        for i in range(lifted.n_eff):
            num = sum(k[j] * nus[j][i] for j in range(s)) + mu[i]
            q_, r_ = divmod(num, p)
            if r_:
                raise PrecisionOrLogicError("congruence solution fails x-divisibility")
            base_x.append(q_)
        # sigma^{-1}(a^k) for Teichmueller coefficients is (a^k)^(q/p)
        ak = ring.one
        for j in range(s):
            if k[j]:
                ak = ring.mul(ak, ring.pow(a_list[j], k[j]))
        prefix = ring.pow(ak, ring.q // p)

        # Per-position tail bounds on future ell-denominator exponents at e=0.
        tail = [0] * (s + 1)
        for j in range(s - 1, -1, -1):
            tail[j] = tail[j + 1] + dtab[k[j]]

        def emit(esum: int, delta: int, numer: int, apow: RingElement,
                 exps: Tuple[int, ...]) -> None:
            net = bw + esum - delta
            if net < 0:
                raise InternalPrecisionError(
                    f"negative net p-power {net} at target {target}")
            if net >= N_work:
                return
            mono = (bw + esum, exps)
            acc = raw.get(mono)
            if acc is None:
                if not poly.contains(exps, mono[0]):
                    raise PrecisionOrLogicError(
                        f"Frobenius term {mono} escapes the cone over the polytope")
                acc = raw[mono] = [0] * len(apow)
            scalar = p_pows[net] * numer
            if (bw + esum) % 2:
                scalar = -scalar
            for t, c in enumerate(apow):
                acc[t] += scalar * c

        def walk(j: int, esum: int, delta: int, numer: int,
                 apow: RingElement, exps: Tuple[int, ...]) -> None:
            if j == s:
                emit(esum, delta, numer, apow, exps)
                return
            nu, aj, kj, rest = nus[j], a_list[j], k[j], tail[j + 1]
            for ej in range(E - esum):
                # Sound monotone cutoff: every completion of this state has
                # guaranteed valuation >= the bound below.
                idx = kj + p * ej
                if bw + esum + ej - delta - dtab[idx] - rest >= N_work:
                    break
                if ej:
                    apow = ring.mul(apow, aj)
                    exps = tuple(map(add, exps, nu))
                ell = series[idx]
                walk(j + 1, esum + ej, delta + ell.denom_exp,
                     numer * ell.numer, apow, exps)

        walk(0, 0, 0, 1, prefix, tuple(base_x))

    modulus = ring.modulus
    return ConeElement(ring, {m: tuple(c % modulus for c in acc)
                              for m, acc in raw.items()})
