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
then U*k + (d, mu) = p*(bw, base_x).  Each term contributes

    (-1)^(bw+|e|) * p^(bw+|e|) * prod_i ell_{k_i+p e_i}
        * sigma^{-1}(a^k) * a^e   on the monomial (bw+|e|, base_x + e.nu)

with bw = (|k|+d)/p; the p-power always clears the ell denominators (their
total exponent is at most bw + |e| for p >= 3), and the cleared coefficient
lies in R.  Only terms that are individually 0 mod p^N_work are dropped, so
the output is exactly the truncation of alpha.

The solutions k fall into image classes, one per (bw, base_x); for each e
every k of a class lands on the same monomial with the same factor
(-1)^|e| a^e.  So the ring products are paid once per (class, e) pair, not
once per term.  For each k one loop over the support points extends a list
of partial terms (net, numerator product, packed e), with net = bw + |e| -
delta and delta the ell-denominator exponent so far, by every choice of
e_j, and cuts a choice once

    net + e_j - d(p, k_j + p*e_j) >= N_work.

The left side bounds the net p-power of every completion from below and
grows with e_j, because d(p, i) = 0 for i < p and d(p, i + p) <= d(p, i) + 1.
It also cuts every choice with |e| >= E: since bw >= |k|/p and d(p, i) <=
i(2p-1)/(p^2(p-1)), it is at least |e|/beta >= N_work + gamma, with beta and
gamma those of truncation_bound.  ell_{k_j+p*e_j} and its bound are read
from the column of the residue k_j: the coefficients at k_j, k_j + p, ...,
k_j + p*(E-1).  The last support point finishes the terms: each adds
(p^net * numerator mod p^N_work) * (-1)^bw sigma^{-1}(a^k) to its class's
sum for its e.  Each class sum is normalized once and multiplied once by
(-1)^|e| a^e, and the product is added unreduced to one integer per
monomial; every monomial is checked against the cone once, when it first
appears, and each monomial sum becomes a ring element once, by
ring.normalize, at the end.  Both kinds of sum stay within the headroom of
padic.normalize: a class sum has at most one term per solution k, so at
most p^(s - rank U) terms, and a monomial sum at most one product per
(class, e) pair; both counts are far below 2^64 - 1.

e is packed into one int, e_j in a slot of E.bit_length() bits, the last
support point in the lowest slot.  (|e|, (-1)^|e| a^e, e.nu) is kept per
distinct e in a table shared by the expansions of one lifted input; each
entry is built from e minus one in its lowest nonzero slot, with one mul.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import ceil
from operator import add, mul
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


# The expansions of one lifted input run one after another, so a few power
# tables cover the inputs in flight.
POWER_TABLE_SIZE = 4

# packed e -> (|e|, (-1)^|e| a^e, e.nu); see the module docstring.
PowerTable = Dict[int, Tuple[int, RingElement, Tuple[int, ...]]]


@lru_cache(maxsize=POWER_TABLE_SIZE)
def _power_table(ring: RingContext, coeffs: Tuple[RingElement, ...],
                 support: Tuple[Tuple[int, ...], ...], width: int
                 ) -> Tuple[PowerTable, List[Tuple[RingElement, Tuple[int, ...]]]]:
    """The power table, holding e = 0 until _power_entry fills it in, and the
    step (-a_j, nu_j) of each slot, lowest slot first.  Two threads may fill
    one table at once; an entry depends only on its key, so either write is
    right."""
    return ({0: (0, ring.one, (0,) * len(support[0]))},
            [(ring.neg(aj), nu) for aj, nu in zip(coeffs[::-1], support[::-1])])


def _power_entry(ring: RingContext, powers: PowerTable, steps,
                 packed: int, width: int):
    """powers[packed], built from e minus one in its lowest nonzero slot."""
    j = ((packed & -packed).bit_length() - 1) // width
    prev = packed - (1 << width * j)
    esum, apow, nu_sum = (powers.get(prev)
                          or _power_entry(ring, powers, steps, prev, width))
    neg_aj, nu = steps[j]
    entry = powers[packed] = (esum + 1, ring.mul(apow, neg_aj),
                              tuple(map(add, nu_sum, nu)))
    return entry


def expand_frobenius(target: ConeMonomial, lifted: LiftedInput,
                     poly: LatticePolytope, series: SplittingSeries,
                     E: int) -> ConeElement:
    """Fewnomial-enumeration expansion of alpha((pi*w)^d x^mu) mod p^N_work,
    with E = truncation_bound(p, n_eff, N_work)."""
    ring = lifted.ring
    p, N_work, modulus, normalize = ring.p, ring.N, ring.modulus, ring.normalize
    d, mu = target
    nus, a_list = lifted.support, lifted.coeffs
    U = [[1] * len(nus)] + [[nu[i] for nu in nus] for i in range(lifted.n_eff)]
    shift = (d,) + mu
    neg_target = tuple(-t % p for t in shift)

    classes: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, ...]]] = {}
    for k in solve_congruence(U, neg_target, p):
        image = [sum(map(mul, row, k)) + t for row, t in zip(U, shift)]
        if any(c % p for c in image):
            raise PrecisionOrLogicError(
                f"congruence solution {k} fails divisibility by p")
        bw, *base_x = (c // p for c in image)
        classes.setdefault((bw, tuple(base_x)), []).append(k)

    # The column of residue c: (e_j - d(p, i), e_j - denom_exp, numer, e_j)
    # of ell_i, i = c + p*e_j, for e_j < E (series holds p*E coefficients).
    columns = {c: [(ej - d_bound(p, c + p * ej), ej - denom_exp, ell, ej)
                   for ej, (denom_exp, ell) in enumerate(series[c::p])]
               for c in {kj for ks in classes.values() for k in ks for kj in k}}
    width = E.bit_length()
    p_pows = [p ** net for net in range(N_work)]
    powers, steps = _power_table(ring, a_list, nus, width)
    # sigma^{-1}(a_j) for Teichmueller coefficients is a_j^(q/p)
    sigma_a = [ring.pow(aj, ring.q // p) for aj in a_list]
    # Unreduced sum of each monomial's (class, e) products (see
    # padic.normalize); a monomial enters only after it has been checked
    # against the cone.
    raw: Dict[ConeMonomial, int] = {}
    for (bw, base_x), ks in classes.items():
        # packed e -> unreduced sum over the class of
        # (p^net * numer mod p^N_work) * (-1)^bw sigma^{-1}(a^k), with
        # sigma^{-1}(a^k) the product of the sigma^{-1}(a_j)^(k_j).
        sums: Dict[int, int] = {}
        for k in ks:
            sak = ring.neg(ring.one) if bw % 2 else ring.one
            for sj, kj in zip(sigma_a, k):
                if kj:
                    sak = ring.mul(sak, ring.pow(sj, kj))

            # Partial terms (net, numerator product, packed e), cut as the
            # module docstring says; the last support point finishes them.
            terms = [(bw, 1, 0)]
            for kj in k[:-1]:
                col = columns[kj]
                extended = []
                for net, numer, packed in terms:
                    room = N_work - net
                    packed <<= width
                    for gain, step, ell, ej in col:
                        if gain >= room:
                            break
                        extended.append((net + step, numer * ell, packed + ej))
                terms = extended
            col = columns[k[-1]]
            for net, numer, packed in terms:
                room = N_work - net
                packed <<= width
                for gain, step, ell, ej in col:
                    if gain >= room:
                        break
                    final = net + step
                    if final < 0:
                        raise InternalPrecisionError(
                            f"negative net p-power {final} at target {target}")
                    if final < N_work:
                        key = packed + ej
                        sums[key] = (sums.get(key, 0) + p_pows[final] * numer
                                     * ell % modulus * sak)

        for packed, acc in sums.items():
            esum, apow, nu_sum = (powers.get(packed)
                                  or _power_entry(ring, powers, steps, packed, width))
            mono = (bw + esum, tuple(map(add, base_x, nu_sum)))
            prev = raw.get(mono)
            if prev is None:
                if not poly.contains(mono[1], mono[0]):
                    raise PrecisionOrLogicError(
                        f"Frobenius term {mono} escapes the cone over the polytope")
                prev = 0
            raw[mono] = prev + normalize(acc) * apow

    return ConeElement(ring, {m: normalize(acc) for m, acc in raw.items()})
