"""Per-term fewnomial reference for the Frobenius expansion (test-side only).

expand_frobenius_per_term is the fewnomial enumeration of
dworkzeta.frobenius without the image classes: for every congruence
solution k it extends a list of partial terms (|e|, delta, numerator
product, sigma^{-1}(a^k) a^e, exponent) over the support points, with the
same cutoff, and adds every finished term, its scalar reduced mod p^N_work
times its ring coefficient, to its monomial's unreduced sum.  So it pays one
ring product per partial term where the production expansion pays one per
(class, e) pair.  Unlike the dense product in dense_frobenius.py it is fast
enough to compare against at p in the hundreds.  Its output is keyed by
monomial codes, as the production expansion's is.
"""

from __future__ import annotations

from operator import add
from typing import Dict

from dworkzeta.cone_algebra import ConeElement, ConeMonomial, encode
from dworkzeta.errors import InternalPrecisionError, PrecisionOrLogicError
from dworkzeta.frobenius import PowerTable, SeriesTables, solve_congruence
from dworkzeta.jacobian import LiftedInput
from dworkzeta.polytope import LatticePolytope
from dworkzeta.splitting import compute_splitting, d_bound


def expand_frobenius_per_term(target: ConeMonomial, lifted: LiftedInput,
                              poly: LatticePolytope, tables: SeriesTables,
                              powers: PowerTable) -> ConeElement:
    """alpha((pi*w)^d x^mu) mod p^N_work, one ring product per partial term.
    It reads tables.E, computes the series ell_i, i < p*E, itself and
    ignores powers."""
    ring = lifted.ring
    p, N_work, modulus, mul = ring.p, ring.N, ring.modulus, ring.mul
    E = tables.E
    series = compute_splitting(p, N_work, p * E)
    d, mu = target
    nus, a_list = lifted.support, lifted.coeffs
    U = [[1] * len(nus)] + [[nu[i] for nu in nus] for i in range(lifted.n_eff)]
    dtab = [d_bound(p, i) for i in range(len(series))]
    p_pows = [p ** net for net in range(N_work)]

    shift = (d,) + mu
    neg_target = tuple(-t % p for t in shift)
    raw: Dict[ConeMonomial, int] = {}
    for k in solve_congruence(U, neg_target, p):
        image = [sum(u * kj for u, kj in zip(row, k)) + t
                 for row, t in zip(U, shift)]
        if any(c % p for c in image):
            raise PrecisionOrLogicError(
                f"congruence solution {k} fails divisibility by p")
        bw, *base_x = (c // p for c in image)
        ak = ring.one
        for aj, kj in zip(a_list, k):
            if kj:
                ak = mul(ak, ring.pow(aj, kj))

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

    return ConeElement(ring, {encode(m): ring.normalize(acc)
                              for m, acc in raw.items()})
