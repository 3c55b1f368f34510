"""Dense-product reference for the Frobenius expansion (test-side only).

expand_frobenius_dense multiplies the truncated factors of F directly,
tracking per-term denominator scale and a lower bound on the e-budget, then
multiplies by the target monomial and applies psi.  It drops only terms that
are individually 0 mod p^N_work, exactly like the fewnomial enumeration in
dworkzeta.frobenius, so the two outputs agree bit-for-bit as ConeElements,
keyed by monomial codes.
The tests compare against it directly and, through use_in_pipeline, across
the whole pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from cone_helpers import add_term, coded

from dworkzeta.cone_algebra import ConeElement, ConeMonomial
from dworkzeta.errors import InternalPrecisionError, PrecisionOrLogicError
from dworkzeta import pipeline
from dworkzeta.frobenius import PowerTable, SeriesTables
from dworkzeta.jacobian import LiftedInput
from dworkzeta.padic import RingElement
from dworkzeta.polytope import LatticePolytope
from dworkzeta.splitting import compute_splitting


def expand_frobenius_dense(target: ConeMonomial, lifted: LiftedInput,
                           poly: LatticePolytope, tables: SeriesTables,
                           powers: PowerTable) -> ConeElement:
    """Dense-product expansion: multiply out the factors of F, then apply psi.

    Running-product coefficients are triples (delta, u, be): the true value is
    p^(-delta) * u with u in R, and be lower-bounds the total e-budget
    sum_j floor(i_j / p) over every index decomposition merged into the term
    (terms with be >= E vanish mod p^N_work and are dropped).  It reads
    tables.E, computes the series ell_i, i < p*E, itself and ignores powers,
    which it takes so that it can stand in for expand_frobenius.
    """
    ring = lifted.ring
    p, N_work, E = ring.p, ring.N, tables.E
    series = compute_splitting(p, N_work, p * E)
    d, mu = target

    def prunable(D: int, delta: int, be: int) -> bool:
        # Net p-power after psi is at least D/p - delta and only grows under
        # further factor multiplication.
        return be >= E or D - p * delta >= p * N_work

    # product[(D, m)] = (delta, u, be)
    product: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, RingElement, int]] = {
        (0, (0,) * lifted.n_eff): (0, ring.one, 0)}
    for nu, a in zip(lifted.support, lifted.coeffs):
        factor = []
        apow = ring.one
        for i in range(p * E):
            denom_exp, numer = series[i]
            u = ring.smul(numer, apow)
            if not ring.is_zero(u) or i == 0:
                factor.append((i, tuple(c * i for c in nu), denom_exp,
                               u, i // p))
            apow = ring.mul(apow, a)
        new: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, RingElement, int]] = {}
        for (D, m), (delta, u, be) in product.items():
            for i, inu, di, ui, bi in factor:
                D2 = D + i
                delta2 = delta + di
                be2 = be + bi
                if prunable(D2, delta2, be2):
                    continue
                key = (D2, tuple(x + y for x, y in zip(m, inu)))
                uv = ring.mul(u, ui)
                prev = new.get(key)
                if prev is None:
                    new[key] = (delta2, uv, be2)
                else:
                    pd, pu, pb = prev
                    if pd >= delta2:
                        merged = (pd, ring.add(pu, ring.smul(p ** (pd - delta2), uv)),
                                  min(pb, be2))
                    else:
                        merged = (delta2, ring.add(uv, ring.smul(p ** (delta2 - pd), pu)),
                                  min(pb, be2))
                    new[key] = merged
        product = new

    out = ConeElement(ring)
    for (D, m), (delta, u, be) in product.items():
        Dt = D + d
        if Dt % p:
            continue
        mt = tuple(x + y for x, y in zip(m, mu))
        if any(c % p for c in mt):
            continue
        t = Dt // p
        if t - delta >= N_work:
            continue
        if t - delta < 0:
            raise InternalPrecisionError(
                f"negative net p-power {t - delta} in dense expansion")
        mono = (t, tuple(c // p for c in mt))
        if not poly.contains(mono[1], mono[0]):
            raise PrecisionOrLogicError(
                f"dense Frobenius term {mono} escapes the cone over the polytope")
        sign = -1 if t % 2 else 1
        coeff = ring.smul(sign * p ** (t - delta), ring.sigma_inverse(u))
        add_term(out, mono, coeff)
    return coded(out)


def use_in_pipeline(monkeypatch) -> List[ConeMonomial]:
    """Make the pipeline expand every column with the dense reference.

    Returns the list of targets the reference expands, so that a test can
    check that the substitution took effect."""
    targets: List[ConeMonomial] = []

    def dense(target, lifted, poly, tables, powers):
        targets.append(target)
        return expand_frobenius_dense(target, lifted, poly, tables, powers)

    monkeypatch.setattr(pipeline, "expand_frobenius", dense)
    return targets
