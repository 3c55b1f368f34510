"""Reduction of the Frobenius images to coordinates on the quotient basis V.

The relations used are the vanishing, in the quotient, of the operators
D_i = x_i d/dx_i + (pi*w) f_i (with x_0 = w and f_0 = f): for any cofactor
monomial m the product m * (pi*w) f_i is congruent to -e_i(m) m, with e_i
the exponent of variable i (LiftedInput.var_exponent), one weight degree
lower.  Divisions never occur: apply_column applies the reduction operator
that build_jacobian compiled for each echelon column (jacobian module
docstring).

The sweep.  Reduction is R-linear and all the images walk the same cone
monomials, so they are reduced together.  The terms are held per weight
degree: layer d maps a monomial to its coefficient vector, one entry per
image (a column of the result).  The sweep runs d from the top degree
present down to 0, and each step pops monomials of layer d and writes only
to layer d-1.  So every layer is visited once, and the sweep ends after at
most as many steps as there are monomials in the layers: no budget needs
checking.

One rule serves every degree, 0 included.  The monomials of layer d are
visited in descending term order, over a snapshot of the layer.  The
current monomial lm is factored as m * m0 with m0 a column of degree
min(d, top): the divisor policy picks m0 above the top degree, and at or
below it m0 is lm itself (m = 1).  The slice of layer d lying in
m * (the columns up to m0) goes through the columns' operators with
cofactor m: the term order is translation-invariant within a degree, so a
column after m0 gives a monomial above lm, popped already, whichever
divisor the policy picks.  At or below the top degree the first slice
clears every column of the layer; a nonzero monomial left over breaks the
mode restriction.  At degree 0 every column is a basis monomial and its
own residual, so layer 0 lands on V and nothing is written below it.

Lazy sums.  A coordinate of a layer, and of the result, is an unreduced
int: the sum of the terms coefficient * x pushed into it, each a product of
two elements.  It is normalized once, when its layer is popped (the result
at the end).  A coordinate receives at most one term per pushed vector and
image entry, far fewer than the 2^HEADROOM_BITS - 1 terms that
padic.normalize accepts.  An image coefficient alpha - sum_g beta_g e_g(m)
is a sum of elements times the integers -e_g(m) mod p^N
(cofactor_exponents), normalized once per application.  Every vector update
skips zero coordinates, so images that share few monomials cost little more
than reducing each alone.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add, ge, mul, sub
from typing import Dict, List, Optional, Sequence

from .cone_algebra import ConeElement, ConeMonomial
from .errors import DecompositionError, PrecisionOrLogicError
from .jacobian import EchelonData, MonomialBasis, Operator
from .padic import RingContext, RingElement

# A coefficient vector, one entry per image; in a layer the entries are
# unreduced sums (see the module docstring).
Vector = List[int]


def _default_divisor_policy(candidates: List[ConeMonomial],
                            lm: ConeMonomial, ech: EchelonData
                            ) -> Optional[ConeMonomial]:
    """First monomial m0 of top degree with lm - m0 still in the cone.

    candidates are the top-degree columns.  lm - m0 has degree k = d - top
    >= 1, and lies in the cone when n.(mu - mu0) <= k*b for every facet
    (n, b) of the polytope, that is when each height n.mu0
    (ech.top_heights) reaches n.mu - k*b."""
    d, mu = lm
    k = d - ech.top
    floors = [sum(map(mul, n, mu)) - k * b for n, b in ech.poly.facets]
    for m0, heights in zip(candidates, ech.top_heights):
        if all(map(ge, heights, floors)):
            return m0
    return None


def cofactor_exponents(ech: EchelonData, m: ConeMonomial) -> List[int]:
    """-e_g(m) mod p^N for g in LiftedInput.generator_indices."""
    lifted = ech.lifted
    modulus = lifted.ring.modulus
    return [-lifted.var_exponent(g, m) % modulus
            for g in lifted.generator_indices]


def apply_column(ring: RingContext, op: Operator, m: ConeMonomial,
                 e: Sequence[int], vec: Vector,
                 below: Dict[ConeMonomial, Vector], out: List[Vector]) -> None:
    """Add the class of m * (the column of op) * vec as raw sums: its residual
    to out (one list per image, indexed by V) and its image to below.

    vec holds elements; m is the cofactor and e its cofactor_exponents
    (unused, and empty, when m has degree 0, that is m = 1).
    """
    residual, image = op
    for idx, c in residual:
        for x, col in zip(vec, out):
            if x:
                col[idx] += c * x
    d, mu = m
    normalize = ring.normalize
    for mr, alpha, beta in image:
        if d:
            coef = normalize(alpha + sum(map(mul, beta, e)))
            mono = (d + mr[0], tuple(map(add, mu, mr[1])))
        else:
            coef, mono = alpha, mr
        if not coef:
            continue
        dst = below.get(mono)
        if dst is None:
            below[mono] = [coef * x for x in vec]
            continue
        for i, x in enumerate(vec):
            if x:
                dst[i] += coef * x


def reduce(images: Sequence[ConeElement], ech: EchelonData,
           basis: MonomialBasis) -> List[List[RingElement]]:
    """Coordinates on the basis V of the class of each element of images,
    one list per image."""
    ring = ech.lifted.ring
    top = ech.top
    normalize = ring.normalize
    width = len(images)
    out: List[Vector] = [[0] * basis.v for _ in range(width)]

    layers: Dict[int, Dict[ConeMonomial, Vector]] = defaultdict(dict)
    for col, G in enumerate(images):
        for m, c in G.terms.items():
            layer = layers[m[0]]
            vec = layer.get(m)
            if vec is None:
                vec = layer[m] = [0] * width
            vec[col] = c

    for d in range(max(layers, default=0), -1, -1):
        de = ech.by_degree[min(d, top)]
        below = layers[d - 1]
        # The layer with each coordinate normalized once.
        layer = {m: [normalize(x) if x else 0 for x in vec]
                 for m, vec in layers.pop(d, {}).items()}
        for lm in sorted(layer, reverse=True):
            vec = layer.get(lm)
            if vec is None or not any(vec):
                continue
            if d > top:
                m0 = _default_divisor_policy(de.columns, lm, ech)
                if m0 is None:
                    raise DecompositionError(
                        f"no top-degree divisor monomial for {lm}: the cone "
                        "decomposition has no factor available")
            elif lm in de.col_index:
                m0 = lm
            else:
                raise PrecisionOrLogicError(
                    f"monomial {lm} violates the mode restriction during "
                    "reduction")
            m = (d - m0[0], tuple(map(sub, lm[1], m0[1])))
            e = cofactor_exponents(ech, m) if m[0] else ()
            # The slice of layer d lying in m * (the columns up to m0); the
            # columns above m0 give monomials above lm.
            for j in range(de.col_index[m0] + 1):
                x = layer.pop((d, tuple(map(add, m[1], de.columns[j][1]))),
                              None)
                if x is not None:
                    apply_column(ring, de.ops[j], m, e, x, below, out)

    return [[normalize(x) for x in col] for col in out]
