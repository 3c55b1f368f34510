"""Reduction of the Frobenius images to coordinates on the quotient basis V.

The relations used are the vanishing, in the quotient, of the operators
D_i = x_i d/dx_i + (pi*w) f_i (with x_0 = w and f_0 = f): for any cofactor
monomial m the product m * (pi*w) f_i is congruent to -e_i(m) m, with e_i
the exponent of variable i (LiftedInput.var_exponent), one weight degree
lower.  Divisions never occur: apply_column applies the reduction operator
that build_jacobian compiled for each echelon column (jacobian module
docstring).  What the support alone decides, the columns of each degree,
their codes and the facet heights the divisor policy compares, is read
from the support plan (jacobian.SupportPlan, EchelonData.plan); only the
operators and the position of each column code come with the solve.

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

Codes and packed vectors.  The images come keyed by monomial codes
(cone_algebra), and so is every layer: the term order is the order of the
keys, the degree of a key is its top field (key >> CODE_BITS * n), the
slice monomial m * c_j is codes[j] plus the code offset of m, and its image
monomial m * mr that plus the compiled offset of the entry.  The codes keep
their fields apart for every monomial of the sweep, which never rises
above the images' degree: expand_frobenius checks the bound for its
images, and support_plan at the top degree.  A coefficient
vector is one int: the entry of image i sits in slot i, at bit S*i with
S = (2a-1)*k (k = ring.k), the width of a product of two elements.  So a
push of a vector X on the image monomial c with coefficient coef is one
below[c] += coef * X, and a residual one out[idx] += c * X: each slot
receives the product of two elements, digits and all, and no slot carries
into the next while its digits stay below 2^k.

Lazy sums.  A slot of a layer, and of the result, is an unreduced sum of
the products pushed into it.  It is normalized once, when its layer is
popped (the result at the end), by padic.normalize.  A slot receives at
most one product per pushed vector and image entry, far fewer than the
2^HEADROOM_BITS - 1 terms that normalize accepts, and each of its 2a - 1
digits then stays below 2^k (padic module docstring), so the headroom that
keeps one element's digits apart also keeps the slots apart, for every a.
An image coefficient alpha + sum_k gamma_k * (-m_k) is a sum of elements
times the integers -m_k mod p^N, m_k the coordinates of the cofactor m,
normalized once per application; at and below the top degree m = 1 and the
coefficient is alpha itself, as it is for an entry whose gamma is zero.
"""

from __future__ import annotations

from collections import defaultdict
from operator import ge, mul
from typing import Dict, List, Optional, Sequence

from .cone_algebra import CODE_BITS, ConeElement, ConeMonomial, decode
from .errors import DecompositionError, PrecisionOrLogicError
from .jacobian import EchelonData, MonomialBasis, Operator, SupportPlan
from .padic import RingContext, RingElement


def _default_divisor_policy(plan: SupportPlan, lm: ConeMonomial
                            ) -> Optional[int]:
    """Position among the top-degree columns of plan of the first monomial
    m0 with lm - m0 still in the cone.

    lm - m0 has degree k = d - top >= 1, and lies in the cone when
    n.(mu - mu0) <= k*b for every facet (n, b) of the polytope, that is when
    each height n.mu0 (plan.top_heights) reaches n.mu - k*b."""
    d, mu = lm
    k = d - plan.top
    floors = [sum(map(mul, n, mu)) - k * b for n, b in plan.poly.facets]
    for j, heights in enumerate(plan.top_heights):
        if all(map(ge, heights, floors)):
            return j
    return None


def slot_bits(ring: RingContext) -> int:
    """The width of one image's slot in a packed vector: a product of two
    elements, 2a - 1 digits of k bits."""
    return (2 * ring.a - 1) * ring.k


def apply_column(ring: RingContext, op: Operator, key: int,
                 e: Optional[Sequence[int]], x: int,
                 below: Dict[int, int], out: List[int]) -> None:
    """Add the class of the packed vector x on the monomial of code key,
    m * (the column of op), as raw sums: its residual to out (one packed
    vector per index of V) and its image to below.

    e holds -m_k mod p^N for the coordinates (d, mu) of the cofactor m, or
    is None when m = 1.
    """
    residual, image = op
    for idx, c in residual:
        out[idx] += c * x
    normalize = ring.normalize
    for off, alpha, gamma in image:
        coef = normalize(alpha + sum(map(mul, gamma, e))) if e and gamma \
            else alpha
        if coef:
            c = key + off
            below[c] = below.get(c, 0) + coef * x


def reduce(images: Sequence[ConeElement], ech: EchelonData,
           basis: MonomialBasis) -> List[List[RingElement]]:
    """Coordinates on the basis V of the class of each element of images,
    one list per image."""
    ring, plan = ech.lifted.ring, ech.plan
    top = plan.top
    n = ech.lifted.n_eff
    normalize, modulus = ring.normalize, ring.modulus
    bits = slot_bits(ring)
    mask = (1 << bits) - 1
    shifts = [bits * i for i in range(len(images))]
    out = [0] * basis.v

    layers: Dict[int, Dict[int, int]] = defaultdict(dict)
    degree_shift = CODE_BITS * n
    for shift, G in zip(shifts, images):
        for key, c in G.terms.items():
            layer = layers[key >> degree_shift]
            layer[key] = layer.get(key, 0) + (c << shift)

    candidates = plan.layers[top].columns
    for d in range(max(layers, default=0), -1, -1):
        k = min(d, top)
        codes, index, ops = (plan.layers[k].column_codes, ech.index[k],
                             ech.ops[k])
        below = layers[d - 1]
        # The layer with each slot normalized once.
        layer = {}
        for key, x in layers.pop(d, {}).items():
            y = 0
            for s in shifts:
                z = x >> s & mask
                if z:
                    y |= normalize(z) << s
            layer[key] = y
        for lm in sorted(layer, reverse=True):
            if not layer.get(lm):
                continue
            if d > top:
                mu = decode(lm, n)[1]
                j0 = _default_divisor_policy(plan, (d, mu))
                if j0 is None:
                    raise DecompositionError(
                        f"no top-degree divisor monomial for {(d, mu)}: the "
                        "cone decomposition has no factor available")
                # m = lm / m0: its code offset and its -m_k mod p^N.
                off = lm - codes[j0]
                e = [(top - d) % modulus]
                e.extend((y - x) % modulus
                         for x, y in zip(mu, candidates[j0][1]))
            else:
                j0 = index.get(lm)
                if j0 is None:
                    raise PrecisionOrLogicError(
                        f"monomial {decode(lm, n)} violates the mode "
                        "restriction during reduction")
                off, e = 0, None
            # The slice of layer d lying in m * (the columns up to m0); the
            # columns above m0 give monomials above lm.
            for j in range(j0 + 1):
                key = codes[j] + off
                x = layer.pop(key, None)
                if x:
                    apply_column(ring, ops[j], key, e, x, below, out)

    return [[normalize(x >> s & mask) for x in out] for s in shifts]
