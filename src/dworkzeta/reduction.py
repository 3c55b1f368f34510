"""Reduction of the Frobenius images to coordinates on the quotient basis V.

The relations used are the vanishing, in the quotient, of the operators
D_i = x_i d/dx_i + (pi*w) f_i (with x_0 = w and f_0 = f): for any cofactor
monomial m the product m * (pi*w) f_i is congruent to -x_i d(m)/dx_i, which
has weight degree one smaller.  Divisions never occur: the recorded echelon
transforms supply the row combination eta with xi = eta.J + v, and the
derivative operator only multiplies coefficients by integer exponents.

Reduction is R-linear and all the images walk the same cone monomials, so
they are reduced together.  The terms are held per weight degree: layer d
maps a monomial to its coefficient vector, one ring element per image (a
column of the result).  The sweep runs d from the top degree present down
to 1, and each step pops monomials of layer d and writes only to layer d-1.
So every layer is visited once, and the sweep ends after at most as many
steps as there are monomials in the layers: no budget needs checking.

Degrees d >= top: the monomials of layer d are visited in descending term
order, over a snapshot of the layer.  The current monomial lm is factored as
m * m0 with m0 of degree top, and the slice of layer d lying in
m * (top-degree columns) is rewritten in one solve through the
full-column-rank top-degree matrix.  The term order is translation-invariant
within a degree, so a column c after m0 gives m * c above lm, which an
earlier step has popped already: the slice is gathered over the columns up
to m0 only, whichever divisor the policy picks.

Degrees d < top: the whole layer is split in one solve by its own echelon
into its residual on V plus relation rows pushed one degree lower.

A coefficient vector is a list that may hold zero coordinates; every vector
update skips them, so images that share few monomials cost little more than
reducing each alone.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from .cone_algebra import ConeElement, ConeMonomial
from .errors import DecompositionError, PrecisionOrLogicError
from .jacobian import EchelonData, MonomialBasis, Vector
from .padic import RingElement


def _default_divisor_policy(candidates: List[ConeMonomial],
                            lm: ConeMonomial, ech: EchelonData
                            ) -> Optional[ConeMonomial]:
    """First monomial m0 of top degree with lm - m0 still in the cone."""
    d, mu = lm
    k = d - ech.top
    for m0 in candidates:
        diff = tuple(a - b for a, b in zip(mu, m0[1]))
        if ech.poly.contains(diff, k):
            return m0
    return None


def reduce(images: Sequence[ConeElement], ech: EchelonData,
           basis: MonomialBasis) -> List[List[RingElement]]:
    """Coordinates on the basis V of the class of each element of images,
    one list per image."""
    ring = ech.lifted.ring
    lifted = ech.lifted
    top = ech.top
    top_ech = ech.by_degree[top]
    zero, modulus, normalize = ring.zero, ring.modulus, ring.normalize
    width = len(images)
    basis_index = {m: i for i, m in enumerate(basis.V)}
    out = [[zero] * basis.v for _ in range(width)]

    layers: Dict[int, Dict[ConeMonomial, Vector]] = defaultdict(dict)
    for col, G in enumerate(images):
        for m, c in G.terms.items():
            layer = layers[m[0]]
            vec = layer.get(m)
            if vec is None:
                vec = layer[m] = [zero] * width
            vec[col] = c

    def push(layer: Dict[ConeMonomial, Vector], mono: ConeMonomial,
             mult: int, vec: Vector) -> None:
        """layer[mono] -= mult * vec, one normalize per nonzero coordinate."""
        c = -mult % modulus
        dst = layer.get(mono)
        if dst is None:
            layer[mono] = [normalize(c * x) if x else zero for x in vec]
            return
        for i, x in enumerate(vec):
            if x:
                dst[i] = normalize(dst[i] + c * x)

    # Degrees >= top: leading slices through the top-degree echelon.
    for d in range(max(layers, default=0), top - 1, -1):
        layer, below, k = layers.pop(d, {}), layers[d - 1], d - top
        for lm in sorted(layer, reverse=True):
            vec = layer.get(lm)
            if vec is None or not any(vec):
                continue
            m0 = _default_divisor_policy(top_ech.columns, lm, ech)
            if m0 is None:
                raise DecompositionError(
                    f"no top-degree divisor monomial for {lm}: the cone "
                    "decomposition has no factor available")
            m_mu = tuple(map(operator.sub, lm[1], m0[1]))
            # Move the slice of layer d lying in m * (the top-degree columns
            # up to m0) into xi; the columns above m0 give monomials above lm.
            xi = {}
            for j in range(top_ech.col_index[m0] + 1):
                mono = (d, tuple(map(operator.add, m_mu,
                                     top_ech.columns[j][1])))
                c = layer.pop(mono, None)
                if c is not None:
                    xi[j] = c
            eta, v = top_ech.solve(ring, xi)
            if v:
                raise PrecisionOrLogicError(
                    "top-degree solve left a nonzero residual despite full "
                    "rank")
            # Replace by -sum_i x_i d(m * eta_i)/dx_i, one degree lower.
            for r, er in eta.items():
                gi, mr = top_ech.row_meta[r]
                mono = (k + mr[0], tuple(map(operator.add, m_mu, mr[1])))
                mult = lifted.var_exponent(gi, mono)
                if mult:
                    push(below, mono, mult, er)

    # Degrees top-1 .. 1: each layer in one solve through its own echelon.
    for d in range(top - 1, 0, -1):
        layer, below = layers.pop(d, {}), layers[d - 1]
        if not layer:
            continue
        de = ech.by_degree[d]
        xi = {}
        for m, vec in layer.items():
            j = de.col_index.get(m)
            if j is None:
                raise PrecisionOrLogicError(
                    f"monomial {m} violates the mode restriction during reduction")
            xi[j] = vec
        eta, v = de.solve(ring, xi)
        for j, vec in v.items():
            mono = de.columns[j]
            idx = basis_index.get(mono)
            if idx is None:
                raise PrecisionOrLogicError(
                    f"residual on non-basis monomial {mono} in degree {d}")
            for col, c in enumerate(vec):
                out[col][idx] = c
        for r, er in eta.items():
            gi, mr = de.row_meta[r]
            mult = lifted.var_exponent(gi, mr)
            if mult:
                push(below, mr, mult, er)

    # Degree 0: only the unit monomial can remain (toric mode).
    for m, vec in layers.pop(0, {}).items():
        idx = basis_index.get(m)
        if idx is None:
            raise PrecisionOrLogicError(
                f"degree-0 residual {m} lies outside the basis")
        for col, c in enumerate(vec):
            out[col][idx] = c
    return out
