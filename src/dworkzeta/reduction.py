"""Reduction of the Frobenius images to coordinates on the quotient basis V.

The relations used are the vanishing, in the quotient, of the operators
D_i = x_i d/dx_i + (pi*w) f_i (with x_0 = w and f_0 = f): for any cofactor
monomial m the product m * (pi*w) f_i is congruent to -e_i(m) m, with e_i
the exponent of variable i (LiftedInput.var_exponent), one weight degree
lower.  Divisions never occur: the recorded echelon transforms say which
relation rows clear a column, and the derivative only multiplies
coefficients by integer exponents.

Compiled columns.  Let column c_j of degree d have its pivot in row r of
M = T.J.  Row r says c_j = sum_i T[r][i] J_i - sum_{k != j} M[r][k] c_k,
each c_k a non-pivot column (M is fully reduced) and J_i the relation row
mr_i * (pi*w) f_(g_i) with (g_i, mr_i) = row_meta[i].  So for a cofactor m
the class of m * c_j is

* the residual sum_{k != j} -M[r][k] m c_k, on V (m = 1 below the top
  degree; at the top degree the matrix has full column rank, M[r] is
  exactly {j: 1} and there is no residual);
* plus the image sum_i -T[r][i] e_(g_i)(m mr_i) m mr_i, one degree lower.

e_g is linear in the monomial, so grouping the rows by their cofactor mr the
coefficient of m * mr is alpha - sum_g beta_g e_g(m), with
alpha = -sum T[r][i] e_(g_i)(mr) and beta_g = T[r][i] for the row of
generator g.  compile_column turns column j into this operator (residual,
image) in one pass over the pivot rows, the first time a reduce call needs
the column, and apply_column applies it.  A non-pivot column below the top
degree is its own residual, (its V index, 1), with no image.

The sweep.  Reduction is R-linear and all the images walk the same cone
monomials, so they are reduced together.  The terms are held per weight
degree: layer d maps a monomial to its coefficient vector, one entry per
image (a column of the result).  The sweep runs d from the top degree
present down to 1, and each step pops monomials of layer d and writes only
to layer d-1.  So every layer is visited once, and the sweep ends after at
most as many steps as there are monomials in the layers: no budget needs
checking.

* Degrees d >= top: the monomials of layer d are visited in descending
  term order, over a snapshot of the layer.  The current monomial lm is
  factored as m * m0 with m0 of degree top, and each vector of the slice of
  layer d lying in m * (top-degree columns) goes through its column's
  operator with cofactor m.  The term order is translation-invariant within
  a degree, so a column c after m0 gives m * c above lm, which an earlier
  step has popped already: the slice is gathered over the columns up to m0
  only, whichever divisor the policy picks.
* Degrees d < top: every monomial of the layer goes through the operator of
  its own column in the degree-d echelon, with cofactor 1.

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
from operator import add, mul, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .cone_algebra import ConeElement, ConeMonomial
from .errors import DecompositionError, PrecisionOrLogicError
from .jacobian import EchelonData, MonomialBasis
from .padic import RingContext, RingElement

# A coefficient vector, one entry per image; in a layer the entries are
# unreduced sums (see the module docstring).
Vector = List[int]
# (residual [(V index, coefficient)], image [(mr, alpha, [beta_g])])
Operator = Tuple[List[Tuple[int, RingElement]],
                 List[Tuple[ConeMonomial, RingElement, List[RingElement]]]]

UNIT: ConeMonomial = (0, ())  # the cofactor 1 below the top degree


def _default_divisor_policy(candidates: List[ConeMonomial],
                            lm: ConeMonomial, ech: EchelonData
                            ) -> Optional[ConeMonomial]:
    """First monomial m0 of top degree with lm - m0 still in the cone."""
    d, mu = lm
    k = d - ech.top
    contains = ech.poly.contains
    for m0 in candidates:
        if contains(tuple(map(sub, mu, m0[1])), k):
            return m0
    return None


def _basis_position(basis_index: Dict[ConeMonomial, int],
                    mono: ConeMonomial) -> int:
    idx = basis_index.get(mono)
    if idx is None:
        raise PrecisionOrLogicError(
            f"residual on non-basis monomial {mono} in degree {mono[0]}")
    return idx


def compile_column(ech: EchelonData, d: int, j: int,
                   basis_index: Dict[ConeMonomial, int]) -> Operator:
    """The reduction operator of column j of degree d (module docstring)."""
    lifted, de = ech.lifted, ech.by_degree[d]
    ring = lifted.ring
    top = d == ech.top
    r = de.pivot_rows.get(j)
    if r is None:
        if top:
            raise PrecisionOrLogicError(
                f"top-degree column {de.columns[j]} has no pivot despite "
                "full rank")
        return [(_basis_position(basis_index, de.columns[j]), ring.one)], []
    if top:
        if de.M[r] != {j: ring.one}:
            raise PrecisionOrLogicError(
                f"top-degree column {de.columns[j]} leaves a nonzero "
                "residual despite full rank")
        residual = []
    else:
        residual = [(_basis_position(basis_index, de.columns[k]), ring.neg(c))
                    for k, c in de.M[r].items() if k != j]
    modulus, gens = ring.modulus, lifted.generator_indices
    slot = {g: s for s, g in enumerate(gens, 1)}
    var_exponent = lifted.var_exponent
    # mr -> [alpha, beta_g for g in gens], alpha an unreduced sum.
    sums: Dict[ConeMonomial, List[int]] = {}
    for i, t in de.T[r].items():
        g, mr = de.row_meta[i]
        acc = sums.get(mr)
        if acc is None:
            acc = sums[mr] = [0] * (len(gens) + 1)
        acc[0] += (-var_exponent(g, mr) % modulus) * t
        acc[slot[g]] = t
    normalize = ring.normalize
    image = [(mr, normalize(acc[0]), acc[1:]) for mr, acc in sums.items()]
    return residual, image


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

    vec holds elements; m is the cofactor (UNIT for 1) and e its
    cofactor_exponents (unused when m has degree 0).
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
    top_ech = ech.by_degree[top]
    normalize = ring.normalize
    width = len(images)
    basis_index = {m: i for i, m in enumerate(basis.V)}
    out: List[Vector] = [[0] * basis.v for _ in range(width)]

    layers: Dict[int, Dict[ConeMonomial, Vector]] = defaultdict(dict)
    for col, G in enumerate(images):
        for m, c in G.terms.items():
            layer = layers[m[0]]
            vec = layer.get(m)
            if vec is None:
                vec = layer[m] = [0] * width
            vec[col] = c

    def pop_layer(d: int) -> Dict[ConeMonomial, Vector]:
        """Layer d, each coordinate normalized once."""
        return {m: [normalize(x) if x else 0 for x in vec]
                for m, vec in layers.pop(d, {}).items()}

    def operator(ops: Dict[int, Operator], d: int, j: int) -> Operator:
        op = ops.get(j)
        if op is None:
            op = ops[j] = compile_column(ech, d, j, basis_index)
        return op

    # Degrees >= top: leading slices through the top-degree operators.
    top_ops: Dict[int, Operator] = {}
    for d in range(max(layers, default=0), top - 1, -1):
        layer, below = pop_layer(d), layers[d - 1]
        for lm in sorted(layer, reverse=True):
            vec = layer.get(lm)
            if vec is None or not any(vec):
                continue
            m0 = _default_divisor_policy(top_ech.columns, lm, ech)
            if m0 is None:
                raise DecompositionError(
                    f"no top-degree divisor monomial for {lm}: the cone "
                    "decomposition has no factor available")
            m = (d - top, tuple(map(sub, lm[1], m0[1])))
            e = cofactor_exponents(ech, m)
            # The slice of layer d lying in m * (the top-degree columns up to
            # m0); the columns above m0 give monomials above lm.
            for j in range(top_ech.col_index[m0] + 1):
                x = layer.pop((d, tuple(map(add, m[1],
                                            top_ech.columns[j][1]))), None)
                if x is not None:
                    apply_column(ring, operator(top_ops, top, j), m, e, x,
                                 below, out)

    # Degrees top-1 .. 1: each monomial through its own column's operator.
    for d in range(top - 1, 0, -1):
        de, ops = ech.by_degree[d], {}
        layer, below = pop_layer(d), layers[d - 1]
        for mono, vec in layer.items():
            j = de.col_index.get(mono)
            if j is None:
                raise PrecisionOrLogicError(
                    f"monomial {mono} violates the mode restriction during "
                    "reduction")
            if any(vec):
                apply_column(ring, operator(ops, d, j), UNIT, (), vec, below,
                             out)

    # Degree 0: only the unit monomial can remain (toric mode).
    for m, vec in layers.pop(0, {}).items():
        idx = basis_index.get(m)
        if idx is None:
            raise PrecisionOrLogicError(
                f"degree-0 residual {m} lies outside the basis")
        for x, col in zip(vec, out):
            col[idx] += x
    return [[normalize(x) for x in col] for col in out]
