"""The tuple-keyed reduction sweep that reduction.reduce replaces: the
reference that the coded sweep is checked against, bit for bit.

Monomials are (d, mu) tuples, a coefficient vector is a list with one
entry per image, and each column's operator keeps its image entries as
(mr, alpha, [beta_g for g in generator_indices]), the coefficient on m * mr
being alpha - sum_g beta_g e_g(m) with e_g(m) from LiftedInput.var_exponent
(cofactor_exponents).  The operators are compiled here, from the echelons
that echelon_reference row-reduces again, so nothing of the coded form
build_jacobian emits is read.  The sweep is the same as reduction.reduce's
(reduction module docstring)."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import add, ge, mul, sub
from typing import Dict, List, Optional, Sequence

from echelon_reference import echelons

from dworkzeta.errors import DecompositionError, PrecisionOrLogicError

Vector = List[int]


@dataclass
class ReferenceDegree:
    columns: list
    col_index: dict
    ops: list


@dataclass
class ReferenceReduction:
    lifted: object
    poly: object
    top: int
    by_degree: Dict[int, ReferenceDegree]
    top_heights: list


def compile_column(lifted, ref, j, position):
    """The tuple-keyed operator of column j of the ReferenceEchelon ref:
    the residual [(V index, coefficient)] and the image [(mr, alpha,
    [beta_g])]."""
    ring = lifted.ring
    r = ref.pivot_rows.get(j)
    if r is None:
        return [(position[j], ring.one)], []
    residual = []
    ncols, width = len(ref.columns), len(lifted.generator_indices) + 1
    image: Dict[int, List[int]] = {}
    for k, c in ref.de.M[r].items():
        if k < ncols:
            if k != j:
                residual.append((position[k], ring.neg(c)))
            continue
        ci, s = divmod(k - ncols, width)
        image.setdefault(ci, [ring.zero] * width)[s] = c
    return residual, [(ref.cofactors[ci], acc[0], acc[1:])
                      for ci, acc in image.items()]


def reference_reduction(lifted, poly, top, basis) -> ReferenceReduction:
    """The tuple-keyed operators of every column of degrees 0..top."""
    basis_index = {m: i for i, m in enumerate(basis.V)}
    by_degree = {}
    for d, ref in echelons(lifted, poly, top).items():
        position = {k: basis_index[m] for k, m in enumerate(ref.columns)
                    if m in basis_index}
        by_degree[d] = ReferenceDegree(
            columns=ref.columns, col_index=ref.col_index,
            ops=[compile_column(lifted, ref, j, position)
                 for j in range(len(ref.columns))])
    normals = [n for n, _ in poly.facets]
    heights = [tuple(sum(map(mul, n, mu0)) for n in normals)
               for _, mu0 in by_degree[top].columns]
    return ReferenceReduction(lifted=lifted, poly=poly, top=top,
                              by_degree=by_degree, top_heights=heights)


def divisor_policy(candidates, lm, ech) -> Optional[tuple]:
    """First top-degree column m0 with lm - m0 in the cone, by the facet
    heights."""
    d, mu = lm
    k = d - ech.top
    floors = [sum(map(mul, n, mu)) - k * b for n, b in ech.poly.facets]
    for m0, heights in zip(candidates, ech.top_heights):
        if all(map(ge, heights, floors)):
            return m0
    return None


def cofactor_exponents(ech, m) -> List[int]:
    """-e_g(m) mod p^N for g in LiftedInput.generator_indices."""
    lifted = ech.lifted
    modulus = lifted.ring.modulus
    return [-lifted.var_exponent(g, m) % modulus
            for g in lifted.generator_indices]


def apply_column(ring, op, m, e: Sequence[int], vec: Vector,
                 below: Dict[tuple, Vector], out: List[Vector]) -> None:
    """Add the class of m * (the column of op) * vec as raw sums: its
    residual to out (one list per image, indexed by V) and its image to
    below; e is cofactor_exponents(m), empty when m = 1."""
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


def reduce(images, ech: ReferenceReduction, basis) -> List[List[int]]:
    """Coordinates on V of each image, by the tuple-keyed sweep."""
    ring = ech.lifted.ring
    top = ech.top
    normalize = ring.normalize
    width = len(images)
    out: List[Vector] = [[0] * basis.v for _ in range(width)]

    layers: Dict[int, Dict[tuple, Vector]] = defaultdict(dict)
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
        layer = {m: [normalize(x) if x else 0 for x in vec]
                 for m, vec in layers.pop(d, {}).items()}
        for lm in sorted(layer, reverse=True):
            vec = layer.get(lm)
            if vec is None or not any(vec):
                continue
            if d > top:
                m0 = divisor_policy(de.columns, lm, ech)
                if m0 is None:
                    raise DecompositionError(f"no divisor for {lm}")
            elif lm in de.col_index:
                m0 = lm
            else:
                raise PrecisionOrLogicError(f"{lm} breaks the restriction")
            m = (d - m0[0], tuple(map(sub, lm[1], m0[1])))
            e = cofactor_exponents(ech, m) if m[0] else ()
            for j in range(de.col_index[m0] + 1):
                x = layer.pop((d, tuple(map(add, m[1], de.columns[j][1]))),
                              None)
                if x is not None:
                    apply_column(ring, de.ops[j], m, e, x, below, out)

    return [[normalize(x) for x in col] for col in out]
