"""The raw echelon of each degree and the solve that build_jacobian
compiles away: the reference that the compiled column operators are checked
against.

build_jacobian keeps only the compiled operators; echelons row-reduces the
same relation rows again, through the same jacobian.echelon_of_degree, and
splits each reduced row into its column entries M and the transform T that
its image block records, so a test can read M, T, row_meta and
pivot_rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from dworkzeta.jacobian import DegreeEchelon, echelon_of_degree
from dworkzeta.polytope import lattice_points

# A coefficient vector: one ring element per right-hand side, zeros included.
Vector = List[int]


@dataclass
class ReferenceEchelon:
    """One degree's DegreeEchelon de, split: M[r] holds the column entries of
    row r and T[r] maps an original relation row i, described by
    row_meta[i] = (generator index, cofactor), to the entry of row r at the
    image key (cofactor, slot of the generator).  M = T * J exactly, J the
    relation matrix that row_meta describes."""

    de: DegreeEchelon
    columns: list
    col_index: dict
    pivot_rows: Dict[int, int]
    row_meta: List[Tuple[int, tuple]]
    M: List[Dict[int, int]]
    T: List[Dict[int, int]]


def row_meta(lifted, cofactors):
    """(generator index, cofactor) of each relation row, in the order
    echelon_of_degree builds them."""
    return [(g, m) for g in lifted.generator_indices for m in cofactors
            if lifted.cofactor_allowed(g, m)]


def echelons(lifted, poly, top):
    """Degree -> ReferenceEchelon for degrees 0..top, as build_jacobian
    row-reduces them before compiling."""
    def layer(d):
        return [(d, mu) for mu in lattice_points(poly, d)] if d >= 0 else []

    slot = {g: s for s, g in enumerate(lifted.generator_indices, 1)}
    out = {}
    for d in range(top + 1):
        de = echelon_of_degree(lifted, d, layer(d - 1), layer(d))
        meta = row_meta(lifted, layer(d - 1))
        M = [{k: c for k, c in row.items() if isinstance(k, int)}
             for row in de.M]
        T = [{i: row[(mr, slot[g])] for i, (g, mr) in enumerate(meta)
              if (mr, slot[g]) in row} for row in de.M]
        out[d] = ReferenceEchelon(de=de, columns=de.columns,
                                  col_index=de.col_index,
                                  pivot_rows=de.pivot_rows, row_meta=meta,
                                  M=M, T=T)
    return out


def solve(ring, de, xi: Dict[int, Vector]
          ) -> Tuple[Dict[int, Vector], Dict[int, Vector]]:
    """Split xi = eta.J + v coordinatewise over the ReferenceEchelon de, with
    v on the non-pivot columns.

    xi maps a column to its vector of coordinates, one per right-hand side,
    all of one length.  Returns (eta over the original rows, v over the
    columns), each mapping to such vectors, none of them all zero.  M is
    fully reduced, so subtracting a pivot row never changes another pivot
    column: only the pivot entries of xi itself select rows, each clearing
    its own column.
    """
    neg = ring.neg
    v = {j: list(c) for j, c in xi.items()}
    eta: Dict[int, Vector] = {}
    for j, c in xi.items():
        r = de.pivot_rows.get(j)
        if r is not None:
            coords = [(i, x) for i, x in enumerate(c) if x]
            _combine_vectors(ring, v, [(i, neg(x)) for i, x in coords],
                             de.M[r], len(c))
            _combine_vectors(ring, eta, coords, de.T[r], len(c))
    return ({k: e for k, e in eta.items() if any(e)},
            {k: e for k, e in v.items() if any(e)})


def _combine_vectors(ring, dst: Dict[int, Vector],
                     coords: List[Tuple[int, int]], src: Dict[int, int],
                     width: int) -> None:
    """dst[k][i] += x * src[k] for every k in src and every (i, x) in coords,
    in place; a missing dst[k] starts as the zero vector of length width."""
    zero, muladd = ring.zero, ring.muladd
    for k, b in src.items():
        vec = dst.get(k)
        if vec is None:
            vec = dst[k] = [zero] * width
        for i, x in coords:
            vec[i] = muladd(x, b, vec[i])
