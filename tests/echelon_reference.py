"""The raw echelon of each degree and the solve that build_jacobian
compiles away: the reference that the compiled column operators are checked
against.

build_jacobian keeps only the compiled operators; echelons row-reduces the
same relation rows again, through the same jacobian.echelon_of_degree, so a
test can read M, T, row_meta and pivot_rows."""

from __future__ import annotations

from typing import Dict, List, Tuple

from dworkzeta.jacobian import echelon_of_degree
from dworkzeta.polytope import lattice_points

# A coefficient vector: one ring element per right-hand side, zeros included.
Vector = List[int]


def echelons(lifted, poly, top):
    """Degree -> DegreeEchelon for degrees 1..top, as build_jacobian
    row-reduces them before compiling."""
    def layer(d):
        return [(d, mu) for mu in lattice_points(poly, d)]

    return {d: echelon_of_degree(lifted, d, layer(d - 1), layer(d))
            for d in range(1, top + 1)}


def solve(ring, de, xi: Dict[int, Vector]
          ) -> Tuple[Dict[int, Vector], Dict[int, Vector]]:
    """Split xi = eta.J + v coordinatewise over the DegreeEchelon de, with v
    on the non-pivot columns.

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
