"""The raw echelon of each degree and the solve that build_jacobian
compiles away: the reference that the compiled column operators are checked
against.

build_jacobian keeps only the compiled operators; echelons row-reduces the
same relation rows again, through the same jacobian.echelon_of_degree, and
splits each reduced row into its column entries M and the transform T that
its image block records, so a test can read M, T, row_meta and
pivot_rows.

first_unit_row_reduce is another valid pivot rule, the first unused row
with a unit entry: it picks other pivot rows than jacobian._row_reduce, so
it shows that the choice changes the operators but not what they
compute."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Dict, List, Tuple

from dworkzeta.cone_algebra import encode
from dworkzeta.errors import NondegeneracyFailure
from dworkzeta.jacobian import (
    DegreeEchelon,
    Layer,
    SupportPlan,
    echelon_of_degree,
)
from dworkzeta.polytope import lattice_points

# A coefficient vector: one ring element per right-hand side, zeros included.
Vector = List[int]


@dataclass
class ReferenceEchelon:
    """One degree's DegreeEchelon de, with the columns and cofactors of its
    degree read from the plan, split: M[r] holds the column entries of
    row r and T[r] maps an original relation row i, described by
    row_meta[i] = (generator index, cofactor), to the entry of row r at the
    image key (cofactor, slot of the generator).  M = T * J exactly, J the
    relation matrix that row_meta describes."""

    de: DegreeEchelon
    columns: list
    cofactors: list
    col_index: dict
    pivot_rows: Dict[int, int]
    row_meta: List[Tuple[int, tuple]]
    M: List[Dict[int, int]]
    T: List[Dict[int, int]]


def cofactor_allowed(lifted, gen, m):
    """May m multiply generator gen as a relation row?  Every variable but
    x_gen must divide it (var_exponent at least 1), outside toric mode.

    The cofactors of w*f (gen = 0) obey the divisibility restriction of the
    columns themselves, so gen = 0 also tells the allowed columns."""
    return lifted.mode == "toric" or all(
        lifted.var_exponent(i, m) >= 1
        for i in range(1, lifted.n_vars + 1) if i != gen)


def row_meta(lifted, cofactors):
    """(generator index, cofactor) of each relation row, in the order
    echelon_of_degree builds them."""
    return [(g, m) for g in lifted.generator_indices for m in cofactors
            if cofactor_allowed(lifted, g, m)]


def image_keys(lifted, columns, cofactors, meta):
    """The key of the image entry (cofactor, slot of the generator) of each
    relation row described by meta, in the rows of the DegreeEchelon of
    these columns and cofactors."""
    ncols, width = len(columns), len(lifted.generator_indices) + 1
    slot = {g: s for s, g in enumerate(lifted.generator_indices, 1)}
    index = {m: c for c, m in enumerate(cofactors)}
    return [ncols + width * index[mr] + slot[g] for g, mr in meta]


def reference_plan(lifted, poly, top):
    """The layers of degrees 0..top of lifted's input, built here from
    lattice_points, var_exponent and cofactor_allowed rather than by
    jacobian.support_plan, in a SupportPlan whose v is None; its top
    heights are those of the top layer's columns over poly.facets."""
    layers = []
    for d in range(top + 1):
        monomials = tuple((d, mu) for mu in lattice_points(poly, d))
        lacking = tuple(
            tuple(i for i in range(1, lifted.n_vars + 1)
                  if lifted.mode != "toric" and lifted.var_exponent(i, m) < 1)
            for m in monomials)
        columns = tuple(m for m in monomials
                        if cofactor_allowed(lifted, 0, m))
        layers.append(Layer(monomials, tuple(map(encode, monomials)), lacking,
                            columns, tuple(map(encode, columns))))
    heights = tuple(tuple(sum(map(mul, n, mu0)) for n, _ in poly.facets)
                    for _, mu0 in layers[top].columns)
    return SupportPlan(None, poly, tuple(layers), heights)


def echelons(lifted, poly, top):
    """Degree -> ReferenceEchelon for degrees 0..top, as build_jacobian
    row-reduces them before compiling."""
    plan = reference_plan(lifted, poly, top)
    out = {}
    for d in range(top + 1):
        de = echelon_of_degree(lifted, plan, d)
        columns = plan.layers[d].columns
        cofactors = plan.layers[d - 1].monomials if d else ()
        meta = row_meta(lifted, cofactors)
        ncols = len(columns)
        M = [{k: c for k, c in row.items() if k < ncols} for row in de.M]
        keys = image_keys(lifted, columns, cofactors, meta)
        T = [{i: row[k] for i, k in enumerate(keys) if k in row}
             for row in de.M]
        out[d] = ReferenceEchelon(de=de, columns=columns, cofactors=cofactors,
                                  col_index={m: k for k, m in
                                             enumerate(columns)},
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


def first_unit_row_reduce(ring, rows, ncols, degree):
    """jacobian._row_reduce with the first-unit pivot rule: column j takes
    the first unused row with a unit entry there, swapped up to the next
    pivot position, and every other row holding j is found by a scan."""
    nrows = len(rows)
    pivots = []
    r = 0
    for j in range(ncols - 1, -1, -1):
        unit_row = None
        saw_nonzero = False
        for i in range(r, nrows):
            e = rows[i].get(j)
            if e is not None:
                saw_nonzero = True
                if ring.is_unit(e):
                    unit_row = i
                    break
        if unit_row is None:
            if saw_nonzero:
                raise NondegeneracyFailure(
                    f"degree {degree}, column {j}: no unit pivot")
            continue
        rows[r], rows[unit_row] = rows[unit_row], rows[r]
        inv = ring.inv(rows[r][j])
        prow = rows[r] = {k: ring.mul(inv, e) for k, e in rows[r].items()}
        for i in range(nrows):
            c = rows[i].get(j)
            if i == r or c is None:
                continue
            dst, c = rows[i], ring.neg(c)
            for k, b in prow.items():
                x = ring.muladd(c, b, dst.get(k, ring.zero))
                if x != ring.zero:
                    dst[k] = x
                else:
                    dst.pop(k, None)
        pivots.append((r, j))
        r += 1
    return pivots
