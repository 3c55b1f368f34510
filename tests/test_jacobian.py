"""Jacobian-module tests: lifting, echelon identities (the sparse echelon
against a dense reference too), and basis extraction
on elliptic, Fermat-like, and projective fixtures."""

from __future__ import annotations

import random
from operator import add

import pytest

from dworkzeta import gf
from dworkzeta.errors import InvalidInput, NondegeneracyFailure
from dworkzeta.jacobian import (
    _row_reduce,
    build_jacobian,
    check_terms,
    expected_rank,
    lift_input,
)
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull_and_triangulate


def ring(p=7, a=1, n=5):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def elliptic_terms(p, aa, bb):
    # x^3 + aa*x + bb - y^2
    return [((3, 0), (1,)), ((1, 0), (aa,)), ((0, 0), (bb,)), ((0, 2), (p - 1,))]


def build(R, terms, mode):
    lifted = lift_input(R, terms, mode)
    poly = hull_and_triangulate(lifted.support)
    v = expected_rank(mode, [nu for nu, _ in terms])
    return lifted, poly, build_jacobian(lifted, poly, v)


def test_lift_input_elliptic_generators():
    R = ring()
    lifted = lift_input(R, elliptic_terms(7, 2, 3), "affine")
    assert lifted.support == ((0, 0), (0, 2), (1, 0), (3, 0))
    # f_x = w(3x^3 + 2x), f_y = -2w y^2
    fx = lifted.generator(1)
    assert fx == [((1, 0), R.smul(1, R.teichmuller_lift((2,)))),
                  ((3, 0), R.smul(3, R.teichmuller_lift((1,))))]
    assert lifted.generator(2) == [((0, 2), R.smul(-2, R.one))]
    # w*f carries every term with its lifted coefficient
    assert lifted.generator(0) == list(zip(lifted.support, lifted.coeffs))


def test_check_terms_validation():
    with pytest.raises(InvalidInput):
        check_terms([((1, 0), (0,))], "toric", 7)  # zero coefficient
    with pytest.raises(InvalidInput):
        # duplicate exponent
        check_terms([((1, 0), (1,)), ((1, 0), (2,))], "toric", 7)
    with pytest.raises(InvalidInput):
        # no constant
        check_terms([((1, 0), (1,)), ((0, 1), (1,))], "affine", 7)
    with pytest.raises(InvalidInput):
        # no pure power of y
        check_terms([((0, 0), (1,)), ((2, 0), (1,)), ((1, 1), (1,))],
                    "affine", 7)
    with pytest.raises(InvalidInput):
        # inhomogeneous in projective mode
        check_terms([((2, 0), (1,)), ((0, 1), (1,))], "projective", 7)
    with pytest.raises(InvalidInput):
        # degree divisible by p
        check_terms([((3, 0), (1,)), ((0, 3), (1,))], "projective", 3)


def test_elliptic_affine_basis():
    R = ring(7, 1, 5)
    _, _, (ech, basis) = build(R, elliptic_terms(7, 1, 1), "affine")
    assert basis.V == [(1, (1, 1)), (2, (1, 1))]


def test_elliptic_toric_volume_six():
    R = ring(7, 1, 5)
    _, poly, (ech, basis) = build(R, elliptic_terms(7, 1, 1), "toric")
    assert poly.nvol == 6
    assert basis.v == 6
    assert [m for m in basis.V if m[0] == 0] == [(0, (0, 0))]


def test_fermat_like_affine_basis():
    # a1*x^3 + a2*y^2 + b over F_5: basis {w.xy, w^2.x^2y}.
    R = ring(5, 1, 4)
    terms = [((3, 0), (2,)), ((0, 2), (1,)), ((0, 0), (3,))]
    _, _, (ech, basis) = build(R, terms, "affine")
    assert basis.V == [(1, (1, 1)), (2, (2, 1))]


def test_projective_fermat_cubic():
    # x^3 + y^3 + z^3 over F_7: middle cohomology has rank 2, basis
    # (projected onto the first two exponents) {w.xy z, w^2.x^2y^2 z^2}.
    R = ring(7, 1, 5)
    terms = [((3, 0, 0), (1,)), ((0, 3, 0), (1,)), ((0, 0, 3), (1,))]
    lifted, poly, (ech, basis) = build(R, terms, "projective")
    assert lifted.degree == 3
    assert lifted.n_eff == 2
    # w z df/dz, with z implicit: only z^3 = x^0 y^0 z^3 carries z
    assert lifted.generator(3) == [((0, 0), R.smul(3, R.one))]
    assert basis.V == [(1, (1, 1)), (2, (2, 2))]


def test_projective_quadric_empty_basis():
    # A smooth conic has trivial primitive middle cohomology.
    R = ring(7, 1, 5)
    terms = [((2, 0, 0), (1,)), ((0, 2, 0), (1,)), ((0, 0, 2), (1,))]
    _, _, (ech, basis) = build(R, terms, "projective")
    assert basis.V == []


def test_degenerate_input_detected():
    # (x+1)^2 vanishes together with its logarithmic derivative at x = -1.
    R = ring(5, 1, 4)
    terms = [((0,), (1,)), ((1,), (2,)), ((2,), (1,))]
    with pytest.raises(NondegeneracyFailure):
        build(R, terms, "toric")


def relation_rows(lifted, de):
    """The relation matrix J of one degree, rebuilt from row_meta: row i is
    generator(gi) * m as a sparse {column: entry} row."""
    return [{de.col_index[(d + 1, tuple(map(add, mu, nu)))]: c
             for nu, c in lifted.generator(gi)}
            for gi, (d, mu) in de.row_meta]


def pivots(de):
    """The (row, column) pivot pairs of one degree, in the order found."""
    return [(r, j) for j, r in de.pivot_rows.items()]


def densify(R, row, n):
    """A sparse row as a dense list; an absent entry counts as zero."""
    return [row.get(k, R.zero) for k in range(n)]


def dense_row_reduce(ring, rows, ncols, degree):
    """Dense reference for _row_reduce: the same pivot rule on dense rows.

    Returns (T, pivots) and reduces rows in place.
    """
    nrows = len(rows)
    T = [[ring.one if i == j else ring.zero for j in range(nrows)]
         for i in range(nrows)]
    pivots = []
    r = 0
    for j in range(ncols - 1, -1, -1):
        unit_row = None
        saw_nonzero = False
        for i in range(r, nrows):
            e = rows[i][j]
            if not ring.is_zero(e):
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
        T[r], T[unit_row] = T[unit_row], T[r]
        inv = ring.inv(rows[r][j])
        rows[r] = [ring.mul(inv, e) for e in rows[r]]
        T[r] = [ring.mul(inv, e) for e in T[r]]
        prow, ptrow = rows[r], T[r]
        for i in range(nrows):
            if i == r:
                continue
            c = rows[i][j]
            if ring.is_zero(c):
                continue
            rows[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(rows[i], prow)]
            T[i] = [ring.sub(a, ring.mul(c, b)) for a, b in zip(T[i], ptrow)]
        pivots.append((r, j))
        r += 1
    return T, pivots


def test_echelon_identities():
    R = ring(7, 1, 4)
    for mode in ("toric", "affine"):
        # 4a^3 + 27b^2 = 59 is a unit mod 7, so the curve is nonsingular
        lifted, _, (ech, basis) = build(R, elliptic_terms(7, 2, 1), mode)
        for d, de in ech.by_degree.items():
            nrows, ncols = len(de.row_meta), len(de.columns)
            J = [densify(R, row, ncols) for row in relation_rows(lifted, de)]
            assert len(de.M) == len(de.T) == nrows
            # sparse rows hold only nonzero entries, in range
            for rows, width in ((de.M, ncols), (de.T, nrows)):
                for row in rows:
                    assert all(0 <= k < width and not R.is_zero(c)
                               for k, c in row.items())
            M = [densify(R, row, ncols) for row in de.M]
            T = [densify(R, row, nrows) for row in de.T]
            # M = T*J exactly over R
            for i in range(nrows):
                for j in range(ncols):
                    acc = R.zero
                    for k in range(nrows):
                        acc = R.add(acc, R.mul(T[i][k], J[k][j]))
                    assert acc == M[i][j]
            # unit pivots normalized to 1, zero elsewhere in pivot columns
            for j, r in de.pivot_rows.items():
                assert M[r][j] == R.one
                for i in range(nrows):
                    if i != r:
                        assert R.is_zero(M[i][j])


def test_solve_splits_vector():
    R = ring(7, 1, 4)
    lifted, _, (ech, basis) = build(R, elliptic_terms(7, 1, 3), "toric")
    rng = random.Random(4)
    for d in range(1, ech.top + 1):
        de = ech.by_degree[d]
        ncols = len(de.columns)
        J = [densify(R, row, ncols) for row in relation_rows(lifted, de)]
        dense_xi = {j: R.from_int(rng.randrange(R.modulus))
                    for j in range(ncols)}
        sparse_xi = {j: R.from_int(rng.randrange(1, R.modulus))
                     for j in rng.sample(range(ncols), min(3, ncols))}
        for xi in (dense_xi, sparse_xi):
            eta, v = de.solve(R, xi)
            assert all(not R.is_zero(c) for c in eta.values())
            assert all(not R.is_zero(c) for c in v.values())
            # v is supported on the non-pivot columns
            assert not set(v) & set(de.pivot_rows)
            # xi = eta*J + v
            for j in range(ncols):
                acc = v.get(j, R.zero)
                for k, e in eta.items():
                    acc = R.add(acc, R.mul(e, J[k][j]))
                assert acc == xi.get(j, R.zero)
            if d == ech.top:
                assert v == {}


def test_nonpivot_columns_independent_of_row_order():
    R = ring(7, 1, 4)
    lifted, _, (ech, basis) = build(R, elliptic_terms(7, 3, 2), "toric")
    rng = random.Random(8)
    for d, de in ech.by_degree.items():
        rows = relation_rows(lifted, de)
        rng.shuffle(rows)
        _, found = _row_reduce(R, rows, len(de.columns), d)
        assert {j for _, j in found} == set(de.pivot_rows)


@pytest.mark.parametrize("p, a, terms, mode", [
    (7, 1, elliptic_terms(7, 2, 1), "toric"),
    (7, 1, elliptic_terms(7, 2, 1), "affine"),
    # genus 2: y^2 = x^5 + 3x + 1
    (7, 1, [((5, 0), (1,)), ((1, 0), (3,)), ((0, 0), (1,)), ((0, 2), (6,))],
     "affine"),
    # the projective cubic x^3 + 2y^3 + z^3
    (7, 1, [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))],
     "projective"),
    # y^2 = x^3 + x + t over F_25 = F_5[t]/(t^2 + 4t + 2)
    (5, 2, [((3, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
            ((0, 2), (4, 0))], "affine"),
])
def test_sparse_row_reduce_matches_dense_reference(p, a, terms, mode):
    R = ring(p, a, 6)
    lifted, _, (ech, basis) = build(R, terms, mode)
    for d, de in ech.by_degree.items():
        nrows, ncols = len(de.row_meta), len(de.columns)
        M = [densify(R, row, ncols) for row in relation_rows(lifted, de)]
        T, dense_pivots = dense_row_reduce(R, M, ncols, d)
        assert pivots(de) == dense_pivots, (mode, d)
        assert [densify(R, row, ncols) for row in de.M] == M, (mode, d)
        assert [densify(R, row, nrows) for row in de.T] == T, (mode, d)
