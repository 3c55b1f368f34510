"""Polytope tests: hulls, normalized volumes vs a triangulation reference,
lattice points vs a brute-force bounding-box oracle, HNF identities, faces,
and confinement."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from triangulation_reference import triangulate, triangulated_volume

from dworkzeta.errors import NotFullDimensional
from dworkzeta.polytope import (
    affine_rank,
    confine,
    faces,
    hermite_normal_form,
    hull,
    int_det,
    lattice_points,
    normalized_volume,
    rank_det,
)


def box_filter_oracle(poly, d):
    """Independent enumeration: scan the bounding box of d*Delta and keep the
    points satisfying every scaled facet inequality."""
    n = poly.dim
    if d == 0:
        return [(0,) * n]
    lo = [min(d * v[i] for v in poly.vertices) for i in range(n)]
    hi = [max(d * v[i] for v in poly.vertices) for i in range(n)]
    out = []
    for pt in product(*[range(lo[i], hi[i] + 1) for i in range(n)]):
        if all(sum(a * x for a, x in zip(normal, pt)) <= d * b
               for normal, b in poly.facets):
            out.append(pt)
    return sorted(out)


def gauss_rank_det(rows):
    """Reference rank and determinant by Gauss elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank, det = 0, Fraction(1)
    for j in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det *= m[rank][j]
        for i in range(rank + 1, len(m)):
            f = m[i][j] / m[rank][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    square = len(m) == ncols
    return rank, int(det) if square and rank == ncols else 0


def test_rank_det_vs_fraction_reference_random():
    rng = random.Random(25)
    cases = [[], [[0]], [[7]], [[-3]], [[0, 0]], [[0], [0]], [[2, 4], [1, 2]],
             [[0, 0, 0], [1, 2, 3], [0, 0, 0]]]
    for _ in range(1500):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.4 and nrows > 1:
            # rank deficiency: a combination of the other rows, or a zero row
            i = rng.randrange(nrows)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [a * x + b * y for x, y in
                       zip(rows[i - 1], rows[(i + 1) % nrows])]
        if rng.random() < 0.3:
            # small entries make zero pivots and row swaps common
            rows = [[x % 3 - 1 for x in row] for row in rows]
        cases.append(rows)
    assert any(len(r) == len(r[0]) and gauss_rank_det(r)[0] < len(r)
               for r in cases[1:])
    for rows in cases:
        assert rank_det(rows) == gauss_rank_det(rows), rows
        if not rows or len(rows) == len(rows[0]):
            assert int_det(rows) == gauss_rank_det(rows)[1]
    assert rank_det([]) == (0, 1)


def test_unit_simplex():
    poly = hull([(0, 0), (1, 0), (0, 1)])
    assert normalized_volume(poly.vertices) == 1
    assert len(triangulate([(0, 0), (1, 0), (0, 1)])) == 1
    assert sorted(poly.vertices) == [(0, 0), (0, 1), (1, 0)]
    assert lattice_points(poly, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(lattice_points(poly, 2)) == 6


def test_elliptic_triangle_volume_six():
    assert normalized_volume([(0, 0), (3, 0), (0, 2)]) == 6


def test_cospherical_square():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert normalized_volume(square) == 2
    # pulled from (0, 0) over the two edges that miss it
    assert triangulate(square) == (((0, 0), (0, 1), (1, 1)),
                                   ((0, 0), (1, 0), (1, 1)))


def test_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        hull([(0, 0), (1, 1), (2, 2)])


def random_point_set(rng, n, delta, count):
    return [tuple(rng.randrange(0, delta + 1) for _ in range(n))
            for _ in range(count)]


def test_lattice_points_vs_box_oracle_random():
    rng = random.Random(20260823)
    cases = 0
    budgets = {1: 12, 2: 12, 3: 6, 4: 3}
    while cases < 100:
        n = rng.choice([1, 1, 2, 2, 2, 3, 3, 4])
        delta = budgets[n]
        pts = random_point_set(rng, n, delta, rng.randrange(n + 1, n + 5))
        try:
            poly = hull(pts)
        except NotFullDimensional:
            continue
        cases += 1
        for d in range(0, min(n + 2, 4) + 1):
            assert lattice_points(poly, d) == box_filter_oracle(poly, d)


def test_nvol_is_ehrhart_leading_coefficient():
    # L(d) = #(d*Delta cap Z^n) is a degree-n polynomial with leading
    # coefficient vol(Delta), so its n-th finite difference over d = 0..n is
    # n! * vol(Delta) = nvol.  The counts come from the box oracle, and the
    # triangulation reference gives the same volume by another rule.
    rng = random.Random(20261018)
    cases = 0
    budgets = {1: 12, 2: 8, 3: 4}
    while cases < 60:
        n = rng.choice([1, 2, 2, 3, 3])
        pts = random_point_set(rng, n, budgets[n], rng.randrange(n + 1, n + 5))
        try:
            poly = hull(pts)
        except NotFullDimensional:
            continue
        cases += 1
        nvol = normalized_volume(pts)
        counts = [len(box_filter_oracle(poly, d)) for d in range(n + 1)]
        assert sum((-1) ** (n - j) * comb(n, j) * counts[j]
                   for j in range(n + 1)) == nvol, pts
        assert triangulated_volume(pts) == nvol, pts


def test_hnf_identity_and_unimodularity():
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        n = rng.choice([2, 2, 3, 3, 4])
        B = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        if int_det(B) == 0:
            continue
        checked += 1
        U, H = hermite_normal_form(B)
        # U*B = H exactly
        for i in range(n):
            for j in range(n):
                assert sum(U[i][k] * B[k][j] for k in range(n)) == H[i][j]
        assert abs(int_det(U)) == 1
        assert abs(int_det(H)) == abs(int_det(B))
        for i in range(n):
            assert H[i][i] > 0
            for j in range(i + 1, n):
                assert H[i][j] == 0  # lower triangular
        for i in range(n):
            for j in range(i + 1, n):
                assert 0 <= H[j][i] < H[i][i]


def test_hnf_identity_and_singular():
    U, H = hermite_normal_form([[1, 0], [0, 1]])
    assert H == [[1, 0], [0, 1]]
    U, H = hermite_normal_form([[2, 0], [1, 3]])
    assert H[0][1] == 0 and H[0][0] * H[1][1] == 6
    U, H = hermite_normal_form([[1, 2], [2, 4]])
    assert any(H[i][i] == 0 for i in range(2))  # singular flagged by zero pivot


def test_faces_segment_and_triangle():
    poly = hull([(0,), (1,)])
    fs = faces(poly, [(0,), (1,)])
    assert len(fs) == 3
    poly = hull([(0, 0), (1, 0), (0, 1)])
    fs = faces(poly, [(0, 0), (1, 0), (0, 1)])
    assert len(fs) == 7
    dims = sorted(affine_rank(f) for f in fs)
    assert dims == [0, 0, 0, 1, 1, 1, 2]


def test_faces_vs_bruteforce_random():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([2, 3])
        pts = random_point_set(rng, n, 4, n + 4)
        try:
            poly = hull(pts)
        except NotFullDimensional:
            continue
        fs = faces(poly, pts)
        # Oracle: distinct nonempty vertex sets arising as intersections of
        # arbitrary subsets of facet vertex sets (plus the polytope itself).
        facet_vsets = []
        for normal, b in poly.facets:
            facet_vsets.append(frozenset(
                v for v in poly.vertices
                if sum(a * x for a, x in zip(normal, v)) == b))
        expected = {frozenset(poly.vertices)}
        for r in range(1, len(facet_vsets) + 1):
            from itertools import combinations
            for combo in combinations(facet_vsets, r):
                inter = frozenset(poly.vertices)
                for s in combo:
                    inter = inter & s
                if inter:
                    expected.add(inter)
        vertices = set(poly.vertices)
        assert {frozenset(vertices.intersection(f)) for f in fs} == expected


def transformed(U, t, pts):
    """The image {U*s + t : s in pts}, sorted."""
    n = len(t)
    return sorted(tuple(sum(U[i][j] * s[j] for j in range(n)) + t[i]
                        for i in range(n)) for s in pts)


def test_confine_sliver():
    U, t = confine([(0, 0), (100, 1), (99, 1)])
    S2 = transformed(U, t, [(0, 0), (100, 1), (99, 1)])
    assert [min(s[i] for s in S2) for i in range(2)] == [0, 0]
    box = 1
    for i in range(2):
        box *= max(max(p[i] for p in S2) - min(p[i] for p in S2), 1)
    assert box <= 4 * normalized_volume(S2)
    assert abs(int_det(U)) == 1
    # volume is a unimodular invariant
    assert normalized_volume(S2) == normalized_volume(
        [(0, 0), (100, 1), (99, 1)])


def test_confine_preserves_lattice_point_count():
    rng = random.Random(5)
    for _ in range(10):
        pts = random_point_set(rng, 2, 8, 5)
        try:
            U, t = confine(pts)
            S2 = transformed(U, t, pts)
            poly0 = hull(pts)
            poly1 = hull(S2)
        except NotFullDimensional:
            continue
        assert normalized_volume(pts) == normalized_volume(S2)
        assert len(lattice_points(poly0, 1)) == len(lattice_points(poly1, 1))


def test_confined_bound_lattice_points():
    # #(Delta cap Z^n) <= (2n)^n * v on confined outputs.
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice([1, 2, 2, 3])
        pts = random_point_set(rng, n, 6, n + 3)
        try:
            U, t = confine(pts)
        except NotFullDimensional:
            continue
        S2 = transformed(U, t, pts)
        poly = hull(S2)
        nvol = normalized_volume(S2)
        box = 1
        for i in range(n):
            box *= max(max(p[i] for p in S2) - min(p[i] for p in S2), 1)
        if box > n ** n * nvol:
            continue  # the greedy simplex did not confine this support
        assert len(lattice_points(poly, 1)) <= (2 * n) ** n * nvol
