"""Newton-polytope combinatorics in exact integer arithmetic.

A polytope is its facets.  Provides convex hulls with facet inequalities
and vertices; the lattice points of a dilation d * Delta, by a scan of its
bounding box in lexicographic order that takes each coordinate's range from
the facets of Delta's shadow on the coordinates so far; normalized volumes,
as the n-th finite difference of the lattice-point counts of the dilations
0..n; Hermite normal form with recorded unimodular transform; face
enumeration; and the orthotope-confinement transform, which keeps the box
small.

No floating point is used anywhere; all predicates are integer determinants,
and rank and determinant come from one fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from .errors import DEFAULT_BUDGET, BudgetExceeded, NotFullDimensional

Point = Tuple[int, ...]
Facet = Tuple[Tuple[int, ...], int]  # (a, b) meaning <a, x> <= b

MAX_DIM = 6


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def rank_det(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rank, det) of an integer matrix by one fraction-free (Bareiss)
    elimination with row swaps that skips the columns without a pivot.

    After k pivots every entry is a (k + 1)-minor of the input, so each
    division by the previous pivot is exact (Bareiss, Math. Comp. 22,
    1968).  det is 0 unless the matrix is square and of full rank; the
    empty matrix has det 1.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for j in range(ncols):
        for piv in range(rank, nrows):
            if m[piv][j]:
                break
        else:
            continue
        top = m[piv]
        if piv != rank:
            m[piv], m[rank] = m[rank], top
            sign = -sign
        pv = top[j]
        # Rows below the pivot, right of column j; column j itself is not
        # read again.
        for row in m[rank + 1:]:
            a = row[j]
            for k in range(j + 1, ncols):
                row[k] = (row[k] * pv - a * top[k]) // prev
        prev = pv
        rank += 1
    return rank, (sign * prev if rank == nrows == ncols else 0)


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    return rank_det(rows)[1]


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine span of a point set."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank_det([[x - b for x, b in zip(p, base)] for p in points[1:]])[0]


def _primitive(vec: Sequence[int]) -> Tuple[int, ...]:
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


def _normal_through(points: Sequence[Point]) -> Tuple[int, ...] | None:
    """Primitive normal of the hyperplane through k points in R^k (or None)."""
    k = len(points[0])
    if k == 1:
        return (1,)
    base = points[0]
    edges = [[p[i] - base[i] for i in range(k)] for p in points[1:]]
    normal = []
    for j in range(k):
        minor = [[row[i] for i in range(k) if i != j] for row in edges]
        normal.append((-1) ** j * int_det(minor))
    if not any(normal):
        return None
    return _primitive(normal)


def hull_facets(points: Sequence[Point]) -> List[Facet]:
    """Facet inequalities <a, x> <= b of the convex hull of a full-dimensional
    point set, by exhaustive hyperplane enumeration with exact predicates."""
    k = len(points[0])
    if k == 1:
        xs = [p[0] for p in points]
        return [((1,), max(xs)), ((-1,), -min(xs))]
    seen: set[Facet] = set()
    out: List[Facet] = []
    for combo in combinations(range(len(points)), k):
        normal = _normal_through([points[i] for i in combo])
        if normal is None:
            continue
        b = sum(n * x for n, x in zip(normal, points[combo[0]]))
        lo = hi = False
        for p in points:
            s = sum(n * x for n, x in zip(normal, p))
            if s > b:
                hi = True
            elif s < b:
                lo = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:  # flip so that all points satisfy <a, x> <= b
            normal = tuple(-n for n in normal)
            b = -b
        f = (normal, b)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return sorted(out)


# ---------------------------------------------------------------------------
# hull, lattice points of dilations, normalized volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticePolytope:
    """Exact Newton-polytope data: dimension, vertices and facets."""

    dim: int
    vertices: Tuple[Point, ...]
    facets: Tuple[Facet, ...]

    def contains(self, x: Sequence[int], dilation: int = 1) -> bool:
        """Membership of x in dilation * Delta, via scaled facet inequalities."""
        if dilation == 0:
            return not any(x)
        for normal, b in self.facets:
            if sum(map(mul, normal, x)) > dilation * b:
                return False
        return True


def hull(S: Iterable[Point]) -> LatticePolytope:
    """Convex hull of a full-dimensional point set: its facets and vertices."""
    points = sorted(set(tuple(int(c) for c in p) for p in S))
    if not points:
        raise NotFullDimensional("empty point set")
    n = len(points[0])
    if n > MAX_DIM:
        raise NotFullDimensional(f"dimension {n} exceeds the supported cap {MAX_DIM}")
    k = affine_rank(points)
    if k < n:
        raise NotFullDimensional(
            f"point set spans an affine subspace of dimension {k} < {n}")

    facets = tuple(hull_facets(points))

    # Vertices: points whose tight facet normals span the full space.
    vertices = []
    for p in points:
        tight = [normal for normal, b in facets
                 if sum(a * x for a, x in zip(normal, p)) == b]
        if rank_det(tight)[0] == n:
            vertices.append(p)
    return LatticePolytope(dim=n, vertices=tuple(vertices), facets=facets)


def lattice_points(poly: LatticePolytope, d: int) -> List[Point]:
    """All integer points of d * Delta, in lexicographic order.

    A scan of the bounding box that solves for each coordinate's range
    instead of testing every point of the box.  The shadow of Delta on its
    first k coordinates is the hull of the vertices cut to length k.  Over an
    integer point of the shadow of d * Delta on k - 1 coordinates, the facets
    of the shadow on k coordinates bound the k-th coordinate to an interval;
    so the scan visits only integer points of the shadows, and a thin Delta
    in a large box does not pay for the box.  Raises BudgetExceeded before
    the list would pass DEFAULT_BUDGET points.
    """
    if d < 0:
        raise ValueError("dilation must be nonnegative")
    n = poly.dim
    shadows = [hull_facets(sorted({v[:k] for v in poly.vertices}))
               for k in range(1, n)] + [poly.facets]
    # bounds[k]: (c, a, d*b) for each facet <a, y> + c*x_k <= b of the shadow
    # on k + 1 coordinates with c != 0, y the first k coordinates.
    bounds = [[(normal[k], normal[:k], d * b) for normal, b in facets
               if normal[k]] for k, facets in enumerate(shadows)]
    out: List[Point] = []

    def scan(prefix: Point) -> None:
        k = len(prefix)
        rests = [(c, db - sum(map(mul, a, prefix))) for c, a, db in bounds[k]]
        lo = max(-(rest // -c) for c, rest in rests if c < 0)
        hi = min(rest // c for c, rest in rests if c > 0)
        if k == n - 1:
            if len(out) + hi - lo + 1 > DEFAULT_BUDGET:
                raise BudgetExceeded(
                    f"the lattice points of {d} * Delta number more than the "
                    f"budget of {DEFAULT_BUDGET}")
            out.extend(prefix + (x,) for x in range(lo, hi + 1))
        else:
            for x in range(lo, hi + 1):
                scan(prefix + (x,))

    scan(())
    return out


def normalized_volume(points: Sequence[Point]) -> int:
    """Normalized volume of conv(points) in Z^k, k the length of the points.

    The Ehrhart count L(j) = #(j * Delta cap Z^k) is a polynomial of degree k
    in j with leading coefficient vol(Delta), so its k-th finite difference
    over j = 0..k is k! * vol(Delta) (Beck-Robins, Computing the Continuous
    Discretely, ch. 3).  0 for no points or a hull of dimension below k; a
    nonempty set in Z^0 (a point) has volume 1.
    """
    if not points:
        return 0
    k = len(points[0])
    if k == 0:
        return 1
    if affine_rank(points) < k:
        return 0
    poly = hull(points)
    return sum((-1) ** (k - j) * comb(k, j) * len(lattice_points(poly, j))
               for j in range(k + 1))


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------

def hermite_normal_form(B: Sequence[Sequence[int]]):
    """Row-operation HNF of a square integer matrix: returns (U, H) with U
    unimodular, U*B = H, H lower triangular, diagonal positive where nonzero,
    and 0 <= h_ji < h_ii below each nonzero pivot.  Singular input yields
    zero diagonal entries."""
    n = len(B)
    H = [list(map(int, row)) for row in B]
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    for col in range(n - 1, -1, -1):
        # Fold rows 0..col-1 into row col on this column via gcd steps.
        for r in range(col):
            while H[r][col] != 0:
                if H[col][col] == 0:
                    H[col], H[r] = H[r], H[col]
                    U[col], U[r] = U[r], U[col]
                    continue
                qout = H[r][col] // H[col][col]
                if qout != 0:
                    H[r] = [x - qout * y for x, y in zip(H[r], H[col])]
                    U[r] = [x - qout * y for x, y in zip(U[r], U[col])]
                if H[r][col] != 0:
                    H[col], H[r] = H[r], H[col]
                    U[col], U[r] = U[r], U[col]
        if H[col][col] < 0:
            H[col] = [-x for x in H[col]]
            U[col] = [-x for x in U[col]]
        if H[col][col] != 0:
            for r in range(col + 1, n):
                qout = H[r][col] // H[col][col]
                if qout != 0:
                    H[r] = [x - qout * y for x, y in zip(H[r], H[col])]
                    U[r] = [x - qout * y for x, y in zip(U[r], U[col])]
    return U, H


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def faces(poly: LatticePolytope,
          S: Sequence[Point]) -> List[Tuple[Point, ...]]:
    """The points of the support set S on each face of every dimension 0..n
    (the polytope itself included, the empty face excluded), sorted, with
    the faces ordered by their number of vertices and then by the vertices."""
    facet_vsets = []
    for normal, b in poly.facets:
        facet_vsets.append(frozenset(
            v for v in poly.vertices
            if sum(a * x for a, x in zip(normal, v)) == b))
    closure = {frozenset(poly.vertices)}
    frontier = [frozenset(poly.vertices)]
    while frontier:
        nxt = []
        for w in frontier:
            for fv in facet_vsets:
                inter = w & fv
                if inter and inter not in closure:
                    closure.add(inter)
                    nxt.append(inter)
        frontier = nxt
    out = []
    for w in sorted(closure, key=lambda s: (len(s), sorted(s))):
        tight = [facet for facet, fv in zip(poly.facets, facet_vsets)
                 if w <= fv]
        out.append(tuple(sorted(
            pt for pt in S
            if all(sum(a * x for a, x in zip(normal, pt)) == b
                   for normal, b in tight))))
    return out


# ---------------------------------------------------------------------------
# confinement
# ---------------------------------------------------------------------------

def confine(S: Sequence[Point]):
    """Unimodular change of coordinates confining the support to a small box.

    Greedily grows a large-volume simplex (adding the point that maximizes the
    Gram determinant), applies the unimodular transform from the HNF of its
    edge matrix, and translates the result to nonnegative coordinates.
    Returns (U, t): the map s -> U*s + t sends S into the nonnegative orthant
    with every coordinate minimum 0.
    """
    points = sorted(set(tuple(int(c) for c in p) for p in S))
    n = len(points[0])
    if affine_rank(points) < n:
        raise NotFullDimensional("confinement requires a full-dimensional support")

    chosen = [min(points)]
    while len(chosen) < n + 1:
        best = None
        best_gram = -1
        base = chosen[0]
        for p in points:
            if p in chosen:
                continue
            vecs = [[q[i] - base[i] for i in range(n)] for q in chosen[1:] + [p]]
            gram = int_det([[sum(a * b for a, b in zip(v, w)) for w in vecs]
                            for v in vecs])
            if gram > best_gram:
                best_gram = gram
                best = p
        if best is None or best_gram == 0:
            raise NotFullDimensional("could not grow a full-dimensional simplex")
        chosen.append(best)

    base = chosen[0]
    edge_cols = [[chosen[j + 1][i] - base[i] for j in range(n)] for i in range(n)]
    U, _ = hermite_normal_form(edge_cols)
    transformed = [tuple(sum(U[i][j] * (p[j] - base[j]) for j in range(n))
                         for i in range(n)) for p in points]
    mins = [min(p[i] for p in transformed) for i in range(n)]
    t = tuple(-sum(U[i][j] * base[j] for j in range(n)) - mins[i] for i in range(n))
    return U, t
