"""Test-side volume reference: a pulling triangulation of the convex hull.

Independent of the rule in dworkzeta.polytope, where the normalized volume is
the n-th finite difference of the lattice-point counts of the dilations: here
the hull is coned from its lexicographically smallest point over the facets
that do not contain it, each facet triangulated the same way within its own
affine span, and the normalized volume is the sum of the simplices' |det|.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from dworkzeta.polytope import (
    Facet,
    Point,
    affine_rank,
    hull,
    hull_facets,
    int_det,
)


def triangulate(S: Iterable[Point]) -> Tuple[Tuple[Point, ...], ...]:
    """The simplices (as sorted vertex tuples, in sorted order) of the
    pulling triangulation of a full-dimensional point set."""
    points = sorted(set(tuple(int(c) for c in p) for p in S))
    facets = hull(points).facets
    return tuple(tuple(points[i] for i in s)
                 for s in sorted(_pulling_triangulation(points, facets)))


def triangulated_volume(S: Iterable[Point]) -> int:
    """Normalized volume as the sum over the simplices of triangulate(S)."""
    return sum(_simplex_nvol(s) for s in triangulate(S))


def _pulling_triangulation(points: List[Point],
                           facets: Sequence[Facet]) -> List[Tuple[int, ...]]:
    """Triangulation of conv(points), full-dimensional with the given facets,
    as sorted index tuples."""
    k = len(points[0]) - 1  # dimension of a facet
    apex = min(range(len(points)), key=points.__getitem__)
    result: List[Tuple[int, ...]] = []
    for normal, b in facets:
        if sum(a * x for a, x in zip(normal, points[apex])) == b:
            continue
        face_idx = [i for i, p in enumerate(points)
                    if sum(a * x for a, x in zip(normal, p)) == b]
        if len(face_idx) == k + 1:
            subs = [tuple(range(k + 1))]
        else:
            proj = _project_to_span([points[i] for i in face_idx], k)
            subs = _pulling_triangulation(proj, hull_facets(proj))
        for sub in subs:
            result.append(tuple(sorted([face_idx[j] for j in sub] + [apex])))
    return result


def _project_to_span(points: List[Point], k: int) -> List[Point]:
    """Project points to k coordinates on which their affine span is injective."""
    cols: List[int] = []
    for c in range(len(points[0])):
        trial = cols + [c]
        cut = [tuple(p[j] for j in trial) for p in points]
        if affine_rank(cut) == len(trial):
            cols.append(c)
        if len(cols) == k:
            break
    return [tuple(p[j] for j in cols) for p in points]


def _simplex_nvol(verts: Sequence[Point]) -> int:
    base = verts[0]
    return abs(int_det([[v[j] - base[j] for j in range(len(base))]
                        for v in verts[1:]]))
