"""Jacobian-module tests: lifting, echelon identities (the sparse echelon
against a dense reference too, each degree row-reduced again through
echelon_of_degree, the transform read from the rows' image blocks), basis
extraction on elliptic, Fermat-like, and projective fixtures, and the pivot
row choice, which changes the operators but not the Frobenius matrix."""

from __future__ import annotations

import random
from operator import add

import pytest

from cone_helpers import term_order_key
from echelon_reference import (
    echelons,
    first_unit_row_reduce,
    reference_plan,
    solve,
)
from ring_helpers import from_int

from dworkzeta import gf, jacobian, pipeline
from dworkzeta.cone_algebra import encode
from dworkzeta.errors import InvalidInput, NondegeneracyFailure
from dworkzeta.jacobian import (
    _row_reduce,
    build_jacobian,
    check_terms,
    expected_rank,
    lift_input,
    support_plan,
)
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.pipeline import Problem, compute_zeta
from dworkzeta.polytope import hull, lattice_points, normalized_volume
from dworkzeta.reduction import reduce as cone_reduce


def ring(p=7, a=1, n=5):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def elliptic_terms(p, aa, bb):
    # x^3 + aa*x + bb - y^2
    return [((3, 0), (1,)), ((1, 0), (aa,)), ((0, 0), (bb,)), ((0, 2), (p - 1,))]


def build(R, terms, mode):
    lifted = lift_input(R, terms, mode)
    poly = hull(lifted.support)
    plan = support_plan(mode, [nu for nu, _ in terms])
    return lifted, poly, build_jacobian(lifted, plan)


@pytest.mark.parametrize("terms, mode", [
    (elliptic_terms(7, 2, 3), "toric"),
    (elliptic_terms(7, 2, 3), "affine"),
    ([((4, 0, 0), (1,)), ((0, 4, 0), (2,)), ((0, 0, 4), (3,))], "projective"),
])
def test_exponent_forms_and_coded_generators(terms, mode):
    """exponent_forms read at a monomial is var_exponent mod p^N, and the
    offset of each coded generator term takes the code of a monomial to
    the code of its product with that term."""
    R = ring()
    lifted = lift_input(R, terms, mode)
    poly = hull(lifted.support)
    rng = random.Random(31)
    forms = lifted.exponent_forms
    for d in range(4):
        for mu in lattice_points(poly, d):
            m = (d, mu)
            coords = (d,) + mu
            for s, g in enumerate(lifted.generator_indices):
                value = sum(row[s] * x for row, x in zip(forms, coords))
                assert value % R.modulus == lifted.var_exponent(g, m) % R.modulus
    for g, coded in zip(lifted.generator_indices, lifted.coded_generators):
        terms_g = lifted.generator(g)
        assert [c for _, c in coded] == [c for _, c in terms_g]
        for _ in range(5):
            k = rng.randrange(4)
            m = (k, rng.choice(lattice_points(poly, k)))
            for (off, _), (nu, _) in zip(coded, terms_g):
                prod = (k + 1, tuple(map(add, m[1], nu)))
                assert encode(m) + off == encode(prod)


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


@pytest.mark.parametrize("mode, terms", [
    ("affine", [((3, 0), (1,)), ((1, 0), (2,)), ((0, 0), (3,)),
                ((0, 2), (6,))]),
    ("projective", [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]),
    ("toric", [((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,))]),
])
def test_cofactor_allowed_by_lacking_variables(mode, terms):
    # lacking_variables(m) are the variables x_i, i >= 1, of exponent below
    # 1 (none in toric mode), and echelon_of_degree lets m multiply
    # generator gen when they are none or gen alone: when every variable
    # but x_gen divides m
    R = ring()
    lifted = lift_input(R, terms, mode)
    poly = hull(lifted.support)
    for d in range(4):
        for mu in lattice_points(poly, d):
            m = (d, mu)
            lacking = jacobian.lacking_variables(mode, lifted.degree, m)
            assert lacking == tuple(
                i for i in range(1, lifted.n_vars + 1)
                if mode != "toric" and lifted.var_exponent(i, m) < 1), m
            for gen in lifted.generator_indices:
                want = mode == "toric" or all(
                    lifted.var_exponent(i, m) >= 1
                    for i in range(1, lifted.n_vars + 1) if i != gen)
                assert (lacking in ((), (gen,))) == want, (m, gen)


@pytest.mark.parametrize("mode, terms", [
    ("affine", [((3, 0), (1,)), ((1, 0), (2,)), ((0, 0), (3,)),
                ((0, 2), (6,))]),
    ("projective", [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]),
    ("toric", [((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,))]),
])
def test_support_plan_matches_reference(mode, terms):
    """The plan holds the rank, the hull, per degree 0..top, top = n_eff +
    2, the layer that lattice_points, var_exponent and cofactor_allowed
    give, and the heights of the top layer's columns over the facets; it is
    kept per (mode, exponents) whatever their order."""
    exps = [nu for nu, _ in terms]
    lifted = lift_input(ring(), terms, mode)
    poly = hull(lifted.support)
    plan = support_plan(mode, exps)
    assert plan.v == expected_rank(mode, exps)
    assert plan.poly == poly
    assert plan.top == lifted.n_eff + 2
    ref = reference_plan(lifted, poly, lifted.n_eff + 2)
    assert len(plan.layers) == len(ref.layers)
    for layer, want in zip(plan.layers, ref.layers):
        assert layer == want
    assert len(plan.top_heights) == len(ref.layers[-1].columns) > 0
    assert plan.top_heights == ref.top_heights
    assert support_plan(mode, exps[::-1]) is plan


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
    assert normalized_volume(poly.vertices) == 6
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
    """Dense reference for _row_reduce: the same pivot rule on dense rows,
    whose entries from ncols on are carried along.  Column j's pivot is the
    unused row with a unit entry there and the fewest nonzero entries, ties
    to the lowest index.  Reduces rows in place and returns the pivots."""
    nrows = len(rows)
    used = set()
    pivots = []
    for j in range(ncols - 1, -1, -1):
        free = [i for i in range(nrows)
                if i not in used and not ring.is_zero(rows[i][j])]
        if not free:
            continue
        units = [i for i in free if ring.is_unit(rows[i][j])]
        if not units:
            raise NondegeneracyFailure(
                f"degree {degree}, column {j}: no unit pivot")
        r = min(units, key=lambda i: (
            sum(not ring.is_zero(e) for e in rows[i]), i))
        inv = ring.inv(rows[r][j])
        rows[r] = [ring.mul(inv, e) for e in rows[r]]
        for i in range(nrows):
            c = rows[i][j]
            if i != r and not ring.is_zero(c):
                rows[i] = [ring.sub(a, ring.mul(c, b))
                           for a, b in zip(rows[i], rows[r])]
        used.add(r)
        pivots.append((r, j))
    return pivots


def test_echelon_identities():
    R = ring(7, 1, 4)
    for mode in ("toric", "affine"):
        # 4a^3 + 27b^2 = 59 is a unit mod 7, so the curve is nonsingular
        lifted, poly, (ech, basis) = build(R, elliptic_terms(7, 2, 1), mode)
        gens = len(lifted.generator_indices)
        for d, de in echelons(lifted, poly, ech.plan.top).items():
            nrows, ncols = len(de.row_meta), len(de.columns)
            J = [densify(R, row, ncols) for row in relation_rows(lifted, de)]
            assert len(de.M) == len(de.T) == nrows
            # sparse rows hold only nonzero entries, in range
            for rows, width in ((de.M, ncols), (de.T, nrows)):
                for row in rows:
                    assert all(0 <= k < width and not R.is_zero(c)
                               for k, c in row.items())
            # the raw rows hold only column keys and image keys, one per
            # (cofactor, slot) after the columns; M and T above are read
            # from them
            cofactors = de.cofactors
            for row in de.de.M:
                assert all(not R.is_zero(c) for c in row.values())
                assert all(0 <= k < ncols + (gens + 1) * len(cofactors)
                           for k in row)
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
            # alpha(r, mr) = sum_g beta_g * (-e_g(mr)) in every row
            for r, row in enumerate(de.de.M):
                for c, mr in enumerate(cofactors):
                    key = ncols + (gens + 1) * c
                    acc = R.zero
                    for s, g in enumerate(lifted.generator_indices, 1):
                        beta = row.get(key + s, R.zero)
                        acc = R.add(acc, R.smul(-lifted.var_exponent(g, mr),
                                                beta))
                    assert row.get(key, R.zero) == acc, (mode, d, r, mr)


def test_solve_splits_vector():
    R = ring(7, 1, 4)
    lifted, poly, (ech, basis) = build(R, elliptic_terms(7, 1, 3), "toric")
    rng = random.Random(4)
    by_degree = echelons(lifted, poly, ech.plan.top)
    for d in range(1, ech.plan.top + 1):
        de = by_degree[d]
        ncols = len(de.columns)
        J = [densify(R, row, ncols) for row in relation_rows(lifted, de)]
        dense_xi = {j: from_int(R, rng.randrange(R.modulus))
                    for j in range(ncols)}
        sparse_xi = {j: from_int(R, rng.randrange(1, R.modulus))
                     for j in rng.sample(range(ncols), min(3, ncols))}
        for xi in (dense_xi, sparse_xi):
            # xi is the first column; the second is random and sparse
            second = {j: from_int(R, rng.randrange(1, R.modulus))
                      for j in rng.sample(range(ncols), min(2, ncols))}
            cols = (xi, second)
            vec_xi = {j: [x.get(j, R.zero) for x in cols]
                      for j in set(xi) | set(second)}
            eta, v = solve(R, de, vec_xi)
            assert all(len(e) == 2 and not all(R.is_zero(c) for c in e)
                       for e in eta.values())
            assert all(len(e) == 2 and not all(R.is_zero(c) for c in e)
                       for e in v.values())
            # v is supported on the non-pivot columns
            assert not set(v) & set(de.pivot_rows)
            # xi = eta*J + v, coordinatewise
            for col, x in enumerate(cols):
                for j in range(ncols):
                    acc = v[j][col] if j in v else R.zero
                    for k, e in eta.items():
                        acc = R.add(acc, R.mul(e[col], J[k][j]))
                    assert acc == x.get(j, R.zero)
            if d == ech.plan.top:
                assert v == {}


def test_nonpivot_columns_independent_of_row_order():
    R = ring(7, 1, 4)
    lifted, poly, (ech, basis) = build(R, elliptic_terms(7, 3, 2), "toric")
    rng = random.Random(8)
    for d, de in echelons(lifted, poly, ech.plan.top).items():
        rows = relation_rows(lifted, de)
        rng.shuffle(rows)
        found = _row_reduce(R, rows, len(de.columns), d)
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
def test_sparse_row_reduce_matches_dense_reference(p, a, terms, mode,
                                                   monkeypatch):
    R = ring(p, a, 6)
    lifted, poly, (ech, basis) = build(R, terms, mode)
    # build_jacobian appends each degree's non-pivot columns in ascending
    # order and does not sort V
    assert basis.V == sorted(basis.V, key=term_order_key)
    given = []  # the rows of each degree as _row_reduce receives them

    def row_reduce(ring, rows, ncols, degree):
        given.append([dict(row) for row in rows])
        return _row_reduce(ring, rows, ncols, degree)

    monkeypatch.setattr(jacobian, "_row_reduce", row_reduce)
    for d, de in echelons(lifted, poly, ech.plan.top).items():
        assert de.columns == ech.plan.layers[d].columns, (mode, d)
        ncols = len(de.columns)
        # the rows handed over are J, each with its image block
        assert [{k: c for k, c in row.items() if k < ncols}
                for row in given[d]] == relation_rows(lifted, de), (mode, d)
        width = ncols + (len(lifted.generator_indices) + 1) * len(
            de.cofactors)
        rows = [densify(R, row, width) for row in given[d]]
        assert pivots(de) == dense_row_reduce(R, rows, ncols, d), (mode, d)
        assert [densify(R, row, width) for row in de.de.M] == rows, (mode, d)


def shuffled_row_reduce(seed):
    """_row_reduce on the relation rows in a shuffled order, which moves
    the ties of the pivot rule."""
    rng = random.Random(seed)

    def row_reduce(ring, rows, ncols, degree):
        rng.shuffle(rows)
        return _row_reduce(ring, rows, ncols, degree)
    return row_reduce


@pytest.mark.parametrize("prob", [
    Problem(p=7, a=1, hbar=(0, 1), n=2, mode="toric",
            terms=elliptic_terms(7, 2, 1)),
    # genus 2: y^2 = x^5 + 3x + 1
    Problem(p=7, a=1, hbar=(0, 1), n=2, mode="affine",
            terms=[((5, 0), (1,)), ((1, 0), (3,)), ((0, 0), (1,)),
                   ((0, 2), (6,))]),
    # the projective cubic x^3 + 2y^3 + z^3
    Problem(p=7, a=1, hbar=(0, 1), n=3, mode="projective",
            terms=[((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]),
    # y^2 = x^3 + x + t over F_25 = F_5[t]/(t^2 + 4t + 2)
    Problem(p=5, a=2, hbar=(2, 4, 1), n=2, mode="affine",
            terms=[((3, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
                   ((0, 2), (4, 0))]),
], ids=["toric", "affine", "projective", "affine-a2"])
def test_pivot_row_choice_changes_operators_not_matrix(prob, monkeypatch):
    """The coordinates on V of a class are unique, so other valid pivot
    rows (the first-unit rule, or this rule on shuffled rows) compile other
    operators that reduce the Frobenius images to the same coordinates."""
    def run():
        seen = {}

        def build(*args):
            out = build_jacobian(*args)
            seen["ops"] = out[0].ops
            return out

        def reduce(*args):
            seen["reduced"] = out = cone_reduce(*args)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "build_jacobian", build)
            mp.setattr(pipeline, "cone_reduce", reduce)
            matrix = compute_zeta(prob, emit_matrix=True).matrix
        return seen["ops"], seen["reduced"], matrix

    ops, reduced, matrix = run()
    for rule in (first_unit_row_reduce, shuffled_row_reduce(3)):
        with monkeypatch.context() as mp:
            mp.setattr(jacobian, "_row_reduce", rule)
            other_ops, other_reduced, other_matrix = run()
        assert other_ops != ops, rule
        assert other_reduced == reduced, rule
        assert other_matrix == matrix, rule
