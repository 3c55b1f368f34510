"""Reduction tests: linearity, vanishing of the operator relations (the
strongest oracle), the elliptic vertical/constant relations, independence
of the divisor-choice policy, images reduced together against each
reduced alone, the mode restriction, and each column operator that
build_jacobian compiles against the echelon solve it replaces."""

from __future__ import annotations

import random

import pytest

from cone_helpers import add_term, apply_Di, cone_sum
from echelon_reference import echelons, solve
from ring_helpers import from_coords, from_int

from dworkzeta import gf, reduction
from dworkzeta.cone_algebra import ConeElement
from dworkzeta.errors import PrecisionOrLogicError
from dworkzeta.jacobian import (
    build_jacobian,
    compile_column,
    expected_rank,
    lift_input,
)
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull, lattice_points
from dworkzeta.reduction import reduce as cone_reduce


def ring(p, a, n):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def elliptic_fixture(p=7, aa=2, bb=1, mode="toric", N=4):
    terms = [((3, 0), (1,)), ((1, 0), (aa,)), ((0, 0), (bb,)), ((0, 2), (p - 1,))]
    return fixture(ring(p, 1, N), terms, mode)


def elliptic_f25_fixture(N=4):
    """y^2 = x^3 + x + t over F_25 = F_5[t]/(t^2 + 4t + 2), toric."""
    terms = [((3, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
             ((0, 2), (4, 0))]
    return fixture(ring(5, 2, N), terms, "toric")


def fixture(R, terms, mode):
    lifted = lift_input(R, terms, mode)
    poly = hull(lifted.support)
    ech, basis = build_jacobian(lifted, poly,
                                expected_rank(mode, [nu for nu, _ in terms]))
    return R, lifted, poly, ech, basis


def random_cone_element(rng, R, lifted, poly, gen_i, max_degree=3, k=4):
    """Sparse element with support allowed as a cofactor of generator gen_i."""
    out = ConeElement(R)
    for _ in range(k):
        d = rng.randrange(0, max_degree + 1)
        candidates = [(d, mu) for mu in lattice_points(poly, d)
                      if lifted.cofactor_allowed(gen_i, (d, mu))]
        if not candidates:
            continue
        m = rng.choice(candidates)
        add_term(out, m, from_int(R, rng.randrange(1, R.modulus)))
    return out


def test_basis_elements_reduce_to_themselves():
    R, lifted, poly, ech, basis = elliptic_fixture()
    for i, m in enumerate(basis.V):
        G = ConeElement(R, {m: from_int(R, 3)})
        coords = cone_reduce([G], ech, basis)[0]
        assert coords[i] == from_int(R, 3)
        assert all(R.is_zero(c) for j, c in enumerate(coords) if j != i)


def test_linearity_random():
    R, lifted, poly, ech, basis = elliptic_fixture()
    rng = random.Random(21)
    for _ in range(6):
        G1 = random_cone_element(rng, R, lifted, poly, 0, max_degree=4)
        G2 = random_cone_element(rng, R, lifted, poly, 0, max_degree=4)
        lhs = cone_reduce([cone_sum(R, G1, G2)], ech, basis)[0]
        r1 = cone_reduce([G1], ech, basis)[0]
        r2 = cone_reduce([G2], ech, basis)[0]
        assert lhs == [R.add(a, b) for a, b in zip(r1, r2)]


def test_operator_relations_vanish():
    rng = random.Random(22)
    for mode in ("toric", "affine"):
        R, lifted, poly, ech, basis = elliptic_fixture(mode=mode)
        for gi in lifted.generator_indices:
            for _ in range(4):
                xi = random_cone_element(rng, R, lifted, poly, gi)
                if not xi.terms:
                    continue
                coords = cone_reduce([apply_Di(lifted, gi, xi)], ech, basis)[0]
                assert all(R.is_zero(c) for c in coords), (mode, gi)


def test_operator_relations_vanish_projective():
    R = ring(7, 1, 4)
    terms = [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]
    lifted = lift_input(R, terms, "projective")
    poly = hull(lifted.support)
    ech, basis = build_jacobian(
        lifted, poly, expected_rank("projective", [nu for nu, _ in terms]))
    rng = random.Random(23)
    for gi in lifted.generator_indices:
        for _ in range(4):
            xi = random_cone_element(rng, R, lifted, poly, gi)
            if not xi.terms:
                continue
            coords = cone_reduce([apply_Di(lifted, gi, xi)], ech, basis)[0]
            assert all(R.is_zero(c) for c in coords), gi


def test_operator_relations_vanish_a2():
    # full-width coefficients, and cofactors above the top degree, so that
    # every layer of the sweep holds products with packed digits
    R, lifted, poly, ech, basis = elliptic_f25_fixture()
    rng = random.Random(27)
    for gi in lifted.generator_indices:
        for _ in range(3):
            xi = ConeElement(R)
            for _ in range(4):
                d = rng.randrange(0, ech.top + 2)
                coords = [rng.randrange(R.modulus) for _ in range(R.a)]
                add_term(xi, (d, rng.choice(lattice_points(poly, d))),
                         from_coords(R, coords))
            coords = cone_reduce([apply_Di(lifted, gi, xi)], ech, basis)[0]
            assert all(R.is_zero(c) for c in coords), gi


def test_elliptic_vertical_relation():
    # (pi w)^d x^u y^v is (v-2)/2 times (pi w)^(d-1) x^u y^(v-2) in the quotient.
    R, lifted, poly, ech, basis = elliptic_fixture(p=7, aa=1, bb=1)
    half = R.inv(from_int(R, 2))
    for d, u, v in [(2, 0, 3), (3, 1, 3), (3, 0, 5), (4, 2, 5)]:
        assert poly.contains((u, v), d) and poly.contains((u, v - 2), d - 1)
        lhs = cone_reduce([ConeElement(R, {(d, (u, v)): R.one})],
                          ech, basis)[0]
        rhs = cone_reduce([ConeElement(R, {(d - 1, (u, v - 2)): R.one})],
                          ech, basis)[0]
        factor = R.mul(from_int(R, v - 2), half)
        assert lhs == [R.mul(factor, c) for c in rhs], (d, u, v)


def test_fermat_like_constant_relation():
    # For f = a1 x^3 + a2 y^2 + b: (pi w)^d = -((d-1)/b) (pi w)^(d-1).
    R = ring(5, 1, 4)
    terms = [((3, 0), (2,)), ((0, 2), (1,)), ((0, 0), (3,))]
    lifted = lift_input(R, terms, "toric")
    poly = hull(lifted.support)
    ech, basis = build_jacobian(
        lifted, poly, expected_rank("toric", [nu for nu, _ in terms]))
    b = R.teichmuller_lift((3,))
    for d in (2, 3, 4):
        lhs = cone_reduce([ConeElement(R, {(d, (0, 0)): R.one})],
                          ech, basis)[0]
        rhs = cone_reduce([ConeElement(R, {(d - 1, (0, 0)): R.one})],
                          ech, basis)[0]
        factor = R.neg(R.mul(from_int(R, d - 1), R.inv(b)))
        assert lhs == [R.mul(factor, c) for c in rhs], d


def test_divisor_policy_independence(monkeypatch):
    R, lifted, poly, ech, basis = elliptic_fixture()

    calls = []

    def last_fit(candidates, lm, e):
        calls.append(lm)
        k = lm[0] - e.top
        chosen = None
        for m0 in candidates:
            diff = tuple(a - b for a, b in zip(lm[1], m0[1]))
            if e.poly.contains(diff, k):
                chosen = m0
        return chosen

    rng = random.Random(24)
    elements = [random_cone_element(rng, R, lifted, poly, 0, max_degree=6, k=5)
                for _ in range(6)]
    first = [cone_reduce([G], ech, basis)[0] for G in elements]
    monkeypatch.setattr(reduction, "_default_divisor_policy", last_fit)
    last = [cone_reduce([G], ech, basis)[0] for G in elements]
    assert calls  # the swapped-in policy chose the divisors
    assert first == last


def first_fit(candidates, lm, ech):
    """The first top-degree column m0 with lm - m0 in the cone, by
    LatticePolytope.contains: the rule _default_divisor_policy computes
    from facet heights."""
    k = lm[0] - ech.top
    for m0 in candidates:
        if ech.poly.contains(tuple(a - b for a, b in zip(lm[1], m0[1])), k):
            return m0
    return None


@pytest.mark.parametrize("make", [
    elliptic_fixture,
    lambda: elliptic_fixture(mode="affine"),
    lambda: fixture(ring(5, 1, 4), [((3, 0, 0), (1,)), ((0, 3, 0), (2,)),
                                    ((0, 0, 3), (1,))], "projective"),
], ids=["toric", "affine", "projective"])
def test_divisor_policy_is_first_fit(make):
    R, lifted, poly, ech, basis = make()
    candidates = ech.by_degree[ech.top].columns
    checked = 0
    for d in range(ech.top + 1, ech.top + 4):
        for mu in lattice_points(poly, d):
            lm = (d, mu)
            want = first_fit(candidates, lm, ech)
            assert reduction._default_divisor_policy(candidates, lm, ech) == want
            checked += want is not None
    assert checked


@pytest.mark.parametrize("make", [elliptic_fixture, elliptic_f25_fixture],
                         ids=["a1", "a2"])
def test_columns_together_match_columns_alone(make):
    R, lifted, poly, ech, basis = make()
    rng = random.Random(25)

    def random_element():
        # every coordinate of every coefficient random, so a > 1 packs digits
        out = ConeElement(R)
        for _ in range(6):
            d = rng.randrange(0, 7)
            candidates = [(d, mu) for mu in lattice_points(poly, d)]
            coords = [rng.randrange(R.modulus) for _ in range(R.a)]
            add_term(out, rng.choice(candidates), from_coords(R, coords))
        return out

    for _ in range(3):
        G1, G2 = random_element(), random_element()
        assert max(m[0] for m in G1.terms) > ech.top
        minus_G2 = ConeElement(R, {m: R.neg(c) for m, c in G2.terms.items()})
        images = [G1, G2, ConeElement(R), G1, minus_G2]
        together = cone_reduce(images, ech, basis)
        alone = [cone_reduce([G], ech, basis)[0] for G in images]
        assert together == alone
        assert together[2] == [R.zero] * basis.v
        assert together[4] == [R.neg(c) for c in together[1]]


def projective_cubic_fixture(N=4):
    terms = [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]
    return fixture(ring(7, 1, N), terms, "projective")


@pytest.mark.parametrize("make", [
    elliptic_fixture,
    lambda: elliptic_fixture(mode="affine"),
    projective_cubic_fixture,
    elliptic_f25_fixture,
], ids=["toric", "affine", "projective", "toric-a2"])
def test_compiled_operator_matches_solve_and_push(make):
    """The operator build_jacobian compiled for every column of every
    degree, applied to a random vector (with a random cofactor at the top
    degree), equals the echelon solve followed by one push per relation row,
    bit for bit."""
    R, lifted, poly, ech, basis = make()
    rng = random.Random(26)
    basis_index = {m: i for i, m in enumerate(basis.V)}
    width = 3

    def element():
        if rng.random() < 0.2:
            return R.zero
        return from_coords(R, [rng.randrange(R.modulus) for _ in range(R.a)])

    def nonzero(layer):
        return {m: vec for m, vec in layer.items() if any(vec)}

    for d, de in echelons(lifted, poly, ech.top).items():
        for j in range(len(de.columns)):
            vec = [element() for _ in range(width)]
            m = (0, ())
            if d == ech.top:
                k = rng.randrange(3)
                m = (k, rng.choice(lattice_points(poly, k)))
            # the compiled operator, its sums normalized
            below, out = {}, [[0] * basis.v for _ in range(width)]
            op = ech.by_degree[d].ops[j]
            e = reduction.cofactor_exponents(ech, m) if m[0] else ()
            reduction.apply_column(R, op, m, e, vec, below, out)
            below = {mono: [R.normalize(x) for x in v]
                     for mono, v in below.items()}
            out = [[R.normalize(x) for x in col] for col in out]
            # the reference: solve, then push each relation row on its own
            eta, v = solve(R, de, {j: vec})
            if d == ech.top:
                assert v == {}
            ref_out = [[R.zero] * basis.v for _ in range(width)]
            for kk, x in v.items():
                for col in range(width):
                    ref_out[col][basis_index[de.columns[kk]]] = x[col]
            ref_below = {}
            for i, er in eta.items():
                g, mr = de.row_meta[i]
                k, mu = m
                mono = (k + mr[0], tuple(a + b for a, b in zip(mu, mr[1])) if k
                        else mr[1])
                mult = lifted.var_exponent(g, mono)
                acc = ref_below.setdefault(mono, [R.zero] * width)
                for col in range(width):
                    acc[col] = R.sub(acc[col], R.smul(mult, er[col]))
            assert out == ref_out, (d, j)
            assert nonzero(below) == nonzero(ref_below), (d, j)


def test_top_degree_residual_raises_at_compile():
    R, lifted, poly, ech, basis = elliptic_fixture()
    top = echelons(lifted, poly, ech.top)[ech.top].de
    j, r = next(iter(top.pivot_rows.items()))
    other = next(k for k in range(len(top.columns)) if k != j)
    top.M[r] = {j: R.one, other: R.one}
    with pytest.raises(PrecisionOrLogicError):
        compile_column(lifted, top, j, {})


def test_mode_restriction_raises_at_and_below_top():
    # affine columns are divisible by xy; (d, (0, 0)) lies in d * Delta but
    # is not a column, below the top degree (degree 0 included) and at it
    R, lifted, poly, ech, basis = elliptic_fixture(mode="affine")
    for d in (0, 2, ech.top):
        m = (d, (0, 0))
        assert poly.contains(m[1], d)
        assert m not in ech.by_degree[d].col_index
        with pytest.raises(PrecisionOrLogicError):
            cone_reduce([ConeElement(R, {m: R.one})], ech, basis)
