"""Reduction tests: linearity, vanishing of the operator relations (the
strongest oracle), the elliptic vertical/constant relations, and independence
of the divisor-choice policy."""

from __future__ import annotations

import random

from cone_helpers import add_term, apply_Di, cone_sum

from dworkzeta import gf, reduction
from dworkzeta.cone_algebra import ConeElement
from dworkzeta.jacobian import build_jacobian, expected_rank, lift_input
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull_and_triangulate, lattice_points
from dworkzeta.reduction import reduce as cone_reduce


def ring(p, a, n):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def elliptic_fixture(p=7, aa=2, bb=1, mode="toric", N=4):
    R = ring(p, 1, N)
    terms = [((3, 0), (1,)), ((1, 0), (aa,)), ((0, 0), (bb,)), ((0, 2), (p - 1,))]
    lifted = lift_input(R, terms, mode)
    poly = hull_and_triangulate(lifted.support)
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
        add_term(out, m, R.from_int(rng.randrange(1, R.modulus)))
    return out


def test_basis_elements_reduce_to_themselves():
    R, lifted, poly, ech, basis = elliptic_fixture()
    for i, m in enumerate(basis.V):
        G = ConeElement(R, {m: R.from_int(3)})
        coords = cone_reduce(G, ech, basis)
        assert coords[i] == R.from_int(3)
        assert all(R.is_zero(c) for j, c in enumerate(coords) if j != i)


def test_linearity_random():
    R, lifted, poly, ech, basis = elliptic_fixture()
    rng = random.Random(21)
    for _ in range(6):
        G1 = random_cone_element(rng, R, lifted, poly, 0, max_degree=4)
        G2 = random_cone_element(rng, R, lifted, poly, 0, max_degree=4)
        lhs = cone_reduce(cone_sum(R, G1, G2), ech, basis)
        r1 = cone_reduce(G1, ech, basis)
        r2 = cone_reduce(G2, ech, basis)
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
                coords = cone_reduce(apply_Di(lifted, gi, xi), ech, basis)
                assert all(R.is_zero(c) for c in coords), (mode, gi)


def test_operator_relations_vanish_projective():
    R = ring(7, 1, 4)
    terms = [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]
    lifted = lift_input(R, terms, "projective")
    poly = hull_and_triangulate(lifted.support)
    ech, basis = build_jacobian(
        lifted, poly, expected_rank("projective", [nu for nu, _ in terms]))
    rng = random.Random(23)
    for gi in lifted.generator_indices:
        for _ in range(4):
            xi = random_cone_element(rng, R, lifted, poly, gi)
            if not xi.terms:
                continue
            coords = cone_reduce(apply_Di(lifted, gi, xi), ech, basis)
            assert all(R.is_zero(c) for c in coords), gi


def test_elliptic_vertical_relation():
    # (pi w)^d x^u y^v is (v-2)/2 times (pi w)^(d-1) x^u y^(v-2) in the quotient.
    R, lifted, poly, ech, basis = elliptic_fixture(p=7, aa=1, bb=1)
    half = R.inv(R.from_int(2))
    for d, u, v in [(2, 0, 3), (3, 1, 3), (3, 0, 5), (4, 2, 5)]:
        assert poly.contains((u, v), d) and poly.contains((u, v - 2), d - 1)
        lhs = cone_reduce(ConeElement(R, {(d, (u, v)): R.one}), ech, basis)
        rhs = cone_reduce(ConeElement(R, {(d - 1, (u, v - 2)): R.one}),
                          ech, basis)
        factor = R.mul(R.from_int(v - 2), half)
        assert lhs == [R.mul(factor, c) for c in rhs], (d, u, v)


def test_fermat_like_constant_relation():
    # For f = a1 x^3 + a2 y^2 + b: (pi w)^d = -((d-1)/b) (pi w)^(d-1).
    R = ring(5, 1, 4)
    terms = [((3, 0), (2,)), ((0, 2), (1,)), ((0, 0), (3,))]
    lifted = lift_input(R, terms, "toric")
    poly = hull_and_triangulate(lifted.support)
    ech, basis = build_jacobian(
        lifted, poly, expected_rank("toric", [nu for nu, _ in terms]))
    b = R.teichmuller_lift((3,))
    for d in (2, 3, 4):
        lhs = cone_reduce(ConeElement(R, {(d, (0, 0)): R.one}), ech, basis)
        rhs = cone_reduce(ConeElement(R, {(d - 1, (0, 0)): R.one}), ech, basis)
        factor = R.neg(R.mul(R.from_int(d - 1), R.inv(b)))
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
    first = [cone_reduce(G, ech, basis) for G in elements]
    monkeypatch.setattr(reduction, "_default_divisor_policy", last_fit)
    last = [cone_reduce(G, ech, basis) for G in elements]
    assert calls  # the swapped-in policy chose the divisors
    assert first == last
