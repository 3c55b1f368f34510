"""Reduction tests: linearity, vanishing of the operator relations (the
strongest oracle), the elliptic vertical/constant relations, independence
of the divisor-choice policy, images reduced together against each
reduced alone, the mode restriction, each column operator that
build_jacobian compiles against the echelon solve it replaces, and the
coded sweep against the tuple-keyed one (reduction_reference)."""

from __future__ import annotations

import random
from operator import add

import pytest

import reduction_reference
from cone_helpers import add_term, apply_Di, coded, cone_sum
from echelon_reference import cofactor_allowed, echelons, solve
from ring_helpers import from_coords, from_int

from dworkzeta import gf, reduction
from dworkzeta.cone_algebra import ConeElement, decode, encode
from dworkzeta.errors import PrecisionOrLogicError
from dworkzeta.jacobian import (
    build_jacobian,
    compile_column,
    lift_input,
    support_plan,
)
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull, lattice_points


def ring(p, a, n):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def cone_reduce(images, ech, basis):
    """reduction.reduce of images built here, keyed by (d, mu) tuples."""
    return reduction.reduce([coded(G) for G in images], ech, basis)


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
    ech, basis = build_jacobian(lifted,
                                support_plan(mode, [nu for nu, _ in terms]))
    return R, lifted, poly, ech, basis


def random_cone_element(rng, R, lifted, poly, gen_i, max_degree=3, k=4):
    """Sparse element with support allowed as a cofactor of generator gen_i."""
    out = ConeElement(R)
    for _ in range(k):
        d = rng.randrange(0, max_degree + 1)
        candidates = [(d, mu) for mu in lattice_points(poly, d)
                      if cofactor_allowed(lifted, gen_i, (d, mu))]
        if not candidates:
            continue
        m = rng.choice(candidates)
        add_term(out, m, from_int(R, rng.randrange(1, R.modulus)))
    return out


def pack(R, vec):
    """The packed vector of the elements vec, entry i in slot i (reduction
    module docstring)."""
    bits = reduction.slot_bits(R)
    return sum(x << bits * i for i, x in enumerate(vec))


def unpack(R, x, width):
    """The width slots of the packed vector x, each normalized."""
    bits = reduction.slot_bits(R)
    return [R.normalize(x >> bits * i & (1 << bits) - 1)
            for i in range(width)]


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
        lifted, support_plan("projective", [nu for nu, _ in terms]))
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
                d = rng.randrange(0, ech.plan.top + 2)
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
        lifted, support_plan("toric", [nu for nu, _ in terms]))
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

    def last_fit(plan, lm):
        calls.append(lm)
        k = lm[0] - plan.top
        chosen = None
        for j, m0 in enumerate(plan.layers[plan.top].columns):
            diff = tuple(a - b for a, b in zip(lm[1], m0[1]))
            if plan.poly.contains(diff, k):
                chosen = j
        return chosen

    rng = random.Random(24)
    elements = [random_cone_element(rng, R, lifted, poly, 0, max_degree=6, k=5)
                for _ in range(6)]
    first = [cone_reduce([G], ech, basis)[0] for G in elements]
    monkeypatch.setattr(reduction, "_default_divisor_policy", last_fit)
    last = [cone_reduce([G], ech, basis)[0] for G in elements]
    assert calls  # the swapped-in policy chose the divisors
    assert first == last


def first_fit(plan, lm):
    """The position of the first top-degree column m0 with lm - m0 in the
    cone, by LatticePolytope.contains: the rule _default_divisor_policy
    computes from facet heights."""
    k = lm[0] - plan.top
    for j, m0 in enumerate(plan.layers[plan.top].columns):
        if plan.poly.contains(tuple(a - b for a, b in zip(lm[1], m0[1])), k):
            return j
    return None


@pytest.mark.parametrize("make", [
    elliptic_fixture,
    lambda: elliptic_fixture(mode="affine"),
    lambda: fixture(ring(5, 1, 4), [((3, 0, 0), (1,)), ((0, 3, 0), (2,)),
                                    ((0, 0, 3), (1,))], "projective"),
], ids=["toric", "affine", "projective"])
def test_divisor_policy_is_first_fit(make):
    R, lifted, poly, ech, basis = make()
    plan = ech.plan
    checked = 0
    for d in range(plan.top + 1, plan.top + 4):
        for mu in lattice_points(poly, d):
            lm = (d, mu)
            want = first_fit(plan, lm)
            assert reduction._default_divisor_policy(plan, lm) == want
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
        assert max(m[0] for m in G1.terms) > ech.plan.top
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
    width, n = 3, lifted.n_eff

    def element():
        if rng.random() < 0.2:
            return R.zero
        return from_coords(R, [rng.randrange(R.modulus) for _ in range(R.a)])

    def nonzero(layer):
        return {m: vec for m, vec in layer.items() if any(vec)}

    for d, de in echelons(lifted, poly, ech.plan.top).items():
        for j in range(len(de.columns)):
            vec = [element() for _ in range(width)]
            m = (0, (0,) * n)
            if d == ech.plan.top:
                k = rng.randrange(3)
                m = (k, rng.choice(lattice_points(poly, k)))
            # the compiled operator on m * (column j), its sums normalized
            below, out = {}, [0] * basis.v
            op = ech.ops[d][j]
            key = encode((m[0] + d, tuple(map(add, m[1], de.columns[j][1]))))
            e = ([-c % R.modulus for c in (m[0], *m[1])] if m[0] else None)
            reduction.apply_column(R, op, key, e, pack(R, vec), below, out)
            below = {decode(c, n): unpack(R, x, width)
                     for c, x in below.items()}
            out = [list(col) for col in zip(*(unpack(R, x, width) for x in out))]
            # the reference: solve, then push each relation row on its own
            eta, v = solve(R, de, {j: vec})
            if d == ech.plan.top:
                assert v == {}
            ref_out = [[R.zero] * basis.v for _ in range(width)]
            for kk, x in v.items():
                for col in range(width):
                    ref_out[col][basis_index[de.columns[kk]]] = x[col]
            ref_below = {}
            for i, er in eta.items():
                g, mr = de.row_meta[i]
                k, mu = m
                mono = (k + mr[0], tuple(a + b for a, b in zip(mu, mr[1])))
                mult = lifted.var_exponent(g, mono)
                acc = ref_below.setdefault(mono, [R.zero] * width)
                for col in range(width):
                    acc[col] = R.sub(acc[col], R.smul(mult, er[col]))
            assert out == ref_out, (d, j)
            assert nonzero(below) == nonzero(ref_below), (d, j)


def test_top_degree_residual_raises_at_compile():
    R, lifted, poly, ech, basis = elliptic_fixture()
    top = echelons(lifted, poly, ech.plan.top)[ech.plan.top].de
    j, r = next(iter(top.pivot_rows.items()))
    other = next(k for k in range(len(top.layer.columns)) if k != j)
    top.M[r] = {j: R.one, other: R.one}
    with pytest.raises(PrecisionOrLogicError):
        compile_column(lifted, top, j, {})


def test_mode_restriction_raises_at_and_below_top():
    # affine columns are divisible by xy; (d, (0, 0)) lies in d * Delta but
    # is not a column, below the top degree (degree 0 included) and at it
    R, lifted, poly, ech, basis = elliptic_fixture(mode="affine")
    for d in (0, 2, ech.plan.top):
        m = (d, (0, 0))
        assert poly.contains(m[1], d)
        assert m not in ech.plan.layers[d].columns
        with pytest.raises(PrecisionOrLogicError):
            cone_reduce([ConeElement(R, {m: R.one})], ech, basis)


def allowed_points(lifted, poly, d):
    """The monomials of degree d that the mode allows as columns: the
    support of a Frobenius image."""
    return [(d, mu) for mu in lattice_points(poly, d)
            if cofactor_allowed(lifted, 0, (d, mu))]


# x + y + 1/(xy) + 1 and 2x + 2t*y + 1/(xy) + t over F_9: negative toric
# coordinates; y^2 = x^3 + x + t over F_25; x^3 + 2y^3 + z^3 over F_25.
REFERENCE_FIXTURES = {
    "toric-a1": lambda: fixture(ring(3, 1, 4), [
        ((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,)), ((0, 0), (1,))],
        "toric"),
    "toric-a2": lambda: fixture(ring(3, 2, 4), [
        ((1, 0), (2, 0)), ((0, 1), (0, 2)), ((-1, -1), (1, 0)),
        ((0, 0), (0, 1))], "toric"),
    "affine-a1": lambda: elliptic_fixture(mode="affine"),
    "affine-a2": lambda: fixture(ring(5, 2, 4), [
        ((3, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 0), (0, 1)),
        ((0, 2), (4, 0))], "affine"),
    "projective-a1": projective_cubic_fixture,
    "projective-a2": lambda: fixture(ring(5, 2, 4), [
        ((3, 0, 0), (1, 0)), ((0, 3, 0), (2, 0)), ((0, 0, 3), (1, 0))],
        "projective"),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_FIXTURES))
def test_reduce_matches_tuple_reference(name):
    """The coded sweep equals the tuple-keyed sweep of reduction_reference
    bit for bit, on seeded random images of widths 1, 2, 5 and 9 with terms
    up to degree top + 6, zero and negated images among them."""
    R, lifted, poly, ech, basis = REFERENCE_FIXTURES[name]()
    ref = reduction_reference.reference_reduction(lifted, poly, ech.plan.top,
                                                  basis)
    rng = random.Random(28)
    points = {d: allowed_points(lifted, poly, d)
              for d in range(ech.plan.top + 7)}
    points = {d: ms for d, ms in points.items() if ms}
    if name.startswith("toric"):
        assert any(c < 0 for _, mu in points[ech.plan.top + 6] for c in mu)

    def random_image():
        out = ConeElement(R)
        for _ in range(rng.randrange(1, 9)):
            d = rng.choice(list(points))
            coords = [rng.randrange(R.modulus) for _ in range(R.a)]
            add_term(out, rng.choice(points[d]), from_coords(R, coords))
        return out

    for width in (1, 2, 5, 9):
        images = [random_image() for _ in range(width)]
        add_term(images[0], rng.choice(points[ech.plan.top + 6]), R.one)
        if width > 1:
            images[-1] = ConeElement(
                R, {m: R.neg(c) for m, c in images[0].terms.items()})
        if width > 2:
            images[1] = ConeElement(R)
        got = cone_reduce(images, ech, basis)
        assert got == reduction_reference.reduce(images, ref, basis), width
        if width > 1:
            assert got[-1] == [R.neg(c) for c in got[0]]
        if width > 2:
            assert got[1] == [R.zero] * basis.v


@pytest.mark.parametrize("name", sorted(REFERENCE_FIXTURES))
def test_coded_operators_match_tuple_operators(name):
    """Every compiled image entry is the tuple-keyed entry (mr, alpha,
    beta) read through the codes and the exponent forms: its offset added
    to the code of m * c_j is the code of m * mr, for random cofactors m,
    and gamma is beta read through the forms (empty when zero)."""
    R, lifted, poly, ech, basis = REFERENCE_FIXTURES[name]()
    ref = reduction_reference.reference_reduction(lifted, poly, ech.plan.top,
                                                  basis)
    rng = random.Random(29)
    forms = lifted.exponent_forms
    for d in range(ech.plan.top + 1):
        layer, tupled = ech.plan.layers[d], ref.by_degree[d]
        assert layer.columns == tupled.columns
        assert list(layer.column_codes) == [encode(m) for m in layer.columns]
        assert ech.index[d] == {c: j for j, c in enumerate(layer.column_codes)}
        for j, (c_j, (res, image), (ref_res, ref_image)) in enumerate(
                zip(layer.columns, ech.ops[d], tupled.ops)):
            assert res == ref_res, (d, j)
            assert len(image) == len(ref_image), (d, j)
            for (off, alpha, gamma), (mr, ref_alpha, beta) in zip(
                    image, ref_image):
                assert alpha == ref_alpha
                want = tuple(R.normalize(sum(b * f for b, f in zip(beta, form)))
                             for form in forms)
                assert gamma == (want if any(want) else ())
                for _ in range(2):
                    k = rng.randrange(3)
                    m = (k, rng.choice(lattice_points(poly, k)))
                    at = (k + d, tuple(map(add, m[1], c_j[1])))
                    to = (k + mr[0], tuple(map(add, m[1], mr[1])))
                    assert encode(at) + off == encode(to)

