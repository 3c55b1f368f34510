"""Frobenius-expansion tests: congruence solving, the elliptic double-sum
oracle evaluated independently with exact rationals, and agreement of the
fewnomial expansion with the test-side dense reference (dense_frobenius.py)
and, where the dense product is too slow, with the per-term reference
(fewnomial_reference.py)."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from operator import mul

import pytest

from cone_helpers import decoded, term_order_key
from dense_frobenius import expand_frobenius_dense
from fewnomial_reference import expand_frobenius_per_term
from splitting_oracle import ell_fraction

from dworkzeta import Problem, frobenius, gf, pipeline
from dworkzeta.cone_algebra import CODE_BITS, decode, encode
from dworkzeta.errors import PrecisionOrLogicError
from dworkzeta.frobenius import (
    expand_frobenius,
    power_table,
    solve_congruence,
    splitting_for,
    truncation_bound,
)
from dworkzeta.jacobian import lift_input
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.polytope import hull
from dworkzeta.splitting import compute_splitting, d_bound


def ring(p, a, n):
    hbar = (0, 1) if a == 1 else gf.conway_polynomial(p, a)
    return make_ring(FieldSpec(p=p, a=a, hbar=hbar, N_work=n))


def elliptic_terms(p, aa, bb):
    return [((3, 0), (1,)), ((1, 0), (aa,)), ((0, 0), (bb,)), ((0, 2), (p - 1,))]


def test_truncation_bound_values():
    # beta(3) = 6
    assert truncation_bound(3, 2, 4) == 6 * 4 + 3  # ceil(6*(4 + 3/6)) = 27
    assert Fraction(5 * 5 - 5, 5 * 5 - 15 + 1) == Fraction(20, 11)
    assert truncation_bound(5, 2, 4) == 8  # ceil(20/11 * (4 + 3/20))


def test_solve_congruence_basics():
    p = 5
    # Elliptic support matrix, columns ordered (1, x, x^3, y^2).
    U = [[1, 1, 1, 1], [3, 1, 0, 0], [0, 0, 2, 0]]
    target = [(-1) % p, (-1) % p, (-1) % p]
    K = solve_congruence(U, target, p)
    assert len(K) == p  # p^(s - rank of U mod p) = p^(4 - 3)
    for k in K:
        for row, t in zip(U, target):
            assert sum(c * e for c, e in zip(row, k)) % p == t
        assert k[2] == (p - 1) // 2  # forced y^2 index
    assert len(set(K)) == p

    # invertible square system: singleton solution
    K1 = solve_congruence([[1, 0], [0, 1]], [2, 3], 5)
    assert K1 == [(2, 3)]
    # inconsistent system: empty
    assert solve_congruence([[1, 1], [2, 2]], [0, 1], 5) == []


@pytest.mark.parametrize("p", [3, 5, 7])
def test_solve_congruence_vs_brute_force(p):
    # Seeded random systems of up to 3 rows in s <= 5 unknowns, some with a
    # last row that combines the rows before it (rank deficiency), whose
    # targets then may break it (inconsistency).  The rank of U mod p is
    # read off the brute-force kernel, of size p^(s - rank).
    rng = random.Random(p)
    seen_empty = seen_deficient = 0
    for _ in range(40):
        s, nrows = rng.randint(1, 5), rng.randint(1, 3)
        U = [[rng.randrange(-p, 2 * p) for _ in range(s)]
             for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.5:
            U[-1] = [rng.randrange(p) * x + y for x, y in zip(U[0], U[-2])]
        target = [rng.randrange(-p, 2 * p) for _ in range(nrows)]

        def scan(t):
            return [k for k in iproduct(range(p), repeat=s)
                    if all((sum(map(mul, row, k)) - c) % p == 0
                           for row, c in zip(U, t))]

        brute, kernel = scan(target), len(scan([0] * nrows))
        rank = s - next(r for r in range(s + 1) if p ** r == kernel)
        K = solve_congruence(U, target, p)
        assert set(K) == set(brute), (U, target)
        assert len(K) == (p ** (s - rank) if brute else 0)
        seen_empty += not brute
        seen_deficient += rank < nrows
    assert seen_empty and seen_deficient


def teich_int(c, p, modulus):
    x = c % modulus
    for _ in range(200):
        y = pow(x, p, modulus)
        if y == x:
            return x
        x = y
    raise AssertionError("no fixpoint")


def elliptic_alpha_oracle(p, aa, bb, N, max_degree):
    """Evaluate the elliptic double sum for alpha(wxy) directly: exact ell
    fractions, brute-force congruence solutions, integer Teichmueller lifts.

    Returns {(degree, (mx, my)): coefficient mod p^N}."""
    modulus = p ** N
    ahat = teich_int(aa, p, modulus)
    bhat = teich_int(bb, p, modulus)
    nus = [(3, 0), (1, 0), (0, 2), (0, 0)]  # x^3, x, y^2, 1 coefficient order
    coeffs = {}
    K = [k for k in iproduct(range(p), repeat=4)
         if (sum(k) + 1) % p == 0
         and (3 * k[0] + k[1] + 1) % p == 0
         and (2 * k[2] + 1) % p == 0]
    for k in K:
        bw = (sum(k) + 1) // p
        for e in iproduct(range(max_degree + 1), repeat=4):
            D = bw + sum(e)
            if D > max_degree:
                continue
            mono = (D, ((3 * k[0] + k[1] + 1) // p + 3 * e[0] + e[1],
                        (2 * k[2] + 1) // p + 2 * e[2]))
            ell = Fraction(1)
            for ki, ei in zip(k, e):
                ell *= ell_fraction(p, ki + p * ei)
            val = ell * (-p) ** D
            # sigma is trivial over F_p; coefficient powers a^(k2+e2) etc.
            num, den = val.numerator, val.denominator
            scalar = (num * pow(den, -1, modulus)) % modulus
            scalar = (scalar * pow(ahat, k[1] + e[1], modulus)
                      * pow(bhat, k[3] + e[3], modulus)
                      * pow(modulus - 1, k[2] + e[2], modulus)) % modulus
            coeffs[mono] = (coeffs.get(mono, 0) + scalar) % modulus
    return {m: c for m, c in coeffs.items() if c}


def expansion_setup(R, terms, mode):
    lifted = lift_input(R, terms, mode)
    poly = hull(lifted.support)
    tables = splitting_for(R, truncation_bound(R.p, lifted.n_eff, R.N))
    return lifted, poly, tables, power_table(lifted, poly)


def test_elliptic_alpha_wxy_against_paper_series():
    p, aa, bb, N = 5, 2, 1, 4
    R = ring(p, 1, N)
    lifted, poly, tables, powers = expansion_setup(
        R, elliptic_terms(p, aa, bb), "affine")
    alpha = expand_frobenius((1, (1, 1)), lifted, poly, tables, powers)
    oracle = elliptic_alpha_oracle(p, aa, bb, N, max_degree=3)
    got = {m: R.serialize(c)[0] for m, c in decoded(alpha, 2).items()
           if m[0] <= 3}
    checked = sorted(oracle, key=term_order_key)
    assert len(checked) >= 5
    for m in checked:
        assert got.get(m, 0) == oracle[m], m
    # and nothing extra at low degree
    assert set(got) == set(oracle)


def test_unit_monomial_constant_term_is_one():
    # alpha(1) has constant coefficient ell_0 = 1 (the unit block).
    p, N = 5, 4
    R = ring(p, 1, N)
    terms = [((1,), (1,)), ((0,), (2,))]  # x + 2 on G_m
    lifted, poly, tables, powers = expansion_setup(R, terms, "toric")
    alpha = expand_frobenius((0, (0,)), lifted, poly, tables, powers)
    assert decoded(alpha, 1)[(0, (0,))] == R.one


def test_cone_support_invariant():
    p, N = 7, 4
    R = ring(p, 1, N)
    lifted, poly, tables, powers = expansion_setup(
        R, elliptic_terms(p, 3, 2), "toric")
    alpha = expand_frobenius((1, (1, 1)), lifted, poly, tables, powers)
    assert alpha.terms
    for key, c in alpha.terms.items():
        # every key is the code of a cone monomial
        d, mu = m = decode(key, lifted.n_eff)
        assert encode(m) == key
        assert poly.contains(mu, d)
        assert not R.is_zero(c)


@pytest.mark.parametrize("omit, target, escapes", [
    # a polytope without the support point (3, 0): power_table refuses it,
    # since its entries with e = 1 there escape
    ((3, 0), (1, (1, 1)), "power-table entry"),
    ((3, 0), (0, (0, 0)), "power-table entry"),
    # a target outside the cone: the class point (1, (4, 0)) escapes
    (None, (1, (20, 0)), "class point"),
])
def test_cone_guard_raises(omit, target, escapes):
    p, N = 7, 4
    R = ring(p, 1, N)
    lifted, poly, tables, _ = expansion_setup(
        R, elliptic_terms(p, 3, 2), "toric")
    if omit is not None:
        poly = hull([nu for nu in lifted.support if nu != omit])
    with pytest.raises(PrecisionOrLogicError, match=escapes):
        expand_frobenius(target, lifted, poly, tables,
                         power_table(lifted, poly))


def test_code_bound_checked_once_per_expansion():
    """x^C + 2 on G_m at p = 5: the image of w has one class, at bw = 1, so
    its monomials have degree below 1 + E.  A vertex coordinate C whose
    product with 1 + E reaches 2^(CODE_BITS - 1) raises before any term is
    returned, where codes of that degree would spill into each other; just
    below, the expansion runs and every key decodes to its monomial."""
    p, N = 5, 3
    R = ring(p, 1, N)
    target = (1, (0,))
    E = truncation_bound(p, 1, N)
    half = 1 << (CODE_BITS - 1)
    far = -(-half // (1 + E))  # the least C with (1 + E) * C >= half
    for C in (far - 1, far):
        assert C % p  # so k = (p - 1, 0) is the one solution: bw = 1
        lifted, poly, tables, powers = expansion_setup(
            R, [((0,), (2,)), ((C,), (1,))], "toric")
        assert tables.E == E
        groups = frobenius.target_plan(lifted.support, p, N, E, target)
        assert {image[0] for image, _ in groups} == {1}
        if C == far:
            with pytest.raises(PrecisionOrLogicError, match="overflow"):
                expand_frobenius(target, lifted, poly, tables, powers)
            continue
        alpha = expand_frobenius(target, lifted, poly, tables, powers)
        assert alpha.terms
        for key in alpha.terms:
            d, mu = m = decode(key, 1)
            assert 1 <= d < 1 + E and encode(m) == key
            assert poly.contains(mu, d)


def test_fewnomial_equals_dense():
    cases = [
        (ring(5, 1, 4), elliptic_terms(5, 1, 2), "affine", (1, (1, 1))),
        (ring(5, 1, 4), elliptic_terms(5, 1, 2), "affine", (2, (1, 1))),
        (ring(7, 1, 3), [((1, 0), (1,)), ((0, 1), (1,)),
                         ((-1, -1), (1,)), ((0, 0), (3,))], "toric", (1, (0, 0))),
        (ring(5, 2, 3), [((2, 0), (1, 0)), ((0, 2), (0, 1)),
                         ((0, 0), (1, 1)), ((1, 1), (2, 0))], "affine", (1, (1, 1))),
    ]
    for R, terms, mode, target in cases:
        lifted, poly, tables, powers = expansion_setup(R, terms, mode)
        few = expand_frobenius(target, lifted, poly, tables, powers)
        dense = expand_frobenius_dense(target, lifted, poly, tables, powers)
        assert few.terms == dense.terms, (R.p, mode, target)


def test_projective_expansion_paths_agree():
    R = ring(7, 1, 3)
    terms = [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))]
    lifted, poly, tables, powers = expansion_setup(R, terms, "projective")
    target = (1, (1, 1))  # w * xyz with z implicit
    few = expand_frobenius(target, lifted, poly, tables, powers)
    dense = expand_frobenius_dense(target, lifted, poly, tables, powers)
    assert few.terms == dense.terms
    assert few.terms  # nonempty


def elliptic_problem(p, aa, bb, a=1, hbar=(0, 1)):
    one, minus_one = (1,) + (0,) * (a - 1), (p - 1,) + (0,) * (a - 1)
    return Problem(p=p, a=a, hbar=hbar, n=2, mode="affine",
                   terms=[((3, 0), one), ((1, 0), aa), ((0, 0), bb),
                          ((0, 2), minus_one)])


def reference_groups(target, lifted, series):
    """The groups of the solutions of one target, in order of appearance,
    each keyed by its image class and its residues' profiles: a group is
    the solutions of one class whose residues share their column profile
    (gain and step lists) in every slot."""
    p = lifted.ring.p
    E = len(series) // p

    def profile(c):
        return tuple((e - d_bound(p, c + p * e), e - series[c + p * e][0])
                     for e in range(E))

    profiles = [profile(c) for c in range(p)]
    U = frobenius._support_matrix(lifted.support)
    shift = (target[0],) + target[1]
    groups = {}
    for k in solve_congruence(U, [-t % p for t in shift], p):
        image = tuple((sum(map(mul, row, k)) + t) // p
                      for row, t in zip(U, shift))
        groups.setdefault((image, tuple(profiles[kj] for kj in k)),
                          []).append(k)
    return groups


@pytest.mark.parametrize("prob, grouping", [
    # p in the hundreds: about p solutions in 10 image classes per target
    (elliptic_problem(13, (2,), (6,)), None),
    (elliptic_problem(101, (1,), (1,)), None),
    (elliptic_problem(271, (1,), (1,)), None),
    # groups of 34 members
    (elliptic_problem(101, (3,), (7,)), "vectors"),
    # classes of two members, split into one-member groups by the
    # denominators of the series
    (elliptic_problem(7, (2,), (1,)), "split"),
    # a = 2, over F_25 = F_5[t]/(t^2 + 4t + 2)
    (elliptic_problem(5, (1, 1), (0, 1), a=2, hbar=(2, 4, 1)), None),
    # a = 2 with groups of up to 4 members, over F_289
    (elliptic_problem(17, (2, 1), (1, 1), a=2,
                      hbar=tuple(gf.conway_polynomial(17, 2))), "vectors"),
    # genus 2, y^2 = x^5 + 3x + 1
    (Problem(p=7, a=1, hbar=(0, 1), n=2, mode="affine",
             terms=[((5, 0), (1,)), ((1, 0), (3,)), ((0, 0), (1,)),
                    ((0, 2), (6,))]), None),
    # one solution per target: every class a singleton
    (Problem(p=7, a=1, hbar=(0, 1), n=3, mode="projective",
             terms=[((4, 0, 0), (1,)), ((0, 4, 0), (2,)),
                    ((0, 0, 4), (3,))]), None),
    (Problem(p=3, a=1, hbar=(0, 1), n=2, mode="toric",
             terms=[((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,)),
                    ((0, 0), (1,))], confine=True), None),
], ids=["elliptic-p13", "elliptic-p101", "elliptic-p271",
        "elliptic-p101-groups", "elliptic-p7-split", "elliptic-F25",
        "elliptic-F289-groups", "genus2-p7", "proj-quartic-p7",
        "torus-p3-confined"])
def test_class_expansion_equals_per_term_reference(monkeypatch, prob,
                                                   grouping):
    """Every basis monomial's image, in the pipeline's own setting, equals
    the per-term reference's, and its planned groups the reference
    groups."""
    sizes = []

    def checked(target, lifted, poly, tables, powers):
        got = expand_frobenius(target, lifted, poly, tables, powers)
        want = expand_frobenius_per_term(target, lifted, poly, tables, powers)
        assert got.terms == want.terms, target
        R = lifted.ring
        groups = reference_groups(
            target, lifted, compute_splitting(R.p, R.N, R.p * tables.E))
        assert frobenius.target_plan(
            lifted.support, lifted.ring.p, lifted.ring.N, tables.E,
            target) == tuple((image, tuple(zip(*ks)))
                             for (image, _), ks in groups.items())
        classes = Counter()
        for (image, _), ks in groups.items():
            classes[image] += len(ks)
        sizes.append((max(classes.values(), default=0),
                      max(map(len, groups.values()), default=0)))
        return got

    monkeypatch.setattr(pipeline, "expand_frobenius", checked)
    pipeline.compute_zeta(prob)
    assert sizes
    largest_class = max(c for c, _ in sizes)
    largest_group = max(g for _, g in sizes)
    if grouping == "vectors":
        assert largest_group >= 2, sizes
    elif grouping == "split":
        assert largest_class >= 2 and largest_group == 1, sizes
