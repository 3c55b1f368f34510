"""Oracle tests: field-table sanity against polynomial arithmetic, counts
against independent naive loops, embedding consistency, and rational-function
reconstruction from counts."""

from __future__ import annotations

import random
import sys
import threading
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from counts_oracle import UnderDetermined, zeta_from_counts
from field_reference import reference_tables

from dworkzeta import gf, oracle
from dworkzeta.errors import BudgetExceeded, ConsistencyFailure
from dworkzeta.oracle import ExtensionField, count_points, get_field


def test_field_tables_match_polynomial_arithmetic():
    rng = random.Random(41)
    for p, d in [(5, 1), (3, 2), (7, 2), (3, 4)]:
        F = get_field(p, d)
        assert sorted(F.exp_codes.tolist()) == list(range(1, F.Q))
        for _ in range(20):
            x = rng.randrange(F.Q)
            y = rng.randrange(F.Q)
            fx = F._decode(x)
            fy = F._decode(y)
            prod = gf.mod(gf.mul(gf.trim(fx), gf.trim(fy), p), F.h, p)
            assert F.mul(x, y) == F.encode(list(prod) + [0] * d)
            s = [(u + v) % p for u, v in zip(fx, fy)]
            assert F.add(x, y) == F.encode(s)


# F_65521 is built with int64 digits: its products reach (p - 1)^2 >= 2^31.
@pytest.mark.parametrize("p, d", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 4), (13, 1),
                                  (65521, 1)])
def test_zech_is_log_of_one_plus(p, d):
    # exp_codes[k] is g^k, each the previous one times g by polynomial
    # arithmetic, and log its inverse.  zech[k] = log(1 + g^k); 1 + g^k = 0
    # exactly at k = (Q - 1)/2, where the table holds the zero mark.  The
    # padding repeats the first Q - 1 entries three times at the start and
    # twice at the end, 0 between.
    F = get_field(p, d)
    n = F.Q - 1
    g = gf.trim(F._decode(int(F.exp_codes[1])))
    power = (1,)
    for k in range(n):
        assert F.exp_codes[k] == F.encode(power) and F.log[F.exp_codes[k]] == k
        power = gf.mod(gf.mul(power, g, p), F.h, p)
    assert power == (1,) and F.log[0] == -1
    for k in range(n):
        s = F.add(int(F.exp_codes[k]), 1)
        if k == n // 2:
            assert s == 0 and F.zech[k] == F.zero_mark
        else:
            assert s != 0 and F.zech[k] == F.log[s]
    base = F.zech[:n].tolist()
    assert len(F.zech) == 9 * n and F.zero_mark == 5 * n
    assert F.zech[:3 * n].tolist() == base * 3
    assert F.zech[7 * n:].tolist() == base * 2
    assert not F.zech[3 * n:7 * n].any()


# The shift-register sequence is extended in int8 at (3, 12), int32 at
# (5, 8), (7, 6) and (997, 2), and int64 at (46349, 1), where
# d (p - 1)^2 >= 2^31.
@pytest.mark.parametrize("p, d", [(3, 12), (5, 8), (7, 6), (997, 2),
                                  (46349, 1)])
def test_field_tables_equal_digit_table_reference(p, d):
    F = ExtensionField(p, d)
    codes, log, zech, zero_mark = reference_tables(p, d)
    for got, want in [(F.exp_codes, codes), (F.log, log), (F.zech, zech)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert F.zero_mark == zero_mark


SMALL_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]


def decode(code, p, d):
    return gf.trim((code // p ** i) % p for i in range(d))


@lru_cache(maxsize=None)
def element_orders(p, d):
    """{code: multiplicative order} over the nonzero elements of
    F_p[t]/(h), h = gf.smallest_irreducible(p, d), by repeated products."""
    h = gf.smallest_irreducible(p, d)
    orders = {}
    for code in range(1, p ** d):
        f = decode(code, p, d)
        power, k = f, 1
        while power != (1,):
            power, k = gf.mod(gf.mul(power, f, p), h, p), k + 1
        orders[code] = k
    return orders


@pytest.mark.parametrize("p, d", SMALL_FIELDS)
def test_generator_is_smallest_code_of_full_order(p, d):
    orders = element_orders(p, d)
    assert get_field(p, d).exp_codes[1] == min(
        code for code, k in orders.items() if k == p ** d - 1)


@pytest.mark.parametrize("p, d", SMALL_FIELDS)
def test_is_primitive_agrees_with_brute_force_order(p, d):
    h = gf.smallest_irreducible(p, d)
    factors = gf.factorize(p ** d - 1)
    for code, k in element_orders(p, d).items():
        assert gf.is_primitive(decode(code, p, d), h, p, factors) == (
            k == p ** d - 1), code
    for zero in [(), h, gf.mul(h, (1, 1), p)]:
        assert not gf.is_primitive(zero, h, p, factors)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_is_primitive_rejects_x_modulo_x(p):
    # x is 0 modulo x, and 0^((p - 1)/l) is never 1: without the test for a
    # multiple of the modulus, the Conway search at m = 1 would take x - 0.
    assert not gf.is_primitive((0, 1), (0, 1), p, gf.factorize(p - 1))
    root = -gf.conway_polynomial(p, 1)[0] % p
    assert element_orders(p, 1)[root] == p - 1


# 2 has order 3 in F_7; t has order 4 in F_9 = F_3[t]/(t^2 + 1), so only
# half of the nonzero windows occur in its digit sequence; 2 lies in the
# prime field of F_9, so its powers below the second are dependent.
@pytest.mark.parametrize("p, d, g", [(7, 1, (2,)), (3, 2, (0, 1)),
                                     (3, 2, (2,))])
def test_non_primitive_generator_raises_consistency_failure(monkeypatch,
                                                            p, d, g):
    monkeypatch.setattr(ExtensionField, "_find_generator", lambda self: g)
    with pytest.raises(ConsistencyFailure):
        ExtensionField(p, d)


def pointwise_value(F, terms, point, powers):
    """sum c x^nu at a torus point of codes, by F.mul and F.add alone;
    powers memoizes x^k."""
    acc = 0
    for nu, c in terms:
        for x, k in zip(point, nu):
            key = (x, k % (F.Q - 1))
            if key not in powers:
                y, e, base = 1, key[1], x
                while e:
                    if e & 1:
                        y = F.mul(y, base)
                    base, e = F.mul(base, base), e >> 1
                powers[key] = y
            c = F.mul(c, powers[key])
        acc = F.add(acc, c)
    return acc


@pytest.mark.parametrize("p, a, r, m", [
    (5, 1, 3, 1), (3, 2, 2, 1), (5, 1, 2, 2), (7, 2, 1, 2), (97, 1, 1, 2),
    (5, 1, 1, 3), (3, 2, 1, 3)])
def test_toric_count_matches_pointwise_loop(p, a, r, m):
    # Seeded random Laurent polynomials: a zero coefficient, negative
    # exponents, a pair of terms that cancels (so a partial sum is zero
    # everywhere) and partial sums that vanish at some points.  F_97 at
    # m = 2 has two blocks of heads, the second one short.
    rng = random.Random(f"{p}-{a}-{r}-{m}")
    hbar = gf.conway_polynomial(p, a) if a > 1 else (0, 1)
    F = get_field(p, a * r)

    def coeff():
        return tuple(rng.randrange(p) for _ in range(a))

    def exponent():
        return tuple(rng.randint(-3, 3) for _ in range(m))

    nu, c = exponent(), coeff()
    cancel = [(nu, c), (nu, tuple((-x) % p for x in c))]
    polys = [cancel,
             cancel + [(exponent(), coeff()) for _ in range(3)]
             + [(exponent(), (0,) * a)],
             [(exponent(), coeff()) for _ in range(4)]]
    torus = list(product(range(1, F.Q), repeat=m))
    for terms in polys:
        codes = oracle.embed_coefficients(F, p, a, hbar,
                                          [c for _, c in terms])
        coded = [(nu, c) for (nu, _), c in zip(terms, codes)]
        powers = {}
        naive = sum(pointwise_value(F, coded, x, powers) == 0 for x in torus)
        assert count_points(p, a, hbar, terms, "toric", r) == naive


@pytest.mark.parametrize("p, d, m, roots", [(7, 2, 3, (5, 9)),
                                             (3, 5, 2, (40, 100))])
def test_torus_common_zero_is_first_in_lexicographic_order(p, d, m, roots):
    # f vanishes only where x_1 = g^e, e in roots, so the first common zero
    # of f and h lies past the first block of heads: F_49 at m = 3 has one
    # block per e_1, F_243 at m = 2 one per 33 values of e_1.
    # h = x_m^2 - s x^(2 mu) with s a square has two zeros at every head.
    F = get_field(p, d)
    rng = random.Random(p)
    minus_one = F.encode([p - 1])
    f = {0: 1}  # f = prod (x_1 - g^e), as x_1 exponent -> coefficient code
    for e in roots:
        root = F.mul(int(F.exp_codes[e]), minus_one)
        prod = {}
        for k, c in f.items():
            prod[k + 1] = F.add(prod.get(k + 1, 0), c)
            prod[k] = F.add(prod.get(k, 0), F.mul(c, root))
        f = prod
    f = [((k,) + (0,) * (m - 1), c) for k, c in f.items()]
    mu = tuple(2 * rng.randint(-2, 2) for _ in range(m - 1))
    s = F.mul(int(F.exp_codes[2 * rng.randrange(F.Q // 2)]), minus_one)
    h = [((0,) * (m - 1) + (2,), 1), (mu + (0,), s)]
    powers = {}
    want = None
    for e in product(range(F.Q - 1), repeat=m):
        point = tuple(int(F.exp_codes[k]) for k in e)
        if all(pointwise_value(F, terms, point, powers) == 0
               for terms in (f, h)):
            want = point
            break
    assert want is not None and F.log[want[0]] == roots[0]
    assert oracle.torus_common_zero(F, [f, h], m) == want
    other = [((1,) + (0,) * (m - 1), 1),
             ((0,) * m, F.mul(int(F.exp_codes[roots[0] + 1]), minus_one))]
    assert oracle.torus_common_zero(F, [f, other, h], m) is None


@pytest.mark.parametrize("p, d", [(3, 2), (11, 1), (5, 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_blocks_hold_at_most_block_points(monkeypatch, p, d, m):
    # With BLOCK_POINTS = 7 below Q - 1, each block is one head with a run
    # of at most 7 values of the last exponent, the last run short (Q - 1
    # = 8, 10, 24).  The blocks tile the torus in order, and the counts,
    # masks and first common zeros equal those of the default blocks.
    F = get_field(p, d)
    rng = random.Random(f"blocks-{p}-{d}-{m}")
    point = tuple(int(F.exp_codes[rng.randrange(F.Q - 1)]) for _ in range(m))
    # f vanishes at point: random terms and the constant that cancels them
    f = [(tuple(rng.randint(-3, 3) for _ in range(m)), rng.randrange(1, F.Q))
         for _ in range(3)]
    value = pointwise_value(F, f, point, {})
    f.append(((0,) * m, F.mul(value, F.encode([p - 1]))))
    # h = x_1 - point_1: the common zeros of f and h lie on one slice
    h = [((1,) + (0,) * (m - 1), 1),
         ((0,) * m, F.mul(point[0], F.encode([p - 1])))]
    exps, codes = [nu for nu, _ in f], [c for _, c in f]

    def run():
        starts, masks = [], []
        for start, mask in oracle._torus_zero_masks(F, [f], m):
            starts.append(start)
            masks.append(mask.ravel())
        return (starts, masks, oracle._toric_zero_count(F, exps, codes, m),
                oracle.torus_common_zero(F, [f, h], m))

    _, default_masks, count, zero = run()
    assert count > 0 and zero is not None
    monkeypatch.setattr(oracle, "BLOCK_POINTS", 7)
    assert F.Q - 1 > oracle.BLOCK_POINTS
    starts, masks, got_count, got_zero = run()
    assert len(masks) > len(default_masks)
    assert all(mask.size <= oracle.BLOCK_POINTS for mask in masks)
    assert starts == list(np.cumsum([0] + [mask.size for mask in masks[:-1]]))
    assert np.array_equal(np.concatenate(masks),
                          np.concatenate(default_masks))
    assert (got_count, got_zero) == (count, zero)


def test_single_torus_point_counts():
    # x - 1 on G_m over F_5: one point per extension.
    terms = [((1,), (1,)), ((0,), (4,))]
    for r in range(1, 5):
        assert count_points(5, 1, (0, 1), terms, "toric", r) == 1


def test_affine_quadratic_counts():
    # x^2 - 3 over F_7: 3 is a non-residue, so 0/2/0/2 roots.
    terms = [((2,), (1,)), ((0,), (4,))]
    got = [count_points(7, 1, (0, 1), terms, "affine", r) for r in range(1, 5)]
    assert got == [0, 2, 0, 2]


def naive_elliptic_projective_count(p, aa, bb):
    """#E(F_p) for y^2 = x^3 + a x + b by a direct residue loop."""
    count = 1  # point at infinity
    squares = {}
    for y in range(p):
        squares[y * y % p] = squares.get(y * y % p, 0) + 1
    for x in range(p):
        rhs = (x ** 3 + aa * x + bb) % p
        count += squares.get(rhs, 0)
    return count


def test_elliptic_projective_count_matches_naive():
    for p, aa, bb in [(5, 2, 1), (7, 1, 3), (11, 4, 2), (13, 2, 6)]:
        assert (4 * aa ** 3 + 27 * bb ** 2) % p != 0
        # homogenized: y^2 z = x^3 + a x z^2 + b z^3
        terms = [((0, 2, 1), (p - 1,)), ((3, 0, 0), (1,)),
                 ((1, 0, 2), (aa,)), ((0, 0, 3), (bb,))]
        got = count_points(p, 1, (0, 1), terms, "projective", 1)
        assert got == naive_elliptic_projective_count(p, aa, bb)


def cone_count(p, a, hbar, terms, r):
    """#V(F_(q^r)) in P^(n-1) from the affine cone: its zeros but the
    origin, over Q - 1 (the reference for the count by charts)."""
    F = get_field(p, a * r)
    codes = oracle.embed_coefficients(F, p, a, hbar, [c for _, c in terms])
    cone = oracle._affine_zero_count(F, [nu for nu, _ in terms], codes,
                                     len(terms[0][0]))
    return (cone - 1) // (F.Q - 1)


@pytest.mark.parametrize("p, a, terms, r_max", [
    # y^2 z = x^3 + 2 x z^2 + z^3
    (5, 1, [((0, 2, 1), (4,)), ((3, 0, 0), (1,)), ((1, 0, 2), (2,)),
            ((0, 0, 3), (1,))], 3),
    (7, 1, [((4, 0, 0), (1,)), ((0, 4, 0), (2,)), ((0, 0, 4), (3,))], 2),
    # x y: two lines through (0:0:1)
    (3, 1, [((1, 1, 0), (1,))], 3),
    # x^3 + t y^3 + z^3 over F_9
    (3, 2, [((3, 0, 0), (1, 0)), ((0, 3, 0), (0, 1)), ((0, 0, 3), (1, 0))], 2),
    # the cubic surface x^3 + y^3 + z^3 + w^3
    (5, 1, [((3, 0, 0, 0), (1,)), ((0, 3, 0, 0), (1,)), ((0, 0, 3, 0), (1,)),
            ((0, 0, 0, 3), (1,))], 2),
], ids=["elliptic-p5", "quartic-p7", "two-lines-p3", "cubic-F9",
        "cubic-surface-p5"])
def test_projective_count_by_charts_matches_cone(p, a, terms, r_max):
    hbar = gf.conway_polynomial(p, a) if a > 1 else (0, 1)
    for r in range(1, r_max + 1):
        assert (count_points(p, a, hbar, terms, "projective", r)
                == cone_count(p, a, hbar, terms, r))


def test_laurent_toric_count_matches_naive():
    p = 7
    terms = [((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,)), ((0, 0), (3,))]
    got = count_points(p, 1, (0, 1), terms, "toric", 1)
    naive = 0
    for x in range(1, p):
        for y in range(1, p):
            inv = pow(x * y, p - 2, p)
            if (x + y + inv + 3) % p == 0:
                naive += 1
    assert got == naive


def test_embedding_extension_coefficients():
    # f = x - t over F_9 = F_3[t]/(conway): exactly one torus point in every
    # extension of even degree over F_3.
    p, a = 3, 2
    hbar = gf.conway_polynomial(p, a)
    terms = [((1,), (1, 0)), ((0,), tuple((-c) % p for c in hbar[:a]))]
    # constant is -t as an F_p-vector on the generator: -t = (0, -1)
    terms[1] = ((0,), (0, p - 1))
    for r in (1, 2, 3):
        assert count_points(p, a, hbar, terms, "toric", r) == 1


@pytest.mark.parametrize("p, a", [(3, 2), (5, 2), (3, 3)])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("choice", ["conway", "smallest"])
def test_embedding_is_a_field_map(p, a, r, choice):
    # The embedding of F_q = F_p[t]/(hbar) into F_(q^r) is additive and
    # multiplicative, and sends t to the root of hbar with the smallest code
    # among all elements of F_(q^r).
    hbar = (gf.conway_polynomial(p, a) if choice == "conway"
            else gf.smallest_irreducible(p, a))
    F = get_field(p, a * r)
    elements = [tuple((code // p ** i) % p for i in range(a))
                for code in range(p ** a)]
    image = dict(zip(elements, oracle.embed_coefficients(F, p, a, hbar,
                                                         elements)))
    for x in elements:
        for y in elements:
            s = tuple((u + v) % p for u, v in zip(x, y))
            xy = gf.mod(gf.mul(gf.trim(x), gf.trim(y), p), hbar, p)
            xy = tuple(xy) + (0,) * (a - len(xy))
            assert image[s] == F.add(image[x], image[y])
            assert image[xy] == F.mul(image[x], image[y])

    def hbar_at(z):
        acc = 0
        for c in reversed(hbar):
            acc = F.add(F.mul(acc, z), F.encode([c]))
        return acc

    t = (0, 1) + (0,) * (a - 2)
    assert image[t] == min(z for z in range(F.Q) if hbar_at(z) == 0)
    with pytest.raises(ConsistencyFailure):
        oracle.embed_coefficients(get_field(p, a * r + 1), p, a, hbar, [t])


def test_budget_guard():
    terms = [((1, 1), (1,)), ((0, 0), (1,))]
    with pytest.raises(BudgetExceeded):
        # 101^8 points exceed DEFAULT_BUDGET
        count_points(101, 1, (0, 1), terms, "toric", 4)


def test_zeta_from_counts_torus():
    q = 5
    counts = [q ** r - 1 for r in range(1, 5)]
    num, den = zeta_from_counts(counts, 1, 1)
    assert num == [1, -1] and den == [1, -q]


def test_zeta_from_counts_elliptic_and_errors():
    q, a_q = 7, -2
    # N_r = q^r + 1 - alpha^r - beta^r with alpha+beta = a_q, alpha*beta = q
    pw = [a_q, a_q * a_q - 2 * q]
    pw.append(a_q * pw[1] - q * pw[0])
    pw.append(a_q * pw[2] - q * pw[1])
    counts = [q ** r + 1 - pw[r - 1] for r in range(1, 5)]
    num, den = zeta_from_counts(counts, 2, 2)
    assert num == [1, -a_q, q]
    assert den == [1, -(1 + q), q]
    with pytest.raises(UnderDetermined):
        zeta_from_counts(counts[:3], 2, 2)
    bad = list(counts)
    bad[3] += 1
    with pytest.raises(ConsistencyFailure):
        zeta_from_counts(bad, 2, 2)


def test_affine_stratification_consistency():
    # Direct check on a 2-variable affine polynomial against a naive loop.
    p = 5
    terms = [((2, 1), (3,)), ((1, 0), (1,)), ((0, 0), (2,))]
    got = count_points(p, 1, (0, 1), terms, "affine", 2)
    F = ExtensionField(p, 2)
    naive = 0
    for x in range(F.Q):
        for y in range(F.Q):
            val = F.add(F.add(F.mul(F.encode([3]), F.mul(F.mul(x, x), y)),
                              x), F.encode([2]))
            if val == 0:
                naive += 1
    assert got == naive


def test_get_field_shared_across_threads():
    # Eight threads ask for the same fields at once: each (p, d) must be built
    # once and every caller must get that one shared object.
    keys = [(3, 3), (5, 2), (7, 2), (11, 2)]
    for key in keys:
        oracle._field_cache.pop(key, None)
    nthreads = 8
    barrier = threading.Barrier(nthreads)
    results = [[] for _ in range(nthreads)]

    def worker(i):
        barrier.wait(timeout=30)
        results[i] = [get_field(*key) for key in keys]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k, key in enumerate(keys):
        shared = oracle._field_cache[key]
        assert all(r[k] is shared for r in results), key


def test_field_cache_is_bounded_lru(monkeypatch):
    # With room for three fields, a stream of new fields never grows the
    # cache past three, and a key used between every two new ones stays in
    # and keeps returning the same object.
    monkeypatch.setattr(oracle, "FIELD_CACHE_CAPACITY", 3)
    monkeypatch.setattr(oracle, "_field_cache", type(oracle._field_cache)())
    hot = get_field(3, 2)
    built = {}
    for key in [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (3, 3)]:
        built[key] = get_field(*key)
        assert built[key] is oracle._field_cache[key]
        assert len(oracle._field_cache) <= 3
        assert get_field(3, 2) is hot
    assert list(oracle._field_cache) == [(11, 1), (3, 3), (3, 2)]
    # an evicted field is built again, as a new object
    again = get_field(3, 1)
    assert again is not built[(3, 1)] and again.Q == 3
    assert len(oracle._field_cache) == 3
