"""Oracle tests: field-table sanity against polynomial arithmetic, counts
against independent naive loops, embedding consistency, and rational-function
reconstruction from counts."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from counts_oracle import UnderDetermined, zeta_from_counts

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
