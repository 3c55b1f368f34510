"""Splitting-series tests against independent exact oracles.

The symbolic oracle expands exp(pi*z) * exp(-pi*z^p) directly in the ring
Q[pi]/(pi^(p-1) + p) with exact Fraction arithmetic and reads off the
coefficient of z^i, which must equal ell_i * pi^i.  The exact coefficients
of splitting_oracle.py (Fraction sums with factorials) then check the
recurrence that compute_splitting runs on truncated integers.
"""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import factorial

import pytest

from splitting_oracle import ell_fraction, scaled_residue

from dworkzeta import frobenius, splitting
from dworkzeta.errors import InternalPrecisionError
from dworkzeta.padic import FieldSpec, make_ring
from dworkzeta.splitting import compute_splitting, d_bound


def pi_ring_mul(u, v, p):
    """Multiply in Q[pi]/(pi^(p-1) + p); elements are coefficient lists of length p-1."""
    m = p - 1
    out = [Fraction(0)] * (2 * m - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    for k in range(2 * m - 2, m - 1, -1):
        out[k - m] -= p * out[k]  # pi^m = -p
    return out[:m]


def theta_series_oracle(p, length):
    """Coefficients of exp(pi*z - pi*z^p) up to z^(length-1), in Q[pi]/(pi^(p-1)+p)."""
    m = p - 1
    zero = [Fraction(0)] * m
    series = [list(zero) for _ in range(length)]
    pi_pow = [Fraction(0)] * m
    pi_pow[0] = Fraction(1)  # pi^0
    # exp(pi*z): coefficient of z^k is pi^k / k!
    exp_a = [list(zero) for _ in range(length)]
    pi1 = list(zero)
    pi1[1] = Fraction(1)  # the element pi itself (p >= 3, so m >= 2)
    cur = list(pi_pow)
    for k in range(length):
        exp_a[k] = [c / factorial(k) for c in cur]
        cur = pi_ring_mul(cur, pi1, p)
    # exp(-pi*z^p): coefficient of z^(p*j) is (-1)^j pi^j / j!
    for i in range(length):
        acc = list(zero)
        for j in range(i // p + 1):
            k = i - p * j
            pij = pi_power(p, j)
            sign = Fraction(-1 if j % 2 else 1, factorial(j))
            term = [c * sign for c in pij]
            prod = pi_ring_mul(exp_a[k], term, p)
            acc = [a + b for a, b in zip(acc, prod)]
        series[i] = acc
    return series


def pi_power(p, i):
    """pi^i in Q[pi]/(pi^(p-1) + p) as a coefficient list."""
    m = p - 1
    out = [Fraction(0)] * m
    out[0] = Fraction(1)
    pi1 = [Fraction(0)] * m
    pi1[1] = Fraction(1)
    for _ in range(i):
        out = pi_ring_mul(out, pi1, p)
    return out


def test_known_small_values():
    assert ell_fraction(3, 0) == 1
    assert ell_fraction(3, 1) == 1
    assert ell_fraction(3, 2) == Fraction(1, 2)
    assert ell_fraction(3, 3) == Fraction(1, 6) + Fraction(1, 3)  # = 1/2
    assert ell_fraction(5, 5) == Fraction(1, 120) + Fraction(1, 5)
    assert ell_fraction(7, 7) == Fraction(1, factorial(7)) + Fraction(1, 7)


def test_series_matches_symbolic_exponential_product():
    for p in (3, 5):
        length = 14
        oracle = theta_series_oracle(p, length)
        for i in range(length):
            expected = [c * ell_fraction(p, i) for c in pi_power(p, i)]
            assert oracle[i] == expected, (p, i)


def test_denominator_bound():
    for p in (3, 5, 7):
        for i in range(0, 80):
            val = ell_fraction(p, i)
            den = val.denominator
            e = 0
            while den % p == 0:
                den //= p
                e += 1
            assert e <= d_bound(p, i), (p, i, e)
    # So an index below p carries no denominator, and the expansion's
    # cutoff needs no allowance for the support points still to come.
    for p in (3, 5, 7, 271):
        assert all(d_bound(p, k) == 0 for k in range(p)), p


def test_scaled_residues_match_exact_values():
    # Lengths past p^3 for p = 3 and 5 reach steps i with v_p(i) >= 2, where
    # the recurrence divides by p more than once; p = 101 is a large-p shape.
    # A length between p and 2p makes one division by p, whose digit loss the
    # working precision covers with no slack.
    for p, length in ((3, 100), (5, 150), (7, 110), (11, 130), (101, 707),
                      (3, 5), (5, 8), (11, 15)):
        exact = [ell_fraction(p, i) for i in range(length)]
        for N in (1, 4, 6, 12):
            got = compute_splitting(p, N, length)
            expected = [scaled_residue(x, p, N) for x in exact]
            assert list(got) == expected, (p, N)
            assert all(e <= d_bound(p, i) for i, (e, _) in enumerate(got))


def test_concurrent_callers_get_equal_tables():
    # Threads ask for two keys at once, so each fill races a replacement of
    # the one kept entry; every caller still gets the tables of its key.
    R = make_ring(FieldSpec(p=3, a=1, hbar=(0, 1), N_work=5))
    short = compute_splitting(3, 5, 10)
    fresh = {E: frobenius._series_tables.__wrapped__(3, 5, E) for E in (4, 9)}
    results = []

    def worker(E):
        results.append((E, frobenius.splitting_for(R, E)))

    threads = [threading.Thread(target=worker, args=(4 if i % 2 else 9,))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for E, tables in results:
        assert tables == fresh[E]
        # the column of residue i mod 3 holds ell_i at e_j = i // 3
        assert [tables.columns[i % 3][i // 3][1:3] for i in range(10)] == [
            (i // 3 - e, x) for i, (e, x) in enumerate(short)]


def test_last_tables_are_kept():
    R = make_ring(FieldSpec(p=7, a=1, hbar=(0, 1), N_work=4))
    first = frobenius.splitting_for(R, 7)
    assert frobenius.splitting_for(R, 7) is first
    # the key is (p, N_work, E): another ring with them shares the tables
    twin = make_ring(FieldSpec(p=7, a=1, hbar=(0, 1), N_work=4))
    assert frobenius.splitting_for(twin, 7) is first
    other = frobenius.splitting_for(R, 8)
    assert [col[:7] for col in other.columns] == list(first.columns)
    # the new key replaced the kept tables: equal ones, computed again
    again = frobenius.splitting_for(R, 7)
    assert again == first and again is not first
    # every residue's column is built, read off the series
    series = compute_splitting(7, 4, 49)
    for c in range(7):
        assert first.ells[c] == tuple(x for _, x in series[c::7])
        assert first.columns[c] == tuple(
            (ej - d_bound(7, c + 7 * ej), ej - e, x, ej)
            for ej, (e, x) in enumerate(series[c::7]))
        # residues share a profile id exactly when gains and steps agree
        for b in range(7):
            same = ([t[:2] for t in first.columns[b]]
                    == [t[:2] for t in first.columns[c]])
            assert (first.profiles[b] == first.profiles[c]) == same


@pytest.mark.parametrize("lowered", ["everywhere", "below_the_last_index"])
def test_denominator_bound_violation_raises(monkeypatch, lowered):
    # At p = 5, ell_25 has denominator exponent 2.  Lowering d_bound to 0
    # everywhere trips the divisibility check of the recurrence; lowering it
    # only below the last index keeps the ledger's D and trips the check on
    # each emitted coefficient.
    p, length = 5, 40
    true_bound = d_bound

    def low(q, i):
        if lowered == "below_the_last_index" and i == length - 1:
            return true_bound(q, i)
        return 0

    assert true_bound(p, length - 1) >= 1
    monkeypatch.setattr(splitting, "d_bound", low)
    with pytest.raises(InternalPrecisionError):
        compute_splitting(p, 4, length)
