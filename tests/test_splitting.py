"""Splitting-series tests against independent exact oracles.

The symbolic oracle expands exp(pi*z) * exp(-pi*z^p) directly in the ring
Q[pi]/(pi^(p-1) + p) with exact Fraction arithmetic and reads off the
coefficient of z^i, which must equal ell_i * pi^i.  The exact coefficients
of splitting_oracle.py (Fraction sums with factorials) then check the
recurrence that compute_splitting runs on truncated integers.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import factorial

import pytest

from splitting_oracle import ell_fraction, scaled_residue

from dworkzeta import splitting
from dworkzeta.errors import InternalPrecisionError
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


def test_prefix_bit_identical_and_thread_safe():
    short = compute_splitting(3, 5, 10)
    results = []

    def worker():
        results.append(compute_splitting(3, 5, 25))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(results) == 8
    for r in results:
        assert r == results[0]
        assert r[:10] == short


def test_last_series_is_kept():
    first = compute_splitting(7, 4, 50)
    assert compute_splitting(7, 4, 50) is first
    other = compute_splitting(7, 4, 51)
    assert other[:50] == first
    # the new arguments replaced the kept series: an equal tuple, computed
    # again
    again = compute_splitting(7, 4, 50)
    assert again == first and again is not first


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
