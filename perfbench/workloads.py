"""Seeded problem lists for the benchmark workloads.

Every workload is a fixed list of shapes (prime, field, mode, support); the
seed only draws the coefficients of the curves.  Each draw is screened for
nondegeneracy here, with closed-form discriminants, so the program is never
asked to solve a degenerate input and the cost of a pass hardly depends on
the seed.

A case is ``(label, Problem, r)``: ``r`` is how many extension degrees the
enumeration oracle checks for that problem.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from dworkzeta import Problem

# Largest q^(r*n) the oracle may enumerate for one small-p check.
POINT_BUDGET = 10 ** 6

# Monic defining polynomials (constant term first) of F_9 and F_25: the
# Conway polynomials x^2 + 2x + 2 and x^2 + 4x + 2.
HBAR = {(3, 2): (2, 2, 1), (5, 2): (2, 4, 1)}

CURVE_SWEEP_PRIMES = (13, 17, 19, 23, 29, 31)
CURVES_PER_PRIME = 2
LARGE_PRIMES = (101, 139, 181, 227, 271)

Case = Tuple[str, Problem, int]


class Fq:
    """F_q = F_p[t]/(hbar) on coordinate tuples in the basis 1, t, ..., t^(a-1)."""

    def __init__(self, p: int, a: int):
        self.p, self.a = p, a
        self.hbar = HBAR[(p, a)] if a > 1 else (0, 1)

    def elements(self) -> List[Tuple[int, ...]]:
        out = [()]
        for _ in range(self.a):
            out = [e + (c,) for e in out for c in range(self.p)]
        return out

    def nonzero(self) -> List[Tuple[int, ...]]:
        return [e for e in self.elements() if any(e)]

    def add(self, x, y):
        return tuple((u + v) % self.p for u, v in zip(x, y))

    def scale(self, c: int, x):
        return tuple((c * u) % self.p for u in x)

    def mul(self, x, y):
        prod = [0] * (2 * self.a - 1)
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                prod[i + j] += u * v
        # t^a = -(h_0 + ... + h_{a-1} t^(a-1)) for monic hbar
        for k in range(len(prod) - 1, self.a - 1, -1):
            c = prod[k]
            prod[k] = 0
            for i in range(self.a):
                prod[k - self.a + i] -= c * self.hbar[i]
        return tuple(c % self.p for c in prod[:self.a])

    def power(self, x, e: int):
        out = (1,) + (0,) * (self.a - 1)
        for _ in range(e):
            out = self.mul(out, x)
        return out


def oracle_depth(prob: Problem, budget: int = POINT_BUDGET) -> int:
    """Deepest r >= 1 with q^(r*n) <= budget."""
    q, r = prob.p ** prob.a, 1
    while q ** ((r + 1) * prob.n) <= budget:
        r += 1
    return r


def _draw(draw: Callable, ok: Callable, k: int = 1) -> list:
    """k distinct values of draw() that pass the screen ok."""
    chosen: list = []
    while len(chosen) < k:
        c = draw()
        if ok(c) and c not in chosen:
            chosen.append(c)
    return chosen


def _problem(p, a, n, mode, terms, confine=False) -> Problem:
    hbar = HBAR[(p, a)] if a > 1 else (0, 1)
    return Problem(p=p, a=a, hbar=hbar, n=n, mode=mode, terms=terms,
                   confine=confine)


def elliptic(rng: random.Random, p: int, a: int = 1, k: int = 1) -> List[Problem]:
    """y^2 = x^3 + Ax + B with A, B != 0 and 4A^3 + 27B^2 != 0."""
    F = Fq(p, a)
    nz = F.nonzero()

    def smooth(ab):
        A, B = ab
        return any(F.add(F.scale(4, F.power(A, 3)), F.scale(27, F.mul(B, B))))

    minus_one = (p - 1,) + (0,) * (a - 1)
    return [_problem(p, a, 2, "affine",
                     [((3, 0), (1,) + (0,) * (a - 1)), ((1, 0), A),
                      ((0, 0), B), ((0, 2), minus_one)])
            for A, B in _draw(lambda: (rng.choice(nz), rng.choice(nz)), smooth, k)]


def genus2(rng: random.Random, p: int) -> Problem:
    """y^2 = x^5 + Ax + B, screened by disc(x^5 + Ax + B) = 256A^5 + 3125B^4."""
    ((A, B),) = _draw(lambda: (rng.randrange(1, p), rng.randrange(1, p)),
                      lambda ab: (256 * ab[0] ** 5 + 3125 * ab[1] ** 4) % p)
    return _problem(p, 1, 2, "affine", [((5, 0), (1,)), ((1, 0), (A,)),
                                        ((0, 0), (B,)), ((0, 2), (p - 1,))])


def small_p(rng: random.Random) -> List[Case]:
    """Seeded curves plus fixed shapes from the ROADMAP baseline, the
    acceptance tests and the demos, whose cost would vary with drawn
    coefficients."""
    cases = [
        # ROADMAP baseline row 1, confined first
        ("torus-xy-p3", _problem(
            3, 1, 2, "toric",
            [((1, 0), (1,)), ((0, 1), (1,)), ((-1, -1), (1,)), ((0, 0), (1,))],
            confine=True)),
        ("genus2-p7", genus2(rng, 7)),
        ("elliptic-F25", elliptic(rng, 5, 2)[0]),
        ("elliptic-p5", elliptic(rng, 5)[0]),
        # x^2 + x + 2 in G_m over F_9, as in the acceptance tests
        ("toric-n1-F9", _problem(
            3, 2, 1, "toric", [((2,), (1, 0)), ((1,), (1, 0)), ((0,), (2, 0))])),
        # x^3 + 2y^3 + z^3, the projective demo's cubic, here at p = 5
        ("proj-cubic-p5", _problem(
            5, 1, 3, "projective",
            [((3, 0, 0), (1,)), ((0, 3, 0), (2,)), ((0, 0, 3), (1,))])),
        # x^4 + 2y^4 + 3z^4: v = 6 and N = 10
        ("proj-quartic-p7", _problem(
            7, 1, 3, "projective",
            [((4, 0, 0), (1,)), ((0, 4, 0), (2,)), ((0, 0, 4), (3,))])),
    ]
    return [(label, prob, oracle_depth(prob)) for label, prob in cases]


def curve_sweep(rng: random.Random) -> List[Case]:
    cases = []
    for p in CURVE_SWEEP_PRIMES:
        for prob in elliptic(rng, p, k=CURVES_PER_PRIME):
            cases.append((f"elliptic-p{p}", prob, 1))
    return cases


def large_p(rng: random.Random) -> List[Case]:
    """Two curves per prime: the first pays the cold splitting series."""
    return [(f"elliptic-p{p}", prob, 1) for p in LARGE_PRIMES
            for prob in elliptic(rng, p, k=2)]


WORKLOADS: Dict[str, Callable[[random.Random], List[Case]]] = {
    "small-p": small_p,
    "curve-sweep": curve_sweep,
    "large-p": large_p,
}


def generate(workload: str, seed: int) -> List[Case]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
