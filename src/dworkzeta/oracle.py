"""Brute-force point counting.

Entirely independent of the cohomological pipeline: only finite-field
arithmetic (gf: polynomials and row reduction mod p) and numpy table
lookups are used.  F_{q^r} is realized as F_p[t]/(h) with h the
lexicographically smallest monic irreducible of degree a*r, elements are
encoded as base-p integer codes, and multiplication goes through discrete
exp/log tables built once per field.  The generator g is the element of
order Q - 1 with the smallest code, and its powers are read off one linear
recurring sequence, the lowest digit of g^k, extended by doubling: every
other digit of g^k is that sequence shifted, so no table of digits is kept.
The embedding of F_q is fixed by mapping its generator to the root of its
defining polynomial with the smallest code; the roots are searched among
the q - 1 nonzero elements of the subfield F_q only.

On the torus every value is a power of the generator g, so a sum is
evaluated on logs: adding g^L to g^S gives g^(L + zech[S - L]) with the
Zech logarithm zech[k] = log(1 + g^k), and a sum that vanishes becomes a
zero mark.  The field keeps zech padded so that this is one table lookup,
with no reduction mod Q - 1 and no test for zero.  The torus is evaluated
in lexicographic order of the exponents, a block of at most BLOCK_POINTS
points at a time: a few heads with every last exponent, or part of the
last exponents of one head when Q - 1 exceeds BLOCK_POINTS.  Affine space is the union of tori over the subsets
of zeroed coordinates, and P^(n-1) the union of the affine charts
x_0 = ... = x_(i-1) = 0, x_i = 1.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import product as iproduct
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gf
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ConsistencyFailure,
    InvalidInput,
)

Term = Tuple[Tuple[int, ...], int]  # (exponent vector, coefficient code)

# Points of the torus evaluated at once, at most: a block of exponent
# heads, each with every value of the last exponent, or one head with a
# run of them.
BLOCK_POINTS = 8192


class ExtensionField:
    """F_{p^d} with exp, log and Zech tables; elements are base-p integer
    codes.

    exp_codes[k] is the code of g^k for the generator g, the element of
    order Q - 1 with the smallest code, k < Q - 1 (see _exp_codes), and
    log its inverse, with log[0] = -1.  zech[k] = log(1 + g^k) for
    k < Q - 1, padded so that a sum of logs on the torus needs neither a
    reduction mod Q - 1 nor a test for zero (see _torus_zero_masks): the
    first 3(Q - 1) entries and the last 2(Q - 1) repeat it with period
    Q - 1, the entries in between are 0, and where 1 + g^k = 0 it holds
    zero_mark = 5(Q - 1).
    """

    def __init__(self, p: int, d: int):
        self.p = p
        self.d = d
        self.Q = p ** d
        self.h = gf.smallest_irreducible(p, d)
        self._build_tables()

    def _build_tables(self) -> None:
        p, Q = self.p, self.Q
        n = Q - 1
        codes = self._exp_codes(self._find_generator())
        # Every table entry and torus sum stays below 9(Q - 1), the length
        # of the padded zech, and the oracle's budget keeps Q <= 10^8, so
        # int32 holds them.
        dtype = np.int32
        self.exp_codes = codes
        log = np.full(Q, -1, dtype=dtype)
        log[codes] = np.arange(n, dtype=dtype)
        self.log = log
        # Adding 1 to an element steps the lowest base-p digit of its code,
        # a roll by one place within each row of the (Q/p) x p view of the
        # codes: zech[log c] = log of that stepped code.  1 + g^k = 0 where
        # g^k = -1, whose code is p - 1.
        zech = np.zeros(9 * n, dtype=dtype)
        base = zech[:n]
        base[log[1:]] = np.roll(log.reshape(-1, p), -1, axis=1).ravel()[1:]
        self.zero_mark = 5 * n
        base[log[p - 1]] = self.zero_mark
        for k in (1, 2, 7, 8):
            zech[k * n:(k + 1) * n] = base
        self.zech = zech

    def _exp_codes(self, g: gf.Poly) -> "np.ndarray":
        """Codes of g^0, ..., g^(Q - 2), int32, for a generator g.

        The digits s_k = digit_0(g^k) are a linear recurring sequence: with
        y^d - sum_i c_i y^i the minimal polynomial f_g of g, and
        y^L = sum_i e_i y^i mod f_g, s_(L+j) = sum_i e_i s_(i+j).  s is
        extended by doubling L, d numpy axpys a round.  Every digit j of
        g^k follows the same recurrence, and as g is a generator, every
        nonzero such sequence is s shifted: digit_j(g^k) = s_(k+c_j), where
        c_j is the place of the window digit_j(g^0), ..., digit_j(g^(d-1))
        among the d-windows of s.
        """
        p, d, n = self.p, self.d, self.Q - 1
        powers = [(1,)]
        for _ in range(d):
            powers.append(gf.mod(gf.mul(powers[-1], g, p), self.h, p))
        digits = [list(f) + [0] * (d - len(f)) for f in powers]
        rows = [[digits[i][r] for i in range(d + 1)] for r in range(d)]
        if len(gf.row_reduce(rows, d, p)) < d:
            raise ConsistencyFailure(
                f"the generator of F_{p}^{d} lies in a proper subfield")
        c = [row[d] for row in rows]
        f_g = tuple(-x % p for x in c) + (1,)
        # y^-1 = (y^(d-1) - sum_(i>=1) c_i y^(i-1)) / c_0 mod f_g
        inv = pow(c[0], -1, p)
        back = gf.powmod(tuple(-x * inv % p for x in c[1:]) + (inv,), d - 1,
                         f_g, p)
        # A step sums d products, each at most (p - 1)^2.  int8 holds that
        # sum for the small p of the large fields; the prime fields go to
        # int32, the type the torus loops already use, as int16 would gain
        # them nothing.
        wide = next(t for t in (np.int8, np.int32, np.int64)
                    if d * (p - 1) ** 2 <= np.iinfo(t).max)
        size = n + d - 1  # s_(n-1) starts the last window
        s = np.empty(size, dtype=wide)
        s[:d] = [digits[i][0] for i in range(d)]
        # e = y^L mod f_g gives s_(L+j) from s_j, ..., s_(j+d-1) for
        # j <= L - d, so a round extends s from L to 2L - d + 1 terms, and
        # y^(2L-d+1) = (y^L)^2 y^-(d-1).
        L, e = d, gf.trim(c)
        while L < size:
            k = min(L - d + 1, size - L)
            acc = np.zeros(k, dtype=wide)
            for i, ei in enumerate(e):
                if ei:
                    acc += ei * s[i:i + k]
            np.remainder(acc, p, out=s[L:L + k])
            L += k
            e = gf.mod(gf.mul(gf.mul(e, e, p), back, p), f_g, p)
        # the window code sum_i p^i s_(k+i), and codes = sum_j p^j s
        # rolled back by c_j, both in Horner form
        windows = s[d - 1:d - 1 + n].astype(np.int32)
        for i in range(d - 2, -1, -1):
            windows *= p
            windows += s[i:i + n]
        start = np.full(n + 1, -1, dtype=np.int32)
        start[windows] = np.arange(n, dtype=np.int32)
        if start[1:].min() < 0:
            raise ConsistencyFailure(
                f"the generator of F_{p}^{d} has order below {n}: some "
                "window of its digit sequence never occurs")
        codes = np.zeros(n, dtype=np.int32)
        for j in range(d - 1, -1, -1):
            c_j = int(start[sum(digits[i][j] * p ** i for i in range(d))])
            codes *= p
            codes[:n - c_j] += s[c_j:n]
            codes[n - c_j:] += s[:c_j]
        return codes

    def _find_generator(self) -> gf.Poly:
        """The element of order Q - 1 with the smallest code."""
        p, n = self.p, self.Q - 1
        factors = gf.factorize(n)
        if self.d == 1:
            for c in range(1, p):
                if all(pow(c, n // ell, p) != 1 for ell in factors):
                    return (c,)
        else:
            for code in range(1, self.Q):
                cand = gf.trim(self._decode(code))
                if gf.is_primitive(cand, self.h, p, factors):
                    return cand
        raise ConsistencyFailure("no multiplicative generator found")

    def _decode(self, code: int) -> List[int]:
        out = []
        for _ in range(self.d):
            out.append(code % self.p)
            code //= self.p
        return out

    def encode(self, coeffs: Sequence[int]) -> int:
        return sum((c % self.p) * self.p ** i for i, c in enumerate(coeffs))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return int(self.exp_codes[(self.log[x] + self.log[y]) % (self.Q - 1)])

    def add(self, x: int, y: int) -> int:
        out, place = 0, 1
        for _ in range(self.d):
            out += ((x + y) % self.p) * place
            x //= self.p
            y //= self.p
            place *= self.p
        return out


# Fields kept, least recently used first out; one pass of the small-p
# benchmark uses 16.
FIELD_CACHE_CAPACITY = 32
_field_cache: "OrderedDict[Tuple[int, int], ExtensionField]" = OrderedDict()
_field_cache_lock = threading.Lock()


def get_field(p: int, d: int) -> ExtensionField:
    """The shared F_{p^d}; built once per (p, d) while it stays among the
    FIELD_CACHE_CAPACITY most recently used, also under concurrent calls."""
    key = (p, d)
    with _field_cache_lock:
        field = _field_cache.get(key)
        if field is None:
            field = _field_cache[key] = ExtensionField(p, d)
            while len(_field_cache) > FIELD_CACHE_CAPACITY:
                _field_cache.popitem(last=False)
        else:
            _field_cache.move_to_end(key)
        return field


def embed_coefficients(field: ExtensionField, p: int, a: int,
                       hbar: Sequence[int],
                       coeff_vectors: List[Sequence[int]]) -> List[int]:
    """Map F_q elements (F_p-vectors on the F_q generator t) into the field.

    For a > 1, t goes to the root of hbar with the smallest code.  The roots
    lie in the subfield F_q, whose nonzero elements are g^(j(Q-1)/(q-1)) for
    the generator g and j < q - 1, so only those q - 1 elements are tried.
    """
    if a == 1:
        return [field.encode([vec[0] if vec else 0]) for vec in coeff_vectors]

    def evaluate(vec: Sequence[int], x: int) -> int:
        acc = 0
        for c in reversed(vec):
            acc = field.add(field.mul(acc, x), field.encode([c]))
        return acc

    step, rest = divmod(field.Q - 1, p ** a - 1)
    roots = [] if rest else [x for x in map(int, field.exp_codes[::step])
                             if evaluate(hbar, x) == 0]
    if not roots:
        raise ConsistencyFailure(
            "the defining polynomial of F_q has no root in the extension; "
            "the extension degree is not a multiple of a")
    tau = min(roots)
    return [evaluate(vec, tau) for vec in coeff_vectors]


def _torus_zero_masks(field: ExtensionField, polys: Sequence[Sequence[Term]],
                      m: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Common zeros of Laurent polynomials on the m-torus (F^x)^m, m >= 1.

    Each polynomial is a sequence of (exponent vector, coefficient code)
    terms; one with no nonzero coefficient vanishes everywhere.  A torus
    point is (g^e_1, ..., g^e_m) for the generator g, and the points are
    taken in lexicographic order of (e_1, ..., e_m), a block of at most
    BLOCK_POINTS points at a time: up to BLOCK_POINTS // (Q - 1)
    consecutive heads, values of e_(m-1) after one prefix (e_1, ...,
    e_(m-2)), with every e_m; or, when Q - 1 exceeds BLOCK_POINTS, one
    head (the empty one at m = 1) with up to BLOCK_POINTS consecutive
    values of e_m.  Yields, per block, the position in that order of its
    first point and the boolean mask, one row per head and one column per
    e_m, of the points where every polynomial vanishes.

    Term c x^nu has the value g^L, L = log c + nu.e.  Over a block, L is a
    scalar for the block plus nu_(m-1) r + nu_m e_m for the head's row r,
    each reduced mod n = Q - 1, so L < 2n.  A partial sum is kept as a log
    S < 3n, or as a zero mark of at least 5n: adding g^L makes it
    L + zech[S - L], a negative index reading the table from its end.  The
    padding of field.zech covers every S - L that occurs: from a zero mark
    the index lands on its zeros and gives L, and 1 + g^k = 0 gives a zero
    mark.
    """
    n = field.Q - 1
    zech, zero_mark = field.zech, field.zero_mark
    heads = n if m > 1 else 1  # values of e_(m-1); the one empty head at m = 1
    rows = min(heads, max(1, BLOCK_POINTS // n))
    cols = min(n, BLOCK_POINTS)  # below n only when a block is one row
    row = np.arange(rows, dtype=np.int64)[:, None]
    e_last = np.arange(n, dtype=np.int64)
    live = []
    for terms in polys:
        # per term: its prefix exponents, nu_(m-1), log c and the block
        # part of L, rows by e_m
        block = []
        for nu, c in terms:
            if c != 0:
                step = nu[-2] if m > 1 else 0
                part = (step % n * row + nu[-1] % n * e_last) % n
                block.append((nu[:m - 2], step, int(field.log[c]),
                              part.astype(zech.dtype)))
        if block:
            live.append(block)
    for i, prefix in enumerate(iproduct(range(n), repeat=max(m - 2, 0))):
        for r0 in range(0, heads, rows):
            k = min(rows, heads - r0)
            for c0 in range(0, n, cols):
                mask = np.ones((k, min(cols, n - c0)), dtype=bool)
                for terms in live:
                    acc = None
                    for pre, step, log_c, part in terms:
                        L = part[:k, c0:c0 + cols] + (
                            log_c + sum(map(mul, pre, prefix)) + step * r0) % n
                        acc = L if acc is None else L + zech.take(acc - L)
                    mask &= acc >= zero_mark
                yield (i * heads + r0) * n + c0, mask


def torus_common_zero(field: ExtensionField, polys: Sequence[Sequence[Term]],
                      m: int) -> Optional[Tuple[int, ...]]:
    """Codes of the first torus point (lexicographic in the exponents of the
    generator) where every polynomial of polys vanishes, or None."""
    for start, mask in _torus_zero_masks(field, polys, m):
        hits = np.flatnonzero(mask)
        if hits.size:
            # the base-(Q - 1) digits of the hit's position are its exponents
            position, point = start + int(hits[0]), []
            for _ in range(m):
                position, e = divmod(position, field.Q - 1)
                point.append(int(field.exp_codes[e]))
            return tuple(reversed(point))
    return None


def _toric_zero_count(field: ExtensionField, exps: List[Tuple[int, ...]],
                      coeff_codes: List[int], m: int) -> int:
    """Zeros of sum a_nu x^nu over the m-torus (F^x)^m (Laurent exponents ok)."""
    terms = [(nu, c) for nu, c in zip(exps, coeff_codes) if c != 0]
    if not terms:
        return (field.Q - 1) ** m  # identically zero
    if m == 0:
        acc = 0
        for _, c in terms:
            acc = field.add(acc, c)
        return 1 if acc == 0 else 0
    return sum(int(np.count_nonzero(mask))
               for _, mask in _torus_zero_masks(field, [terms], m))


def _affine_zero_count(field: ExtensionField, exps: List[Tuple[int, ...]],
                       coeff_codes: List[int], n: int) -> int:
    """Zeros over F^n by summing torus strata over subsets of zeroed coords."""
    total = 0
    for zero_mask in iproduct((False, True), repeat=n):
        live = [i for i in range(n) if not zero_mask[i]]
        sub_exps, sub_coeffs = [], []
        for nu, c in zip(exps, coeff_codes):
            if any(nu[i] != 0 for i in range(n) if zero_mask[i]):
                continue  # vanishes on this stratum
            sub_exps.append(tuple(nu[i] for i in live))
            sub_coeffs.append(c)
        total += _toric_zero_count(field, sub_exps, sub_coeffs, len(live))
    return total


def count_points(p: int, a: int, hbar: Sequence[int],
                 terms: List[Tuple[Tuple[int, ...], Sequence[int]]],
                 mode: str, r: int) -> int:
    """#V(F_{q^r}) by exhaustive enumeration, within DEFAULT_BUDGET points."""
    if not terms:
        raise InvalidInput("the zero polynomial does not define a hypersurface")
    n = len(terms[0][0])
    q = p ** a
    if q ** (r * n) > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"enumeration over q^(r*n) = {q}^{r * n} points exceeds the "
            f"budget of {DEFAULT_BUDGET}")
    field = get_field(p, a * r)
    exps = [tuple(nu) for nu, _ in terms]
    codes = embed_coefficients(field, p, a, hbar, [vec for _, vec in terms])
    if mode == "toric":
        return _toric_zero_count(field, exps, codes, n)
    if mode == "affine":
        if any(e < 0 for nu in exps for e in nu):
            raise InvalidInput("affine mode requires nonnegative exponents")
        return _affine_zero_count(field, exps, codes, n)
    if mode == "projective":
        degs = {sum(nu) for nu in exps}
        if len(degs) != 1 or min(d for d in degs) < 1:
            raise InvalidInput("projective mode requires a homogeneous "
                               "polynomial of positive degree")
        # P^(n-1) is the disjoint union of the charts x_0 = ... = x_(i-1)
        # = 0, x_i = 1, each an affine space in x_(i+1), ..., x_(n-1).
        total = 0
        for i in range(n):
            chart = [(nu[i + 1:], c) for nu, c in zip(exps, codes)
                     if not any(nu[:i])]
            total += _affine_zero_count(field, [nu for nu, _ in chart],
                                        [c for _, c in chart], n - 1 - i)
        return total
    raise InvalidInput(f"unknown mode {mode!r}")
