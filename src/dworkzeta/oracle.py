"""Brute-force point counting.

Entirely independent of the cohomological pipeline: only finite-field
polynomial arithmetic (gf) and numpy table lookups are used.  F_{q^r} is
realized as F_p[t]/(h) with h the lexicographically smallest monic
irreducible of degree a*r, elements are encoded as base-p integer codes,
and multiplication goes through discrete exp/log tables built once per
field.  The embedding of F_q is fixed by mapping its generator to the
root of its defining polynomial with the smallest code; the roots are
searched among the q - 1 nonzero elements of the subfield F_q only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import product as iproduct
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


class ExtensionField:
    """F_{p^d} with exp/log tables; elements are base-p integer codes."""

    def __init__(self, p: int, d: int):
        self.p = p
        self.d = d
        self.Q = p ** d
        self.h = gf.smallest_irreducible(p, d)
        self._build_tables()

    def _build_tables(self) -> None:
        p, d, Q = self.p, self.d, self.Q
        g = self._find_generator()
        # exp_digits[k] = digit vector of g^k; built by doubling blocks,
        # each extension being one vectorized multiply-by-g^m linear map.
        E = np.zeros((Q - 1, d), dtype=np.int64)
        E[0, 0] = 1
        m = 1
        while m < Q - 1:
            step = min(m, Q - 1 - m)
            c = gf.powmod(g, m, self.h, p)
            M = self._mul_matrix(c)
            E[m:m + step] = (E[:step] @ M.T) % p
            m += step
        self.exp_digits = E.astype(np.int16)
        place = np.array([p ** i for i in range(d)], dtype=np.int64)
        codes = E @ place
        self.exp_codes = codes
        log = np.full(Q, -1, dtype=np.int64)
        log[codes] = np.arange(Q - 1, dtype=np.int64)
        self.log = log

    def _mul_matrix(self, c: gf.Poly) -> "np.ndarray":
        """d x d matrix over F_p of multiplication by c (columns = c*t^j mod h)."""
        p, d = self.p, self.d
        M = np.zeros((d, d), dtype=np.int64)
        col = list(c)
        for j in range(d):
            for i, x in enumerate(col):
                M[i, j] = x % p
            col = list(gf.mod(gf.mul((0, 1), gf.trim(col), p), self.h, p))
        return M

    def _find_generator(self) -> gf.Poly:
        factors = gf.factorize(self.Q - 1)
        for code in range(1, self.Q):
            cand = gf.trim(self._decode(code))
            if gf.is_primitive(cand, self.h, self.p, factors):
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
                      m: int) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
    """Common zeros of Laurent polynomials on the m-torus (F^x)^m, m >= 1.

    Each polynomial is a sequence of (exponent vector, coefficient code)
    terms; one with no nonzero coefficient vanishes everywhere.  A torus
    point is (g^e_1, ..., g^e_m) for the generator g.  For each exponent
    head (e_1, ..., e_(m-1)), in lexicographic order, yields the head and
    the boolean mask over e_m of the points where every polynomial vanishes.
    """
    Q, p, d = field.Q, field.p, field.d
    e_last = np.arange(Q - 1, dtype=np.int64)
    # Per term: the head part of its exponent and the log of c * x_m^nu_m
    # along the last coordinate.
    live = [[(nu[:-1], int(field.log[c]) + nu[-1] * e_last)
             for nu, c in terms if c != 0] for terms in polys]
    live = [terms for terms in live if terms]
    for e_head in iproduct(range(Q - 1), repeat=m - 1):
        mask = np.ones(Q - 1, dtype=bool)
        for terms in live:
            acc = np.zeros((Q - 1, d), dtype=np.int64)
            for head, tail in terms:
                shift = sum(nh * eh for nh, eh in zip(head, e_head))
                acc += field.exp_digits[(tail + shift) % (Q - 1)]
            np.remainder(acc, p, out=acc)
            mask &= ~acc.any(axis=1)
        yield e_head, mask


def torus_common_zero(field: ExtensionField, polys: Sequence[Sequence[Term]],
                      m: int) -> Optional[Tuple[int, ...]]:
    """Codes of the first torus point (lexicographic in the exponents of the
    generator) where every polynomial of polys vanishes, or None."""
    for e_head, mask in _torus_zero_masks(field, polys, m):
        hits = np.flatnonzero(mask)
        if hits.size:
            return tuple(int(field.exp_codes[e])
                         for e in e_head + (int(hits[0]),))
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
        cone = _affine_zero_count(field, exps, codes, n)
        # the origin is always a zero of a homogeneous polynomial
        return (cone - 1) // (field.Q - 1)
    raise InvalidInput(f"unknown mode {mode!r}")
