"""Exact arithmetic in R = Z_q / p^N (truncated unramified Witt ring).

R is realized as (Z/p^N)[t]/(h) where h is the unique monic lift of the given
irreducible polynomial hbar with h | x^q - x.  With that choice the residue
generator t is a Teichmueller element.  One rule serves each operation, for
every extension degree a:

* Teichmueller lift: teich(x) = x^(q^(N-1)).  If x = tau*(1 + p*y) with tau
  the Teichmueller representative, tau^q = tau and (1 + p*y)^(q^(N-1)) = 1
  mod p^(1 + a(N-1)), so the power is tau mod p^N; a residue divisible by p
  goes to 0.
* h: the context first reduces by the plain lift of hbar.  There it
  computes tau = teich(t), its conjugates tau^(p^i) and the product h of the
  (x - tau^(p^i)), whose coefficients are scalars; then it reduces by h.
* Inverse Frobenius: sigma^-1 is the substitution t -> s = t^(q/p), so
  sigma^-1(x) is one normalize of sum_i x_i s^i over the precomputed powers
  s^i: a elements times integers in [0, p^N) (the identity at a = 1).
* Inverse of a unit: pow(u, -1, p^N) at a = 1; for a > 1, u^(q-2) inverts u
  mod p and Newton's iteration v -> v(2 - uv) lifts that inverse.

A ring element is one Python int.  At a = 1 it is the residue in [0, p^N).
At a > 1 it is the Kronecker packing sum_i x_i 2^(k*i) of its coordinates
x_i in [0, p^N) on 1, t, ..., t^(a-1), so the integer product of two
elements has the convolution of their coordinates as its 2a - 1 base-2^k
digits, and a sum of elements times integers has the sums of their
coordinates.  Such digits stay nonnegative, and none carries into the next
as long as it stays below 2^k.

normalize is the one rule that brings such an integer back to an element.
Its input is a sum of at most K = 2^HEADROOM_BITS - 1 terms, each an
element times an integer in [0, p^N) or a product of two elements.  A
digit of such a sum is at most K*a*(p^N - 1)^2, since a convolution digit
is a sum of at most a products of two coordinates.  At a > 1, normalize
first folds the digits of t^(2a-2), ..., t^a, top down, by t^a = -(h_0 +
... + h_(a-1) t^(a-1)): each fold adds at most (p^N - 1)^2 to a lower digit,
a - 1 folds in all.  So every digit stays below (K*a + a - 1)*(p^N - 1)^2,
which the width k keeps below 2^k (checked where k is set).  Then every
digit is reduced mod p^N.  mul, muladd, sigma^-1 and the callers' lazy
sums all go through it: the expansion's per-monomial sums, the charpoly's
sums, and in reduction each image coefficient and each slot of a packed
vector, 2a - 1 digits wide, that holds one image's sum of products (the
reduction module docstring).

Elements are canonical, so an element is zero exactly when it is 0, and two
elements are equal exactly when they are equal ints.  All operations live on
an immutable RingContext and are pure functions, so a context can be shared
freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from . import gf
from .errors import InvalidFieldSpec, PrecisionOrLogicError

RingElement = int

HEADROOM_BITS = 64


def check_characteristic(p: int) -> None:
    """Raise InvalidFieldSpec unless p is an odd prime (gf.is_prime); a p of
    more than 20 digits is named by its bit length."""
    if p < 3 or not gf.is_prime(p):
        shown = str(p) if p < 10 ** 20 else f"a {p.bit_length()}-bit number"
        raise InvalidFieldSpec(f"p = {shown} is not an odd prime >= 3")


@dataclass(frozen=True)
class FieldSpec:
    """Description of F_q = F_p[t]/(hbar) together with the working precision."""

    p: int
    a: int
    hbar: gf.Poly  # monic irreducible of degree a over F_p, ascending coeffs
    N_work: int

    def validate(self) -> None:
        check_characteristic(self.p)
        if self.a < 1:
            raise InvalidFieldSpec("extension degree a must be >= 1")
        if self.N_work < 1:
            raise InvalidFieldSpec("working precision must be >= 1")
        hbar = gf.trim(c % self.p for c in self.hbar)
        if len(hbar) - 1 != self.a or hbar[-1] != 1:
            raise InvalidFieldSpec("defining polynomial must be monic of degree a")
        if not gf.is_irreducible(hbar, self.p):
            raise InvalidFieldSpec("defining polynomial is reducible over F_p")


class RingContext:
    """Immutable arithmetic context for R = Z_q/p^N."""

    def __init__(self, spec: FieldSpec):
        spec.validate()
        self.spec = spec
        self.p, self.a, self.N = p, a, n = spec.p, spec.a, spec.N_work
        self.q = p ** a
        self.modulus = m = p ** n
        self.k = k = (a * (m - 1) ** 2).bit_length() + HEADROOM_BITS
        terms = (1 << HEADROOM_BITS) - 1
        if not (terms * a + a - 1) * (m - 1) ** 2 < 1 << k:
            raise PrecisionOrLogicError(
                f"packing width {k} leaves a carry at p^N = {m}, a = {a}")
        self._mask = (1 << k) - 1
        # The bit offset of coordinate i in the packing.
        self.shifts = [k * i for i in range(a)]
        # The folds of the digits of t^(2a-2), ..., t^a: (shift, mask below
        # it, shift of t^(i-a)).
        self._folds = [(k * i, (1 << k * i) - 1, k * (i - a))
                       for i in range(2 * a - 2, a - 1, -1)]
        # m in every digit: x + _m_digits - y has nonnegative digits.
        self._m_digits = self._pack([m] * a)
        self.zero: RingElement = 0
        self.one: RingElement = 1
        # Reduce by the plain lift of hbar until h is known.
        self._reduce_by(gf.trim(c % p for c in spec.hbar)[:-1])
        conjugates = [self.teich(self.gen())]
        for _ in range(a - 1):
            conjugates.append(self.pow(conjugates[-1], p))
        h = [self.one]  # ascending coefficients of prod (x - tau^(p^i))
        for c in conjugates:
            neg_c = self.neg(c)
            h = [self.muladd(hi, neg_c, lo) for lo, hi in zip([0] + h, h + [0])]
        try:
            self._reduce_by([self.scalar(hi, m) for hi in h[:-1]])
        except ValueError:
            raise InvalidFieldSpec(
                "defining-polynomial lift produced non-scalar symmetric functions"
            ) from None
        # sigma^-1 is the substitution t -> s = t^(q/p).
        s = self.pow(self.gen(), self.q // p)
        self._s_powers = [self.pow(s, i) for i in range(a)]

    def _reduce_by(self, h_low: Sequence[int]) -> None:
        """Reduce by h = t^a + h_(a-1) t^(a-1) + ... + h_0; _t_to_a packs the
        coordinates of t^a = -(h_0 + ... + h_(a-1) t^(a-1)) in [0, p^N)."""
        m = self.modulus
        self._h = tuple(c % m for c in h_low)
        self._t_to_a = self._pack([-c % m for c in self._h])

    # ---- packing ----------------------------------------------------------------

    def _digits(self, x: int) -> list[int]:
        """The a base-2^k digits of x."""
        mask = self._mask
        return [(x >> s) & mask for s in self.shifts]

    def _pack(self, digits: Sequence[int]) -> int:
        return sum(d << s for d, s in zip(digits, self.shifts))

    def normalize(self, x: int) -> RingElement:
        """The element of a sum x of at most 2^HEADROOM_BITS - 1 terms, each
        an element times an integer in [0, p^N) or a product of two elements:
        the digits of t^(2a-2), ..., t^a folded down by h, then every digit
        reduced mod p^N (see the module docstring for the bound)."""
        m = self.modulus
        if self.a == 1:
            return x % m
        t_to_a = self._t_to_a
        for s, low, back in self._folds:
            x = (x & low) + ((x >> s) % m * t_to_a << back)
        mask, out = self._mask, 0
        for s in self.shifts:
            out |= ((x >> s) & mask) % m << s
        return out

    # ---- basic arithmetic ------------------------------------------------------

    def gen(self) -> RingElement:
        if self.a == 1:
            # t is identified with its scalar value -h_0.
            return (-self._h[0]) % self.modulus
        return 1 << self.k

    def from_residue(self, coeffs: Sequence[int]) -> RingElement:
        """Embed an F_q element given by F_p coefficients on the generator."""
        if len(coeffs) > self.a:
            raise InvalidFieldSpec("residue vector longer than extension degree")
        return self._pack([c % self.p for c in coeffs])

    def add(self, x: RingElement, y: RingElement) -> RingElement:
        return self.normalize(x + y)

    def sub(self, x: RingElement, y: RingElement) -> RingElement:
        return self.normalize(x + self._m_digits - y)

    def neg(self, x: RingElement) -> RingElement:
        return self.normalize(self._m_digits - x)

    def smul(self, c: int, x: RingElement) -> RingElement:
        return self.normalize(c % self.modulus * x)

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        """normalize(x*y), inlined at a = 1."""
        if self.a == 1:
            return x * y % self.modulus
        return self.normalize(x * y)

    def muladd(self, x: RingElement, y: RingElement, z: RingElement
               ) -> RingElement:
        """normalize(x*y + z), inlined at a = 1."""
        if self.a == 1:
            return (x * y + z) % self.modulus
        return self.normalize(x * y + z)

    def pow(self, x: RingElement, e: int) -> RingElement:
        if self.a == 1:
            return pow(x, e, self.modulus)
        result = self.one
        while e > 0:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def is_zero(self, x: RingElement) -> bool:
        return not x

    def is_unit(self, x: RingElement) -> bool:
        """Is some coordinate of x prime to p?"""
        p = self.p
        if self.a == 1:
            return x % p != 0
        mask = self._mask
        return any((x >> s & mask) % p for s in self.shifts)

    def inv(self, u: RingElement) -> RingElement:
        """Inverse of a unit; see the module docstring."""
        if not self.is_unit(u):
            raise ZeroDivisionError("attempted inversion of a non-unit")
        if self.a == 1:
            return pow(u, -1, self.modulus)
        v = self.pow(u, self.q - 2)
        # v <- v(2 - uv) doubles the precision each round.
        for _ in range(max(1, (self.N - 1).bit_length())):
            v = self.mul(v, self.sub(2, self.mul(u, v)))
        return v

    def divide_exact_by_p(self, x: RingElement) -> RingElement:
        """Exact division by p of an element with valuation >= 1.

        Every coordinate is divisible by p, so the packed int is too, and its
        quotient is the packing of the coordinate quotients.  The result is
        trustworthy one p-adic digit lower; the caller is responsible for the
        precision ledger.
        """
        if self.is_unit(x):
            raise ZeroDivisionError("element is not divisible by p")
        return x // self.p

    def scalar(self, x: RingElement, modulus: int) -> int:
        """The coordinate of x on 1, mod modulus (a divisor of p^N); raises
        ValueError unless every other coordinate is 0 mod modulus."""
        c0, *rest = self._digits(x)
        if any(c % modulus for c in rest):
            raise ValueError(f"{self.serialize(x)} is not a scalar mod {modulus}")
        return c0 % modulus

    # ---- Frobenius and Teichmueller -------------------------------------------

    def sigma_inverse(self, x: RingElement) -> RingElement:
        """sum_i x_i s^i for the coordinates x_i of x and s = t^(q/p)."""
        return self.normalize(sum(map(mul, self._digits(x), self._s_powers)))

    def teich(self, x: RingElement) -> RingElement:
        """Teichmueller representative congruent to x mod p (0 maps to 0):
        x^(q^(N-1)), see the module docstring."""
        tau = self.pow(x, self.q ** (self.N - 1))
        if self.pow(tau, self.q) != tau:
            raise PrecisionOrLogicError(
                f"Teichmueller lift {self.serialize(tau)} of "
                f"{self.serialize(x)} is not fixed by x -> x^q")
        return tau

    def teichmuller_lift(self, residue: Sequence[int]) -> RingElement:
        """Teichmueller lift of an F_q element given as F_p coefficients."""
        return self.teich(self.from_residue(residue))

    # ---- serialization ---------------------------------------------------------

    def serialize(self, x: RingElement) -> list[int]:
        """Little-endian list of the a base-p^N residues (JSON-friendly)."""
        return self._digits(x)

    def coordinates(self, xs: Sequence[RingElement]) -> list[int]:
        """The residues of every element of xs, coordinate-major: residue 0
        of each element in turn, then residue 1, and so on."""
        mask = self._mask
        return [x >> s & mask for s in self.shifts for x in xs]


def make_ring(spec: FieldSpec) -> RingContext:
    """Construct the arithmetic context for R = Z_q/p^N."""
    return RingContext(spec)
