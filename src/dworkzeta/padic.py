"""Exact arithmetic in R = Z_q / p^N (truncated unramified Witt ring).

R is realized as (Z/p^N)[t]/(h) where h is the unique monic lift of the given
irreducible polynomial hbar with h | x^q - x.  With that choice the residue
generator t is a Teichmueller element.  One rule serves each operation, for
every extension degree a:

* Teichmueller lift: teich(x) = x^(q^(N-1)).  If x = tau*(1 + p*y) with tau
  the Teichmueller representative, tau^q = tau and (1 + p*y)^(q^(N-1)) = 1
  mod p^(1 + a(N-1)), so the power is tau mod p^N; a residue divisible by p
  goes to 0.
* h: the product of (x - tau^(p^i)) over the conjugates of tau = teich(t)
  in a scratch ring over an arbitrary lift of hbar.
* Inverse Frobenius: sigma^-1 is the substitution t -> t^(q/p), precomputed
  as an a x a linear map (the identity at a = 1).
* Inverse of a unit: invert mod p in F_q, then Hensel-lift.

Ring elements are plain tuples of length a with entries in [0, p^N); all
operations live on an immutable RingContext and are pure functions, so a
context can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import gf
from .errors import InvalidFieldSpec, PrecisionOrLogicError

RingElement = Tuple[int, ...]


@dataclass(frozen=True)
class FieldSpec:
    """Description of F_q = F_p[t]/(hbar) together with the working precision."""

    p: int
    a: int
    hbar: gf.Poly  # monic irreducible of degree a over F_p, ascending coeffs
    N_work: int

    def validate(self) -> None:
        if self.p < 3 or any(self.p % d == 0 for d in range(2, int(self.p ** 0.5) + 1)):
            raise InvalidFieldSpec(f"p = {self.p} is not an odd prime >= 3")
        if self.a < 1:
            raise InvalidFieldSpec("extension degree a must be >= 1")
        if self.N_work < 1:
            raise InvalidFieldSpec("working precision must be >= 1")
        hbar = gf.trim(c % self.p for c in self.hbar)
        if len(hbar) - 1 != self.a or hbar[-1] != 1:
            raise InvalidFieldSpec("defining polynomial must be monic of degree a")
        if not gf.is_irreducible(hbar, self.p):
            raise InvalidFieldSpec("defining polynomial is reducible over F_p")


@dataclass(frozen=True)
class ScaledElement:
    """The value p^(-denom_exp) * numer, with numer held modulo p^(N_work+denom_exp).

    Used to carry the controlled denominators of the splitting-series
    coefficients; the numerator is a scalar because those coefficients lie
    in Q_p (never in a proper extension).
    """

    denom_exp: int
    numer: int


class RingContext:
    """Immutable arithmetic context for R = Z_q/p^N."""

    def __init__(self, spec: FieldSpec):
        spec.validate()
        self.spec = spec
        self.p = spec.p
        self.a = spec.a
        self.N = spec.N_work
        self.q = spec.p ** spec.a
        self.modulus = spec.p ** spec.N_work
        self.zero: RingElement = (0,) * self.a
        self.one: RingElement = (1,) + (0,) * (self.a - 1)
        self._h = self._lift_defining_polynomial()
        # sigma^{-1} is the substitution t -> t^(q/p).
        self._sigma_inv_mat = self._substitution_matrix(
            self.pow(self.gen(), self.q // self.p))

    # ---- construction helpers -------------------------------------------------

    def _lift_defining_polynomial(self) -> Tuple[int, ...]:
        """Monic h over Z/p^N with h == hbar mod p and h | x^q - x.

        Computed by taking the Teichmueller lift tau of the generator inside a
        scratch ring over an arbitrary lift of hbar and forming the product of
        (x - tau^(p^i)) over the conjugates; the symmetric functions land in
        Z/p^N, which is checked.  Returns the non-leading coefficients
        (h_0, ..., h_{a-1}).
        """
        p, a, mod_ = self.p, self.a, self.modulus
        hbar = gf.trim(c % p for c in self.spec.hbar)
        scratch_h = tuple(int(c) for c in hbar[:-1])
        scratch = _RawRing(p, a, self.N, scratch_h)
        tau = scratch.teich(scratch.gen())
        conj = [tau]
        for _ in range(a - 1):
            conj.append(scratch.pow(conj[-1], p))
        # h(x) = prod (x - conj_i), coefficients computed in the scratch ring.
        coeffs = [scratch.one]  # ascending, current product = 1
        for c in conj:
            nxt = [scratch.zero] * (len(coeffs) + 1)
            for i, ci in enumerate(coeffs):
                nxt[i + 1] = scratch.add(nxt[i + 1], ci)
                nxt[i] = scratch.sub(nxt[i], scratch.mul(ci, c))
            coeffs = nxt
        low = []
        for ci in coeffs[:-1]:
            if any(x % mod_ for x in ci[1:]):
                raise InvalidFieldSpec(
                    "defining-polynomial lift produced non-scalar symmetric functions"
                )
            low.append(ci[0] % mod_)
        return tuple(low)

    def _substitution_matrix(self, image_of_t: RingElement) -> list[list[int]]:
        """Matrix (columns = images of t^i) of the substitution t -> image_of_t."""
        cols = [self.one]
        for _ in range(self.a - 1):
            cols.append(self.mul(cols[-1], image_of_t))
        return [[cols[j][i] for j in range(self.a)] for i in range(self.a)]

    # ---- basic arithmetic ------------------------------------------------------

    def gen(self) -> RingElement:
        if self.a == 1:
            # t is identified with its scalar value -h_0.
            return ((-self._h[0]) % self.modulus,)
        return (0, 1) + (0,) * (self.a - 2)

    def from_int(self, c: int) -> RingElement:
        return (c % self.modulus,) + (0,) * (self.a - 1)

    def from_residue(self, coeffs: Sequence[int]) -> RingElement:
        """Embed an F_q element given by F_p coefficients on the generator."""
        if len(coeffs) > self.a:
            raise InvalidFieldSpec("residue vector longer than extension degree")
        out = self.zero
        t_pow = self.one
        g = self.gen()
        for c in coeffs:
            out = self.add(out, self.smul(c % self.p, t_pow))
            t_pow = self.mul(t_pow, g)
        return out

    def add(self, x: RingElement, y: RingElement) -> RingElement:
        m = self.modulus
        return tuple((a + b) % m for a, b in zip(x, y))

    def sub(self, x: RingElement, y: RingElement) -> RingElement:
        m = self.modulus
        return tuple((a - b) % m for a, b in zip(x, y))

    def neg(self, x: RingElement) -> RingElement:
        m = self.modulus
        return tuple((-a) % m for a in x)

    def smul(self, c: int, x: RingElement) -> RingElement:
        m = self.modulus
        c %= m
        return tuple((c * a) % m for a in x)

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        a, m = self.a, self.modulus
        if a == 1:
            return ((x[0] * y[0]) % m,)
        conv = [0] * (2 * a - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    conv[i + j] += xi * yj
        h = self._h
        for i in range(2 * a - 2, a - 1, -1):
            c = conv[i] % m
            if c:
                for j in range(a):
                    conv[i - a + j] -= c * h[j]
            conv[i] = 0
        return tuple(v % m for v in conv[:a])

    def pow(self, x: RingElement, e: int) -> RingElement:
        result = self.one
        while e > 0:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result

    def is_zero(self, x: RingElement) -> bool:
        return all(c % self.modulus == 0 for c in x)

    def is_unit(self, x: RingElement) -> bool:
        return any(c % self.p for c in x)

    def inv(self, u: RingElement) -> RingElement:
        """Inverse of a unit: invert modulo p in F_q, then Hensel-lift."""
        if not self.is_unit(u):
            raise ZeroDivisionError("attempted inversion of a non-unit")
        p = self.p
        ubar = gf.trim(c % p for c in u)
        hbar = gf.trim([c % p for c in self._h] + [1])
        vbar = gf.powmod(ubar, self.q - 2, hbar, p)
        v = tuple(vbar[i] if i < len(vbar) else 0 for i in range(self.a))
        # v <- v(2 - uv) doubles the precision each round.
        rounds = max(1, (self.N - 1).bit_length())
        for _ in range(rounds):
            t = self.sub(self.from_int(2), self.mul(u, v))
            v = self.mul(v, t)
        return v

    def divide_exact_by_p(self, x: RingElement) -> RingElement:
        """Exact division by p of an element with valuation >= 1.

        The result is trustworthy one p-adic digit lower; the caller is
        responsible for the precision ledger.
        """
        if any(c % self.p for c in x):
            raise ZeroDivisionError("element is not divisible by p")
        return tuple(c // self.p for c in x)

    # ---- Frobenius and Teichmueller -------------------------------------------

    def sigma_inverse(self, x: RingElement) -> RingElement:
        return _mat_vec(self._sigma_inv_mat, x, self.modulus)

    def teich(self, x: RingElement) -> RingElement:
        """Teichmueller representative congruent to x mod p (0 maps to 0):
        x^(q^(N-1)), see the module docstring."""
        tau = self.pow(x, self.q ** (self.N - 1))
        if self.pow(tau, self.q) != tau:
            raise PrecisionOrLogicError(
                f"Teichmueller lift {tau} of {x} is not fixed by x -> x^q")
        return tau

    def teichmuller_lift(self, residue: Sequence[int]) -> RingElement:
        """Teichmueller lift of an F_q element given as F_p coefficients."""
        return self.teich(self.from_residue(residue))

    # ---- serialization ---------------------------------------------------------

    def serialize(self, x: RingElement) -> list[int]:
        """Little-endian list of the a base-p^N residues (JSON-friendly)."""
        return [int(c % self.modulus) for c in x]


class _RawRing(RingContext):
    """Scratch context over an arbitrary monic lift (no sigma^-1 precompute)."""

    def __init__(self, p: int, a: int, n: int, h_low: Tuple[int, ...]):
        # Bypass RingContext.__init__: no Frobenius machinery is available
        # before the special defining polynomial has been constructed.
        self.p, self.a, self.N = p, a, n
        self.q = p ** a
        self.modulus = p ** n
        self.zero = (0,) * a
        self.one = (1,) + (0,) * (a - 1)
        self._h = tuple(c % self.modulus for c in h_low)


def _mat_vec(mat: list[list[int]], v: Sequence[int], m: int) -> Tuple[int, ...]:
    n = len(mat)
    return tuple(sum(mat[i][k] * v[k] for k in range(n)) % m for i in range(n))


def make_ring(spec: FieldSpec) -> RingContext:
    """Construct the arithmetic context for R = Z_q/p^N."""
    return RingContext(spec)
