"""Jacobian-ring linear algebra: graded relation matrices, recorded echelon
transforms, and the monomial basis V of the quotient.

For a lifted polynomial f with support on a polytope Delta, the relation
module in weight degree d is spanned by the products m * g where g runs over
the degree-one generators (w*f and w*x_i df/dx_i) and m over cone monomials of
degree d-1.  Row-reducing the coefficient matrix J_d with a recorded
transform T_d (so that M_d = T_d * J_d exactly, with unit pivots) yields both
the reduction machinery and, through the non-pivot columns, the basis V.

Each relation row has at most as many nonzero entries as its generator has
terms, so rows are kept sparse ({column: entry}) throughout: build_jacobian
builds every row of J_d once, directly as the sparse row that the in-place
elimination turns into a row of M_d, and T_d starts as the sparse identity.
J_d itself is not kept; row_meta says how to rebuild any of its rows.

The rank v = |V| of the quotient has a closed formula in the support
(expected_rank), which the caller passes to build_jacobian; a basis of any
other size means the input is degenerate.

Three modes share this machinery:

* toric: no restrictions; generators indexed 0..n with index 0 the w-scaling
  generator w*f.
* affine (for convenient polynomials): columns are restricted to monomials
  divisible by x_1...x_n; the cofactor m of the w*f rows must itself be so
  divisible, and the cofactor of the w*x_i df/dx_i rows must be divisible by
  the complementary product of variables.
* projective (homogeneous of degree D, p not dividing D, and for n >= 3 no
  variable dividing every monomial): the last variable is eliminated through
  homogeneity and monomials are carried in the first n-1 coordinates, with
  the last exponent implicit (= d*D - |mu|) and the w-power formal; the
  w-scaling generator is dropped (it is a combination of the others by the
  Euler relation) and the affine divisibility restrictions apply with the
  implicit coordinate included.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .cone_algebra import ConeMonomial, term_order_key
from .errors import InvalidInput, NondegeneracyFailure
from .padic import RingContext, RingElement
from .polytope import LatticePolytope, lattice_points, normalized_volume

MODES = ("toric", "affine", "projective")

# A sparse matrix row or vector: index -> nonzero ring element.
SparseRow = Dict[int, RingElement]


def working_exponent(mode: str, nu: Tuple[int, ...]) -> Tuple[int, ...]:
    """Working coordinates of an exponent: projective mode drops the last,
    implicit one."""
    return nu[:-1] if mode == "projective" else nu


@dataclass
class LiftedInput:
    """Teichmueller-lifted input polynomial with its degree-one generators.

    support holds the sorted working exponents and coeffs their unit
    coefficients in R, aligned.  Working monomials have n_eff coordinates:
    n_eff = n_vars except in projective mode, where the last exponent is
    implicit.
    """

    ring: RingContext
    mode: str
    n_vars: int
    support: Tuple[Tuple[int, ...], ...]
    coeffs: Tuple[RingElement, ...]
    degree: Optional[int] = None  # homogeneity degree D (projective only)

    @property
    def n_eff(self) -> int:
        return self.n_vars - 1 if self.mode == "projective" else self.n_vars

    @property
    def generator_indices(self) -> Tuple[int, ...]:
        """0 denotes the w-scaling generator w*f; i >= 1 denotes w*x_i df/dx_i."""
        if self.mode == "projective":
            return tuple(range(1, self.n_vars + 1))
        return tuple(range(0, self.n_vars + 1))

    def var_exponent(self, i: int, m: ConeMonomial) -> int:
        """True exponent of variable i in the cone monomial m (i = 0 is w)."""
        d, mu = m
        if i == 0:
            return d
        if self.mode == "projective" and i == self.n_vars:
            return d * self.degree - sum(mu)
        return mu[i - 1]

    def generator(self, i: int) -> List[Tuple[Tuple[int, ...], RingElement]]:
        """The degree-one generator w*x_i df/dx_i (x_0 = w, so i = 0 gives
        w*f) as (exponent, coefficient) pairs: the term a_nu w x^nu carries
        the exponent of variable i in w x^nu."""
        out = []
        for nu, a in zip(self.support, self.coeffs):
            c = self.ring.smul(self.var_exponent(i, (1, nu)), a)
            if not self.ring.is_zero(c):
                out.append((nu, c))
        return out

    def cofactor_allowed(self, gen: int, m: ConeMonomial) -> bool:
        """May m multiply generator gen as a relation row?

        The cofactors of w*f (gen = 0) obey the divisibility restriction of
        the columns themselves, so gen = 0 also tells the allowed columns.
        """
        if self.mode == "toric":
            return True
        return all(self.var_exponent(i, m) >= 1
                   for i in range(1, self.n_vars + 1) if i != gen)


def check_terms(terms: Sequence[Tuple[Sequence[int], Sequence[int]]], mode: str,
                p: int) -> None:
    """Check an input against the contract of its mode, without lifting it.

    terms is a nonempty sequence of (exponent vector, F_q residue vector),
    the exponent vectors all of one length, and mode is one of MODES; the
    caller (pipeline.validate_problem) has checked that shape.
    """
    n = len(terms[0][0])
    if n < 1:
        raise InvalidInput("need at least one variable")
    exps = set()
    for exp, residue in terms:
        nu = tuple(int(e) for e in exp)
        if nu in exps:
            raise InvalidInput(f"duplicate exponent {nu}")
        if all(int(c) % p == 0 for c in residue):
            raise InvalidInput(f"zero coefficient at exponent {nu}")
        exps.add(nu)
    if mode in ("affine", "projective"):
        if any(c < 0 for nu in exps for c in nu):
            raise InvalidInput(f"{mode} mode requires nonnegative exponents")
    if mode == "affine":
        if (0,) * n not in exps:
            raise InvalidInput("affine mode requires a nonzero constant term")
        for i in range(n):
            if not any(nu[i] > 0 and all(nu[j] == 0 for j in range(n) if j != i)
                       for nu in exps):
                raise InvalidInput(
                    f"affine mode requires a pure power of variable {i + 1}")
    if mode != "projective":
        return
    degrees = {sum(nu) for nu in exps}
    if len(degrees) != 1:
        raise InvalidInput("projective mode requires a homogeneous polynomial")
    degree = degrees.pop()
    if degree <= 0 or degree % p == 0:
        raise InvalidInput(
            "projective mode requires degree >= 1 not divisible by p")
    if n < 2:
        raise InvalidInput("projective mode requires at least two variables")
    for i in range(n):
        if n >= 3 and all(nu[i] > 0 for nu in exps):
            # f = x_i * g: the hypersurface contains the hyperplane x_i = 0
            # and is singular where it meets g = 0, which it does for n >= 3.
            # For n = 2 both are finite point sets, which the method handles.
            raise NondegeneracyFailure(
                f"every monomial is divisible by variable {i + 1}, so the "
                "hypersurface contains a coordinate hyperplane; the input is "
                "degenerate")


def lift_input(ring: RingContext, terms: Sequence[Tuple[Sequence[int], Sequence[int]]],
               mode: str = "toric") -> LiftedInput:
    """Teichmueller-lift the coefficients of an input that passed check_terms.

    terms is a sequence of (exponent vector, F_q residue vector); residues are
    coordinates on the chosen generator of F_q over F_p.  The working
    exponents are distinct: projective inputs are homogeneous, so dropping
    the last coordinate loses nothing.
    """
    degree = sum(terms[0][0]) if mode == "projective" else None
    residues = {working_exponent(mode, tuple(int(e) for e in exp)): residue
                for exp, residue in terms}
    support = tuple(sorted(residues))
    coeffs = tuple(
        ring.teichmuller_lift(tuple(int(c) % ring.p for c in residues[nu]))
        for nu in support)
    return LiftedInput(ring=ring, mode=mode, n_vars=len(terms[0][0]),
                       support=support, coeffs=coeffs, degree=degree)


def expected_rank(mode: str, exponents: Iterable[Sequence[int]]) -> int:
    """The rank v of the quotient for a nondegenerate input with this support.

    Over the coordinate faces Delta_I = conv(support inside R^I), I a subset
    of the n variables, with nvol_k of a face of dimension below k read as 0
    (Kouchnirenko, Invent. Math. 32, 1976; Adolphson-Sperber, Ann. of Math.
    130, 1989):

    * toric: v = nvol(Delta);
    * affine: v = sum_I (-1)^(n-|I|) nvol_|I|(Delta_I), with nvol(Delta_0) = 1;
    * projective: v = (-1)^n + sum_{I nonempty} (-1)^(n-|I|) nvol_(|I|-1)(Delta_I),
      a face inside sum x_i = D measured after dropping one coordinate of I.

    The input must satisfy check_terms for its mode.
    """
    exps = sorted({tuple(int(c) for c in nu) for nu in exponents})
    if mode == "toric":
        return normalized_volume(exps)
    n = len(exps[0])
    drop = 1 if mode == "projective" else 0
    v = (-1) ** n if drop else 0
    for k in range(drop, n + 1):
        for I in combinations(range(n), k):
            face = [tuple(nu[i] for i in I[drop:]) for nu in exps
                    if all(nu[j] == 0 for j in range(n) if j not in I)]
            v += (-1) ** (n - k) * normalized_volume(face)
    return v


@dataclass
class DegreeEchelon:
    """Relation matrix of one weight degree with its recorded row reduction.

    Rows are sparse: M[i] maps a column index to a nonzero entry, T[i] maps an
    original relation row (an index into row_meta) to a nonzero entry.
    M = T * J exactly over R, where J is the relation matrix whose row i is
    the product described by row_meta[i]; J itself is not kept.  pivot_rows
    maps each pivot column to its row of M, in the order the pivots were
    found; a pivot entry is 1 and its column has no other nonzero entry.
    """

    columns: List[ConeMonomial]
    col_index: Dict[ConeMonomial, int]
    row_meta: List[Tuple[int, ConeMonomial]]  # (generator index, cofactor monomial)
    M: List[SparseRow]
    T: List[SparseRow]
    pivot_rows: Dict[int, int]

    def solve(self, ring: RingContext, xi: SparseRow
              ) -> Tuple[SparseRow, SparseRow]:
        """Split the sparse vector xi = eta.J + v with v on the non-pivot columns.

        Returns (eta over the original rows, v over the columns), both sparse.
        M is fully reduced, so subtracting a pivot row never changes another
        pivot column: only the pivot entries of xi itself select rows, and
        only the nonzero entries of those rows are touched.
        """
        v = dict(xi)
        eta: SparseRow = {}
        for j, c in xi.items():
            r = self.pivot_rows.get(j)
            if r is not None:
                _combine(ring, ring.sub, v, c, self.M[r])
                _combine(ring, ring.add, eta, c, self.T[r])
        return eta, v


@dataclass
class EchelonData:
    """Per-degree echelon data for degrees 1..top, plus the shared context."""

    lifted: LiftedInput
    poly: LatticePolytope
    top: int
    by_degree: Dict[int, DegreeEchelon]


@dataclass
class MonomialBasis:
    """The non-pivot cone monomials V (degree-graded), a basis of the quotient."""

    V: List[ConeMonomial]

    @property
    def v(self) -> int:
        return len(self.V)


def _combine(ring: RingContext,
             op: Callable[[RingElement, RingElement], RingElement],
             dst: SparseRow, c: RingElement, src: SparseRow) -> None:
    """dst[k] = op(dst[k], c * src[k]) for every k in src, in place.

    op is ring.add or ring.sub.  Ring elements are canonical residues, so an
    entry is zero exactly when it equals ring.zero; such entries are dropped.
    """
    zero, mul = ring.zero, ring.mul
    for k, b in src.items():
        x = op(dst.get(k, zero), mul(c, b))
        if x != zero:
            dst[k] = x
        else:
            dst.pop(k, None)


def _row_reduce(ring: RingContext, rows: List[SparseRow], ncols: int,
                degree: int) -> Tuple[List[SparseRow], List[Tuple[int, int]]]:
    """In-place reduced row echelon form with unit pivots; returns (T, pivots).

    rows are sparse ({column: nonzero entry}); T starts as the identity and
    records the same row operations, so its rows are sparse over the original
    rows.  Entries that cancel are dropped.

    R is local: a column whose remaining entries are nonzero but all divisible
    by p admits no unit pivot, which is exactly the degeneracy signal.
    """
    mul = ring.mul
    nrows = len(rows)
    T: List[SparseRow] = [{i: ring.one} for i in range(nrows)]
    pivots: List[Tuple[int, int]] = []
    r = 0
    # Scan columns from the largest monomial down so that the free (non-pivot)
    # columns, which become the quotient basis, are the smallest monomials.
    # The first unit entry at or below row r is the pivot.
    for j in range(ncols - 1, -1, -1):
        unit_row = None
        saw_nonzero = False
        for i in range(r, nrows):
            e = rows[i].get(j)
            if e is not None:
                saw_nonzero = True
                if ring.is_unit(e):
                    unit_row = i
                    break
        if unit_row is None:
            if saw_nonzero:
                raise NondegeneracyFailure(
                    f"relation matrix in degree {degree}: column {j} has only "
                    "p-divisible entries left, so no unit pivot exists; the "
                    "input fails the face-wise nondegeneracy condition at the "
                    "working precision")
            continue
        rows[r], rows[unit_row] = rows[unit_row], rows[r]
        T[r], T[unit_row] = T[unit_row], T[r]
        inv = ring.inv(rows[r][j])
        prow = rows[r] = {k: mul(inv, e) for k, e in rows[r].items()}
        ptrow = T[r] = {k: mul(inv, e) for k, e in T[r].items()}
        for i in range(nrows):
            if i == r:
                continue
            c = rows[i].get(j)
            if c is not None:
                _combine(ring, ring.sub, rows[i], c, prow)
                _combine(ring, ring.sub, T[i], c, ptrow)
        pivots.append((r, j))
        r += 1
    return T, pivots


def build_jacobian(lifted: LiftedInput, poly: LatticePolytope, v: int
                   ) -> Tuple[EchelonData, MonomialBasis]:
    """Row-reduce the relation matrices for degrees 1..top and read off V.

    top = n_eff + 2; the quotient basis lives in degrees <= n_eff + 1 and the
    top-degree matrix must have a pivot in every column.  The lattice points
    of each dilation d * Delta are enumerated once; they give the columns of
    degree d and the cofactors of the rows of degree d + 1.  |V| must equal
    v, the expected_rank of the input, or the input is degenerate.
    """
    ring = lifted.ring
    n_eff = lifted.n_eff
    top = n_eff + 2
    # The exponents and coefficients of each generator; all its terms have
    # degree 1, so the row of cofactor (d-1, mu) has its terms at (d, mu+nu).
    gens = {i: lifted.generator(i) for i in lifted.generator_indices}
    by_degree: Dict[int, DegreeEchelon] = {}
    V: List[ConeMonomial] = []

    # Sorted lattice points are already in the term order within a degree.
    layer = [(0, mu) for mu in lattice_points(poly, 0)]
    # Degree 0 has no relations; its basis part is whatever columns exist
    # (the single monomial 1 in toric mode, nothing in the restricted modes).
    V.extend(m for m in layer if lifted.cofactor_allowed(0, m))

    for d in range(1, top + 1):
        cofactors, layer = layer, [(d, mu) for mu in lattice_points(poly, d)]
        columns = [m for m in layer if lifted.cofactor_allowed(0, m)]
        col_index = {m: k for k, m in enumerate(columns)}
        row_meta: List[Tuple[int, ConeMonomial]] = []
        M: List[SparseRow] = []
        for gi in lifted.generator_indices:
            for m in cofactors:
                if not lifted.cofactor_allowed(gi, m):
                    continue
                mu = m[1]
                row: SparseRow = {}
                for nu, c in gens[gi]:
                    j = col_index.get((d, tuple(map(add, mu, nu))))
                    if j is None:
                        raise NondegeneracyFailure(
                            f"relation row {m} * generator {gi} leaves the "
                            f"restricted monomial span in degree {d}")
                    row[j] = c
                row_meta.append((gi, m))
                M.append(row)
        T, pivots = _row_reduce(ring, M, len(columns), d)
        pivot_rows = {j: r for r, j in pivots}
        nonpivot = [j for j in range(len(columns)) if j not in pivot_rows]
        if d == top and nonpivot:
            raise NondegeneracyFailure(
                f"top-degree relation matrix (degree {d}) is not of full "
                f"column rank: {len(nonpivot)} monomial(s) remain unreduced; "
                "the input is degenerate")
        ech = DegreeEchelon(columns=columns, col_index=col_index,
                            row_meta=row_meta, M=M, T=T, pivot_rows=pivot_rows)
        by_degree[d] = ech
        if d <= top - 1:
            V.extend(columns[j] for j in nonpivot)

    basis = MonomialBasis(V=sorted(V, key=term_order_key))
    if basis.v != v:
        raise NondegeneracyFailure(
            f"quotient basis has cardinality {basis.v}, expected the rank "
            f"{v} of a nondegenerate input with this support; the input is "
            "degenerate")
    degree0 = [m for m in basis.V if m[0] == 0]
    if lifted.mode == "toric" and degree0 != [(0, (0,) * n_eff)]:
        raise NondegeneracyFailure(
            "degree-0 part of the basis is not the single monomial 1")
    return EchelonData(lifted=lifted, poly=poly, top=top,
                       by_degree=by_degree), basis
