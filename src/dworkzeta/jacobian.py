"""Jacobian-ring linear algebra: graded relation matrices and their row
reduction, the monomial basis V of the quotient, and the reduction operator
of every column.

For a lifted polynomial f with support on a polytope Delta, the relation
module in weight degree d is spanned by the products m * g where g runs over
the degree-one generators (w*f and w*x_i df/dx_i) and m over cone monomials of
degree d-1.  Row-reducing the coefficient matrix J_d to M_d, with unit
pivots, yields both the reduction machinery and, through the non-pivot
columns, the basis V.

The pivot rule.  _row_reduce scans the columns from the largest monomial
down, and column j takes as its pivot the unused row with a unit entry there
and the fewest entries, ties to the lowest index: the row operations copy
the pivot row into every other row holding j, so sparse pivots keep the fill
and the compiled operators small.  The choice changes neither V nor the
Frobenius matrix.  R is local, so column j gets a pivot exactly when some
relation that vanishes on the earlier pivot columns is a unit at j, a
property of the row module rather than of the rows chosen: the pivot columns,
and V, are fixed.  So are the column entries of each pivot row: of the
column parts of the row module, only one is 1 at its pivot and 0 at the
other pivot columns.  Only the image blocks depend on the choice, through the relations
among the rows, whose images vanish in the quotient; and the quotient is free
on V, so a class has one set of coordinates whichever operators reduce it.

Each relation row has at most as many nonzero entries as its generator has
terms, so rows are kept sparse ({key: entry}) throughout:
echelon_of_degree builds every row of J_d once, directly as the sparse row
that the in-place elimination turns into a row of M_d.  J_d itself is not
kept.

Rows carry their images.  In the quotient m * (pi*w) f_g is congruent to
-e_g(m) m, one degree lower (reduction module docstring), and e_g is linear
in the monomial.  So the row of generator g and cofactor mr carries, beside
its column entries J_i, an image block: the key of (mr, 0) with entry
-e_g(mr) and the key of (mr, s) with entry 1, s the slot of g in
generator_indices (from 1).  Keys are plain ints: the columns are 0..ncols-1
and (mr, s) is ncols + width * c + s, for mr the c-th cofactor and width =
len(generator_indices) + 1.  The row reduction treats the block like the
other entries, so reduced row r is sum_i T[r][i] (row i) for a transform T
that is never formed.  If row r is the pivot row of column c_j, its column
entries say c_j = sum_i T[r][i] J_i - sum_{k != j} M[r][k] c_k, each c_k a
non-pivot column (M is fully reduced), and for a cofactor m the class of
m * c_j is

* the residual sum_{k != j} -M[r][k] m c_k, on V (m = 1 at and below the
  top degree; at the top degree the matrix has full column rank and there
  is no residual);
* plus the image: on m * mr, the coefficient alpha - sum_g beta_g e_g(m),
  alpha and beta_g the entries of row r at (mr, 0) and (mr, slot of g).
  Each e_g is a linear form on the coordinates (d, mu) of the monomial
  (LiftedInput.exponent_forms), so the coefficient is alpha + sum_k gamma_k
  * (-m_k), with gamma = sum_g beta_g e_g computed once per entry and m_k
  the coordinates of m.

compile_column splits the pivot row into these two parts, in the form the
reduction sweep reads: monomials as their codes (cone_algebra), an image
entry as (code(mr) - code(c_j), alpha, gamma), so that the image monomial's
code is the code of m * c_j plus that offset, and gamma as () when it is
zero.  A non-pivot column is its own residual, (its V index, 1), with no
image.  build_jacobian compiles every column of each degree, 0 to top,
once the degree is row-reduced, and keeps per degree only the operators
and the position of each column code (EchelonData); the columns and their
codes are the plan's.

What depends on the support alone is built once per support shape.
support_plan(mode, exponents), a bounded cache keyed by the mode and the
input exponents, returns an immutable SupportPlan: the rank v = |V| of the
quotient, which has a closed formula in the support (expected_rank); the
hull of the working support; per degree 0..top the lattice points, their
codes, the variables each lacks, and the columns the mode allows with
their codes; and the facet heights of the top-degree columns, which the
divisor policy of the reduction reads.  Inputs of different modes never
share a plan, even on one working support: x^3 + y^3 + 1 has v = 4 as an
affine and v = 9 as a toric input.  The plan is the one home of these:
build_jacobian, echelon_of_degree and the reduction read it, and no solve
copies it.  A basis of a size other than v means the input is degenerate.

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
from functools import cached_property, lru_cache
from itertools import combinations
from operator import mul
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from .cone_algebra import ConeMonomial, check_code_bound, encode
from .errors import InvalidInput, NondegeneracyFailure, PrecisionOrLogicError
from .padic import RingContext, RingElement
from .polytope import LatticePolytope, hull, lattice_points, normalized_volume

MODES = ("toric", "affine", "projective")
SHAPE_PLANS = 16  # support shapes kept by support_plan

# A sparse matrix row: key -> nonzero ring element.  A key is a column index
# or, past the columns, the key of an image entry (mr, slot) (module
# docstring).
SparseRow = Dict[int, RingElement]
# A column's reduction operator (module docstring): the residual
# [(V index, coefficient)] and the image [(code offset, alpha, gamma)].
Operator = Tuple[List[Tuple[int, RingElement]],
                 List[Tuple[int, RingElement, Tuple[RingElement, ...]]]]


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

    @cached_property
    def exponent_forms(self) -> Tuple[Tuple[int, ...], ...]:
        """var_exponent(g, .) as linear forms on the coordinates (d, mu_1,
        ..., mu_n_eff) of a cone monomial, mod p^N and by coordinate: entry
        [k][s] is the coefficient of coordinate k in the form of the s-th
        generator index.  The form of g is a unit vector, or (D, -1, ..., -1)
        for the implicit projective variable."""
        n, modulus = self.n_eff, self.ring.modulus
        forms = [[int(k == g) for k in range(n + 1)] if g <= n
                 else [self.degree] + [-1] * n
                 for g in self.generator_indices]
        return tuple(tuple(form[k] % modulus for form in forms)
                     for k in range(n + 1))

    @cached_property
    def step_codes(self) -> Tuple[int, ...]:
        """code((1, nu)) - code(1) for each support point nu, the offset
        that takes the code of a monomial to the code of its product with
        w x^nu (cone_algebra)."""
        one = encode((0, (0,) * self.n_eff))
        return tuple(encode((1, nu)) - one for nu in self.support)

    @cached_property
    def coded_generators(self) -> Tuple[List[Tuple[int, RingElement]], ...]:
        """generator(g) for each g in generator_indices, each exponent as
        its step code."""
        step = dict(zip(self.support, self.step_codes))
        return tuple([(step[nu], c) for nu, c in self.generator(g)]
                     for g in self.generator_indices)

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


def lacking_variables(mode: str, degree: Optional[int],
                      m: ConeMonomial) -> Tuple[int, ...]:
    """The variables i >= 1 (the implicit one included) that do not divide
    the cone monomial m; none in toric mode, which restricts no
    divisibility.  degree is the homogeneity degree D in projective mode."""
    if mode == "toric":
        return ()
    d, mu = m
    if mode == "projective":
        mu += (d * degree - sum(mu),)
    return tuple(i for i, x in enumerate(mu, 1) if x < 1)


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


class Layer(NamedTuple):
    """The cone monomials of one weight degree d: the lattice points of
    d * Delta in the term order, their codes and the variables each lacks
    (lacking_variables); and the columns, the monomials that lack none (the
    ones the mode allows), and their codes."""

    monomials: Tuple[ConeMonomial, ...]
    codes: Tuple[int, ...]
    lacking: Tuple[Tuple[int, ...], ...]
    columns: Tuple[ConeMonomial, ...]
    column_codes: Tuple[int, ...]


class SupportPlan(NamedTuple):
    """What the solves of one support shape share, whatever p and the
    coefficients: the rank v (expected_rank), the hull of the working
    support, the Layer of each degree 0..top, top = n_eff + 2, and for
    each top-degree column (top, mu0), in order, the heights n.mu0 over the
    facets (n, b) of the hull, in order, which reduction's divisor policy
    compares with the facet bounds."""

    v: int
    poly: LatticePolytope
    layers: Tuple[Layer, ...]
    top_heights: Tuple[Tuple[int, ...], ...]

    @property
    def top(self) -> int:
        return len(self.layers) - 1


def support_plan(mode: str, exponents: Iterable[Sequence[int]]) -> SupportPlan:
    """The plan of an input with these exponents in this mode; the input
    must satisfy check_terms.  Plans are kept per (mode, exponents), so
    inputs of different modes never share one, even on one working
    support."""
    return _support_plan(mode, tuple(sorted(tuple(int(c) for c in nu)
                                            for nu in exponents)))


@lru_cache(maxsize=SHAPE_PLANS)
def _support_plan(mode: str, exps: Tuple[Tuple[int, ...], ...]
                  ) -> SupportPlan:
    v = expected_rank(mode, exps)
    degree = sum(exps[0]) if mode == "projective" else None
    poly = hull(working_exponent(mode, nu) for nu in exps)
    top = poly.dim + 2
    check_code_bound(top, poly.vertices)
    layers = []
    for d in range(top + 1):
        # Sorted lattice points are already in the term order.
        monomials = tuple((d, mu) for mu in lattice_points(poly, d))
        codes = tuple(map(encode, monomials))
        lacking = tuple(lacking_variables(mode, degree, m) for m in monomials)
        keep = [i for i, lack in enumerate(lacking) if not lack]
        layers.append(Layer(monomials, codes, lacking,
                            tuple(monomials[i] for i in keep),
                            tuple(codes[i] for i in keep)))
    top_heights = tuple(tuple(sum(map(mul, n, mu0)) for n, _ in poly.facets)
                        for _, mu0 in layers[top].columns)
    return SupportPlan(v, poly, tuple(layers), top_heights)


@dataclass
class DegreeEchelon:
    """Relation matrix of one weight degree, row-reduced, each row with its
    image block (module docstring).

    layer is the plan's Layer of the degree, cofactor_codes the codes of
    the cofactors (the monomials of the layer below), and index maps the
    code of each column to its position.  Rows are sparse: M[i] maps a
    column index, or the key ncols + width * c + slot of an image entry
    (the c-th cofactor, slot), to a nonzero entry.  The rows stay in the
    order they were built.  pivot_rows maps each pivot column to its row of
    M, in the order the pivots were found; a pivot entry is 1 and its
    column has no other nonzero entry.  Each pivot row is the sparsest
    unused row with a unit entry in its column when that column is reached;
    another choice gives other image blocks, but the same pivot columns, the
    same column entries and so the same V and Frobenius matrix (module
    docstring).
    """

    layer: Layer
    cofactor_codes: Sequence[int]
    index: Dict[int, int]
    M: List[SparseRow]
    pivot_rows: Dict[int, int]


@dataclass
class EchelonData:
    """The reduction operators of degrees 0..plan.top: ops[d][j] is the
    operator of plan.layers[d].columns[j], and index[d] maps the code of
    each column of degree d to its position."""

    lifted: LiftedInput
    plan: SupportPlan
    index: List[Dict[int, int]]
    ops: List[List[Operator]]


@dataclass
class MonomialBasis:
    """The non-pivot cone monomials V (degree-graded, in term order), a basis
    of the quotient."""

    V: List[ConeMonomial]

    @property
    def v(self) -> int:
        return len(self.V)


def _row_reduce(ring: RingContext, rows: List[SparseRow], ncols: int,
                degree: int) -> List[Tuple[int, int]]:
    """In-place reduced row echelon form with unit pivots on the columns
    0..ncols-1; returns the (row, column) pivots in the order found.  Rows
    keep their places.

    rows are sparse; keys from ncols on are carried along by every row
    operation.  Entries that cancel are dropped.

    Columns are scanned from the largest monomial down, so that the free
    (non-pivot) columns, which become the quotient basis, are the smallest
    monomials.  The pivot of column j is the unused row with a unit entry
    there and the fewest entries, ties to the lowest index (module
    docstring).  holders[j], the rows with a nonzero entry in column j, is
    kept up to date by the row operations, so no pivot scans every row.

    R is local: a column whose remaining entries are nonzero but all divisible
    by p admits no unit pivot, which is exactly the degeneracy signal.
    """
    zero, mul, muladd, is_unit = ring.zero, ring.mul, ring.muladd, ring.is_unit
    holders: List[Set[int]] = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for k in row:
            if k < ncols:
                holders[k].add(i)
    used: Set[int] = set()
    pivots: List[Tuple[int, int]] = []
    for j in range(ncols - 1, -1, -1):
        free = holders[j] - used
        if not free:
            continue
        units = [i for i in free if is_unit(rows[i][j])]
        if not units:
            raise NondegeneracyFailure(
                f"relation matrix in degree {degree}: column {j} has only "
                "p-divisible entries left, so no unit pivot exists; the "
                "input fails the face-wise nondegeneracy condition at the "
                "working precision")
        r = min(units, key=lambda i: (len(rows[i]), i))
        inv = ring.inv(rows[r][j])
        prow = rows[r] = {k: mul(inv, e) for k, e in rows[r].items()}
        for i in holders[j] - {r}:
            row = rows[i]
            c = ring.neg(row[j])
            get = row.get
            for k, b in prow.items():
                old = get(k)
                x = mul(c, b) if old is None else muladd(c, b, old)
                if x != zero:
                    row[k] = x
                    if old is None and k < ncols:
                        holders[k].add(i)
                elif old is not None:
                    del row[k]
                    if k < ncols:
                        holders[k].discard(i)
        holders[j] = {r}
        used.add(r)
        pivots.append((r, j))
    return pivots


def echelon_of_degree(lifted: LiftedInput, plan: SupportPlan,
                      d: int) -> DegreeEchelon:
    """Build and row-reduce the relation rows of degree d, each with its
    image block (module docstring).

    plan is the support_plan of lifted's input.  The columns are those of
    its layer d, the cofactors of generator g the cone monomials of its
    layer d-1 (none at d = 0) that every variable but x_g divides: those
    whose lacking variables (lacking_variables) are none or g alone.
    Every generator term has degree 1: the row of cofactor (d-1, mu) has
    its terms at (d, mu+nu)."""
    ring = lifted.ring
    layer = plan.layers[d]
    # The monomials, codes and lacking variables of layer d-1; none at 0.
    cofactors, cofactor_codes, lacking = (plan.layers[d - 1][:3] if d
                                          else ((), (), ()))
    index = {c: j for j, c in enumerate(layer.column_codes)}
    ncols, width = len(layer.columns), len(lifted.generator_indices) + 1
    M: List[SparseRow] = []
    for s, (gi, terms) in enumerate(
            zip(lifted.generator_indices, lifted.coded_generators), 1):
        allowed = ((), (gi,))
        for ci, m in enumerate(cofactors):
            if lacking[ci] not in allowed:
                continue
            code = cofactor_codes[ci]
            row: SparseRow = {}
            for off, c in terms:
                j = index.get(code + off)
                if j is None:
                    raise NondegeneracyFailure(
                        f"relation row {m} * generator {gi} leaves the "
                        f"restricted monomial span in degree {d}")
                row[j] = c
            key = ncols + ci * width
            alpha = ring.smul(-lifted.var_exponent(gi, m), ring.one)
            if not ring.is_zero(alpha):
                row[key] = alpha
            row[key + s] = ring.one
            M.append(row)
    pivots = _row_reduce(ring, M, ncols, d)
    return DegreeEchelon(layer=layer, cofactor_codes=cofactor_codes,
                         index=index, M=M,
                         pivot_rows={j: r for r, j in pivots})


def compile_column(lifted: LiftedInput, de: DegreeEchelon, j: int,
                   position: Dict[int, int]) -> Operator:
    """The reduction operator of column j of de, in the form the reduction
    sweep reads (module docstring): the column entries of its pivot row
    besides j give the residual, the image keys, grouped by cofactor mr,
    the image entries (code(mr) - code(column j), alpha, gamma).

    position maps each non-pivot column of de that lies in V to its index in
    V.  A residual on any other column (a top-degree column without a pivot,
    or whose pivot row has entries besides the pivot) contradicts the theory.
    """
    ring, columns = lifted.ring, de.layer.columns

    def index_in_V(k: int) -> int:
        idx = position.get(k)
        if idx is None:
            raise PrecisionOrLogicError(
                f"column {columns[j]} leaves a residual on "
                f"{columns[k]}, which is not in the basis V")
        return idx

    r = de.pivot_rows.get(j)
    if r is None:
        return [(index_in_V(j), ring.one)], []
    residual = []
    ncols, width = len(columns), len(lifted.generator_indices) + 1
    # cofactor index -> [alpha, beta_g for g in generator_indices]
    image: Dict[int, List[RingElement]] = {}
    for k, c in de.M[r].items():
        if k < ncols:
            if k != j:
                residual.append((index_in_V(k), ring.neg(c)))
            continue
        ci, s = divmod(k - ncols, width)
        acc = image.get(ci)
        if acc is None:
            acc = image[ci] = [ring.zero] * width
        acc[s] = c
    normalize, forms = ring.normalize, lifted.exponent_forms
    at, cofactor_codes = de.layer.column_codes[j], de.cofactor_codes
    entries = []
    for ci, (alpha, *beta) in image.items():
        # gamma is beta read through the forms, which are the unit vectors
        # outside projective mode.
        gamma = tuple(beta) if lifted.mode != "projective" else tuple(
            normalize(sum(map(mul, beta, form))) for form in forms)
        entries.append((cofactor_codes[ci] - at, alpha,
                        gamma if any(gamma) else ()))
    return residual, entries


def build_jacobian(lifted: LiftedInput, plan: SupportPlan
                   ) -> Tuple[EchelonData, MonomialBasis]:
    """Row-reduce the relation matrices for degrees 0..top, read off V and
    compile every column's reduction operator.

    plan is the support_plan of lifted's input, and its layers are the
    degrees 0..top, top = n_eff + 2; the quotient basis lives in degrees
    <= n_eff + 1 and the top-degree matrix must have a pivot in every
    column.  |V| must equal plan.v, the expected_rank of the input, or the
    input is degenerate.
    """
    index: List[Dict[int, int]] = []
    ops: List[List[Operator]] = []
    # Each degree appends its non-pivot columns in ascending order, so V
    # comes out in the term order.
    V: List[ConeMonomial] = []

    for d, layer in enumerate(plan.layers):
        de = echelon_of_degree(lifted, plan, d)
        nonpivot = [j for j in range(len(layer.columns))
                    if j not in de.pivot_rows]
        if d == plan.top and nonpivot:
            raise NondegeneracyFailure(
                f"top-degree relation matrix (degree {d}) is not of full "
                f"column rank: {len(nonpivot)} monomial(s) remain unreduced; "
                "the input is degenerate")
        position = {j: len(V) + i for i, j in enumerate(nonpivot)}
        V.extend(layer.columns[j] for j in nonpivot)
        index.append(de.index)
        ops.append([compile_column(lifted, de, j, position)
                    for j in range(len(layer.columns))])

    basis = MonomialBasis(V=V)
    if basis.v != plan.v:
        raise NondegeneracyFailure(
            f"quotient basis has cardinality {basis.v}, expected the rank "
            f"{plan.v} of a nondegenerate input with this support; the "
            "input is degenerate")
    degree0 = [m for m in basis.V if m[0] == 0]
    if lifted.mode == "toric" and degree0 != [(0, (0,) * lifted.n_eff)]:
        raise NondegeneracyFailure(
            "degree-0 part of the basis is not the single monomial 1")
    return EchelonData(lifted=lifted, plan=plan, index=index, ops=ops), basis
