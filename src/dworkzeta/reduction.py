"""Reduction of cone elements to coordinates on the quotient basis V.

The relations used are the vanishing, in the quotient, of the operators
D_i = x_i d/dx_i + (pi*w) f_i (with x_0 = w and f_0 = f): for any cofactor
monomial m the product m * (pi*w) f_i is congruent to -x_i d(m)/dx_i, which
has weight degree one smaller.  Divisions never occur: the recorded echelon
transforms supply the row combination eta with xi = eta.J + v, and the
derivative operator only multiplies coefficients by integer exponents.

High degrees (>= top) are cleared by factoring the current leading slice as
m * (degree-top monomials) and rewriting through the full-column-rank
top-degree matrix; then a single sweep from degree top-1 down to 1 splits each
slice into its residual on V plus relation rows pushed one degree lower.

The element being reduced is a dict of nonzero terms.  Its leading monomial
comes from a heap with lazy deletion: a monomial is pushed when it enters the
dict, and stale entries are dropped when they surface.  Slices are passed to
DegreeEchelon.solve as sparse vectors, and only the nonzero entries of the
returned eta and v are walked.
"""

from __future__ import annotations

import heapq
import operator
from typing import List, Optional, Tuple

from .cone_algebra import ConeElement, ConeMonomial, term_order_key
from .errors import DecompositionError, NonTermination, PrecisionOrLogicError
from .jacobian import EchelonData, MonomialBasis
from .padic import RingElement


def _default_divisor_policy(candidates: List[ConeMonomial],
                            lm: ConeMonomial, ech: EchelonData
                            ) -> Optional[ConeMonomial]:
    """First monomial m0 of top degree with lm - m0 still in the cone."""
    d, mu = lm
    k = d - ech.top
    for m0 in candidates:
        diff = tuple(a - b for a, b in zip(mu, m0[1]))
        if ech.poly.contains(diff, k):
            return m0
    return None


def reduce(G: ConeElement, ech: EchelonData, basis: MonomialBasis
           ) -> List[RingElement]:
    """Coordinates of the class of G on the basis V."""
    ring = ech.lifted.ring
    lifted = ech.lifted
    top = ech.top
    top_ech = ech.by_degree[top]
    zero, add = ring.zero, ring.add
    terms = dict(G.terms)
    basis_index = {m: i for i, m in enumerate(basis.V)}
    out = [zero] * basis.v

    # Max-heap of the monomials of terms, keyed by the negated term order.
    # A monomial is pushed when it enters terms; entries whose monomial has
    # left terms since are skipped when they reach the top (lazy deletion).
    heap = [(_neg_key(m), m) for m in terms]
    heapq.heapify(heap)

    def leading() -> Optional[ConeMonomial]:
        while heap:
            m = heap[0][1]
            if m in terms:
                return m
            heapq.heappop(heap)
        return None

    def accumulate(m: ConeMonomial, c: RingElement) -> None:
        old = terms.get(m)
        total = c if old is None else add(old, c)
        if total == zero:
            terms.pop(m, None)
            return
        if old is None:
            heapq.heappush(heap, (_neg_key(m), m))
        terms[m] = total

    # High-degree loop: strictly decreasing leading monomial.
    guard = 0
    # Each iteration strictly lowers the leading monomial, so the iteration
    # count is at most the number of cone monomials up to the starting degree.
    d0 = max((m[0] for m in terms), default=0)
    max_iterations = ech.poly.nvol * (d0 + 2) ** (lifted.n_eff + 1) + d0 + 16
    lm = leading()
    while lm is not None and lm[0] >= top:
        guard += 1
        if guard > max_iterations:
            raise NonTermination(
                "leading degree failed to drop within the iteration budget")
        m0 = _default_divisor_policy(top_ech.columns, lm, ech)
        if m0 is None:
            raise DecompositionError(
                f"no top-degree divisor monomial for {lm}: the cone "
                "decomposition has no factor available")
        k = lm[0] - top
        m_mu = tuple(map(operator.sub, lm[1], m0[1]))
        # Move the slice of terms lying in m * (top-degree columns) into xi.
        xi = {}
        for j, (_dc, muc) in enumerate(top_ech.columns):
            c = terms.pop((lm[0], tuple(map(operator.add, m_mu, muc))), None)
            if c is not None:
                xi[j] = c
        eta, v = top_ech.solve(ring, xi)
        if v:
            raise PrecisionOrLogicError(
                "top-degree solve left a nonzero residual despite full rank")
        # Replace by -sum_i x_i d(m * eta_i)/dx_i, one degree lower.
        for r, er in eta.items():
            gi, mr = top_ech.row_meta[r]
            mono = (k + mr[0], tuple(map(operator.add, m_mu, mr[1])))
            mult = lifted.var_exponent(gi, mono)
            if mult:
                accumulate(mono, ring.smul(-mult, er))
        new_lm = leading()
        if new_lm is not None and term_order_key(new_lm) >= term_order_key(lm):
            raise NonTermination(
                f"leading monomial failed to decrease: {lm} -> {new_lm}")
        lm = new_lm

    # Low-degree sweep.
    for d in range(top - 1, 0, -1):
        de = ech.by_degree[d]
        xi = {}
        for m in [m for m in terms if m[0] == d]:
            j = de.col_index.get(m)
            if j is None:
                raise PrecisionOrLogicError(
                    f"monomial {m} violates the mode restriction during reduction")
            xi[j] = terms.pop(m)
        if not xi:
            continue
        eta, v = de.solve(ring, xi)
        for j, c in v.items():
            mono = de.columns[j]
            idx = basis_index.get(mono)
            if idx is None:
                raise PrecisionOrLogicError(
                    f"residual on non-basis monomial {mono} in degree {d}")
            out[idx] = add(out[idx], c)
        for r, er in eta.items():
            gi, mr = de.row_meta[r]
            mult = lifted.var_exponent(gi, mr)
            if mult:
                accumulate(mr, ring.smul(-mult, er))

    # Degree 0: only the unit monomial can remain (toric mode).
    for m, c in terms.items():
        if m[0] != 0:
            raise PrecisionOrLogicError(f"unreduced monomial {m} after the sweep")
        idx = basis_index.get(m)
        if idx is None:
            raise PrecisionOrLogicError(
                f"degree-0 residual {m} lies outside the basis")
        out[idx] = add(out[idx], c)
    return out


def _neg_key(m: ConeMonomial) -> Tuple[int, ...]:
    """Heap key: the term order reversed, so the heap's minimum is the leading
    monomial."""
    return (-m[0],) + tuple(-c for c in m[1])
