"""Frobenius images of basis monomials on the cone.

For each basis monomial (pi*w)^d x^mu we compute the truncation mod p^N_work
of alpha((pi*w)^d x^mu) = psi(F * (pi*w)^d x^mu), where F is the product of
splitting-series factors theta(a_nu w x^nu) over the support of f and psi
divides all exponents by p (dropping non-divisible terms) and applies the
inverse Frobenius to coefficients.  The auxiliary global factor pi^d used to
keep every coefficient in R is a formal tag carried by the caller; it cancels
at matrix assembly because both sides of the matrix carry the same grading.

expand_frobenius does this by "fewnomial" enumeration.  Write the multi-index
of F as k + p*e with k in {0..p-1}^s.  Terms survive psi exactly when
U*k = -(d, mu) mod p, where U has columns (1, nu) over the lifted support;
then U*k + (d, mu) = p*(bw, base_x).  Each term contributes

    (-1)^(bw+|e|) * p^(bw+|e|) * prod_i ell_{k_i+p e_i}
        * sigma^{-1}(a^k) * a^e   on the monomial (bw+|e|, base_x + e.nu)

with bw = (|k|+d)/p; the p-power always clears the ell denominators (their
total exponent is at most bw + |e| for p >= 3), and the cleared coefficient
lies in R.  Only terms that are individually 0 mod p^N_work are dropped, so
the output is exactly the truncation of alpha.

The solutions k fall into image classes, one per (bw, base_x); for each e
every k of a class lands on the same monomial with the same factor
(-1)^|e| a^e.  So the ring products are paid once per (class, e) pair, not
once per term.  One routine, _walk, takes the e_j of a list of support
points, the levels, under room = N_work - bw.  It extends a list of partial
terms (net, numerator, packed e), from (0, its start numerator, 0), with
net = |e| - delta over the levels so far and delta their ell-denominator
exponent, by every choice of e_j, and cuts a choice once

    net + e_j - d(p, k_j + p*e_j) >= room.

bw plus the left side bounds the net p-power of every completion from
below, and the left side grows with e_j, because d(p, i) = 0 for i < p and
d(p, i + p) <= d(p, i) + 1.  It also cuts every choice with |e| >= E:
since bw >= |k|/p and d(p, i) <= i(2p-1)/(p^2(p-1)), bw plus the left side
is at least |e|/beta >= N_work + gamma, with beta and gamma those of
truncation_bound.  ell_{k_j+p*e_j} and its bound are read from the column
of the residue k_j: for e_j = 0, 1, ..., E-1 the gain e_j - d(p, k_j +
p*e_j), the step e_j - (denominator exponent of the ell), and the ell
numerator.  The gains and steps of a column are its profile.  A choice is
also dropped once net + step >= room.  Every step is >= 0: it is at least
the gain, since compute_splitting keeps each denominator exponent within
d, and d(p, k + p*e) <= e for k < p and p >= 3; _series_tables raises
InternalPrecisionError, once per (p, N_work, E), on a series where a step
is not.  So every completion of a dropped term has a net >= room, and
_walk returns exactly the completions whose net, the sum of their steps,
is below room, in whatever order it takes the levels.

A group is the solutions of one class whose residues have the same profile
in every slot.  Its members see the same cuts, nets and e, and only the
numerators differ: the numerator product X_k of each member.  Each term
whose net p-power final = bw + net is below N_work adds

    p^final * X_k * (-1)^bw sigma^{-1}(a^k)   mod p^N_work

per member k to its class's sum for its e.  A slot of a group is shared
when every member has the same residue there, and so the same ell, and
varying otherwise.  A one-member group, the rule at small p (every group of
the small-p benchmark), has no varying slot; in an elliptic curve, y^2 pins
k_j = (p-1)/2 for every solution.  The expansion calls _walk twice per
group.  The shared slots are walked once, as plain ints from 1: a shared
leaf (net, X, packed e) holds X, the product of their ell numerators.  The
varying slots are walked as one vector.  It starts as the coordinates
s_(i,k) in [0, p^N_work) of each member's (-1)^bw sigma^{-1}(a^k), a per
member: first coordinate 0 of every member, then coordinate 1, and so on
(at a = 1 the one coordinate is the element).  An extension is one
map(mul, ...) against the members' ell numerators, repeated a times to
match, so entry (i, k) of a varying leaf is s_(i,k) times the member's
numerator product over the varying slots.  Each varying leaf becomes the
element D whose coordinate i is D_i mod p^N_work, D_i the sum of the
entries (i, k) over the members.  A one-member group has no varying level,
so its one varying leaf is its start and D its own (-1)^bw
sigma^{-1}(a^k); a group whose every slot varies has no shared level, so
its one shared leaf is (0, 1, 0).  One loop then pairs them: for each
varying leaf and each shared leaf whose nets sum below room, it adds
(p^final * X mod p^N_work) * D to the class sum for the sum of their
packed e.  Since both nets are sums of steps >= 0, the pairs kept are
exactly the terms of the group, and coordinate i of what a pair adds is
p^final * X * D_i mod p^N_work, the sum over the members of p^final * X_k
* s_(i,k), since X_k is X times the member's product over the varying
slots: the sum of the members' terms above.  Reducing is exact however
large D_i and X grow: p^f * (X mod p^(N-f)) * s = p^f * X * s mod p^N for
every integer s.  At p = 271 each of a target's 5 classes is one group, of
up to 90 members, and the shared slot of y^2 walked as an int, not as a
vector, halves the products of vector entries of the large-p benchmark
(260,546 to 127,006 per pass).  The shared slots' sigma^{-1}(a_j)^(k_j)
are multiplied once per group, into the factor every member's start
shares.  Since the slots are walked out of order, each choice adds e_j at
its slot's position in packed e.  The image classes themselves come from
the slot columns: coordinate r of (U*k + (d, mu))/p for every solution k is
one map per support point over k_j of every solution, not one sum per
solution.

Each class sum is normalized once and multiplied once by (-1)^|e| a^e, and
the product is added unreduced to one integer per monomial; each monomial
sum becomes a ring element once, by ring.normalize, at the end.  Both kinds
of sum stay within the headroom of padic.normalize: a class sum receives at
most one term per group and e (the pairs of a group have distinct e, since
their two walks fill disjoint slots), the element D times an integer in
[0, p^N_work), so at most p^(s - rank U) terms; a monomial sum has at most
one product per (class, e) pair; both counts are far below 2^64 - 1.

Every monomial lies in the cone over the polytope, and the expansion checks
that without testing each monomial.  A monomial is (bw + |e|, base_x +
e.nu): a class point (bw, base_x) plus a power-table entry (|e|, e.nu).
power_table checks once per solve that every support point lies in Delta,
so every entry, a sum of |e| support points, lies in |e|Delta; the class
point of each class is checked once per expansion; the cone is convex and
closed under sums, so the monomial is in it.  Either check raises
PrecisionOrLogicError.  For valid input neither can fail: the polytope is
the hull of the support, and p*base_x = sum_j k_j nu_j + mu lies in
(|k| + d) Delta = p*bw*Delta.

The output is keyed by monomial codes (cone_algebra), as the reduction
reads it.  A code is linear in the monomial up to the bias code(1), so the
code of a monomial is encode((bw, base_x)), once per class, plus the code
offset of (|e|, e.nu), a sum of |e| support points' step codes
(LiftedInput.step_codes) that the power table keeps.  Every monomial has
degree below max bw + E, and the expansion checks the code bound there
once (check_code_bound).

Two bounded caches hold what depends on no coefficient of the input, as
immutable values.  splitting_for keeps the SeriesTables of the last
(p, N_work, E): the column, ell numerators and profile id of every residue
c < p, read off the series, which is not kept.  target_plan keeps the
groups of the last TARGET_PLANS keys (working support, p, N_work, E,
target): the congruence solutions, each checked for divisibility when its
key is first built, split by image class and profiles, each group with
its split into varying and shared slots and, per varying slot, the column
of its members' ell numerators (not repeated a times: the key has no a,
and a solve repeats them).  So the expansions of a solve, and of the next
solve of the same support at the same p, N_work and E, read the same
values.  What depends on the input is built once per solve by
power_table: sigma^{-1}(a_j)^c for c < p, one incremental list per slot,
and the entries (code offset of (|e|, e.nu), (-1)^|e| a^e), one per
distinct e, filled as the expansions reach them.  e is packed into one int,
e_j in a slot of E.bit_length() bits, the last support point in the lowest
slot; each entry is built from e minus one in its lowest nonzero slot, with
one add and one mul.

check_enumeration refuses, with BudgetExceeded, an expansion whose
congruence solutions or series coefficients exceed DEFAULT_BUDGET.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, product, repeat
from math import ceil
from operator import add, mul, sub
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple, Union

from .cone_algebra import ConeElement, ConeMonomial, check_code_bound, encode
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    InternalPrecisionError,
    PrecisionOrLogicError,
)
from .gf import row_reduce
from .jacobian import LiftedInput
from .padic import RingContext, RingElement
from .polytope import LatticePolytope
from .splitting import compute_splitting, d_bound


TARGET_PLANS = 64  # (support, p, N_work, E, target) keys kept by target_plan


def _support_matrix(support: Sequence[Sequence[int]]) -> List[List[int]]:
    """U: one column (1, nu) per point nu of the working support."""
    return [[1] * len(support)] + [list(row) for row in zip(*support)]


def solve_congruence(U: Sequence[Sequence[int]], target: Sequence[int],
                     p: int) -> List[Tuple[int, ...]]:
    """All e in {0..p-1}^s with U*e = target mod p, in lexicographic order of
    the free-coordinate assignment; empty if the system is inconsistent."""
    s = len(U[0])
    aug = [[u % p for u in row] + [t % p] for row, t in zip(U, target)]
    pivots = row_reduce(aug, s, p)
    if any(row[s] for row in aug[len(pivots):]):
        return []  # inconsistent
    free = [j for j in range(s) if j not in pivots]
    assigns = list(product(range(p), repeat=len(free)))
    # Coordinate j of every solution, in the order of assigns.
    coords: List[Sequence[int]] = [()] * s
    for j, col in zip(free, zip(*assigns)):
        coords[j] = col
    for row, j in zip(aug, pivots):
        weights = [row[jf] for jf in free]
        coords[j] = [(row[s] - sum(map(mul, weights, a))) % p for a in assigns]
    return list(zip(*coords))


def check_enumeration(lifted: LiftedInput, v: int, E: int) -> None:
    """Raise BudgetExceeded unless the expansions of v basis monomials fit
    DEFAULT_BUDGET: at most v * p^(s - rank U) congruence solutions, and the
    p*E splitting coefficients they read."""
    p = lifted.ring.p
    U = _support_matrix(lifted.support)
    s = len(U[0])
    rank = len(row_reduce([[u % p for u in row] for row in U], s, p))
    for count, what in ((v * p ** (s - rank), "congruence solutions"),
                        (p * E, "splitting coefficients")):
        if count > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"the Frobenius expansion needs {count} {what}, more than "
                f"the budget of {DEFAULT_BUDGET}")


def truncation_bound(p: int, n_eff: int, N_work: int) -> int:
    """Cutoff E on the total e-exponent: terms with |e| >= E vanish mod p^N_work."""
    beta = Fraction(p * p - p, p * p - 3 * p + 1)
    gamma = Fraction(n_eff + 1, p * p - p)
    return ceil(beta * (N_work + gamma))


# (gain, step, ell numerator, e_j) for e_j = 0, 1, ..., E-1; see the
# module docstring.
Column = Tuple[Tuple[int, int, int, int], ...]
# The numerator of a partial term: an int, or one int per member coordinate.
Numerator = Union[int, List[int]]


class SeriesTables(NamedTuple):
    """For every residue c < p, read off the splitting coefficients ell_i,
    i < p*E: its column, its ell numerators and its profile id (residues
    with equal gains and steps share one)."""

    E: int
    columns: Tuple[Column, ...]
    ells: Tuple[Tuple[int, ...], ...]
    profiles: Tuple[int, ...]


def splitting_for(ring: RingContext, E: int) -> SeriesTables:
    """The tables of the expansions mod p^N_work with cutoff E."""
    return _series_tables(ring.p, ring.N, E)


@lru_cache(maxsize=1)
def _series_tables(p: int, N_work: int, E: int) -> SeriesTables:
    # Splitting coefficients are consumed at indices k + p*e < p*E.
    series = compute_splitting(p, N_work, p * E)
    ejs = range(E)
    columns, ells, profiles = [], [], []
    ids: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int] = {}
    for c in range(p):
        denom_exps, ell = zip(*series[c::p])
        gains = tuple([ej - d_bound(p, c + p * ej) for ej in ejs])
        net_steps = tuple(map(sub, ejs, denom_exps))
        if min(net_steps) < 0:
            raise InternalPrecisionError(
                f"a splitting coefficient ell_(c + p*e_j) of residue c = {c} "
                "has a denominator exponent above e_j: a negative step")
        columns.append(tuple(zip(gains, net_steps, ell, ejs)))
        ells.append(ell)
        profiles.append(ids.setdefault((gains, net_steps), len(ids)))
    return SeriesTables(E, tuple(columns), tuple(ells), tuple(profiles))


class PowerTable(NamedTuple):
    """The step (-a_j, code offset of (1, nu_j)) of each slot, lowest slot
    first; the powers sigma^{-1}(a_j)^c, c < p, of each slot; and the
    entries, packed e -> (code offset of (|e|, e.nu), (-1)^|e| a^e), holding
    e = 0 until _power_entry fills them in.  The expansions of one solve
    share one table; they share one E too, whose bit length is the slot
    width of packed e."""

    steps: List[Tuple[RingElement, int]]
    sigma_powers: List[List[RingElement]]
    entries: Dict[int, Tuple[int, RingElement]]


def power_table(lifted: LiftedInput, poly: LatticePolytope) -> PowerTable:
    """The power table of one solve's lifted input, whose support must lie
    in poly (module docstring)."""
    ring, coeffs, support = lifted.ring, lifted.coeffs, lifted.support
    for nu in support:
        if not poly.contains(nu, 1):
            raise PrecisionOrLogicError(
                f"power-table entry {(1, nu)} escapes the cone over the "
                "polytope")
    # sigma^{-1}(a_j) for Teichmueller coefficients is a_j^(q/p)
    roots = [ring.pow(aj, ring.q // ring.p) for aj in coeffs]
    return PowerTable(
        list(zip(map(ring.neg, coeffs[::-1]), lifted.step_codes[::-1])),
        [list(accumulate(repeat(sj, ring.p - 1), ring.mul, initial=ring.one))
         for sj in roots],
        {0: (0, ring.one)})


def _power_entry(ring: RingContext, powers: PowerTable, packed: int,
                 width: int) -> Tuple[int, RingElement]:
    """The entry of packed e, built from e minus one in its lowest nonzero
    slot."""
    j = ((packed & -packed).bit_length() - 1) // width
    prev = packed - (1 << width * j)
    off, apow = (powers.entries.get(prev)
                 or _power_entry(ring, powers, prev, width))
    neg_aj, step = powers.steps[j]
    entry = powers.entries[packed] = (off + step, ring.mul(apow, neg_aj))
    return entry


class Group(NamedTuple):
    """The solutions k of one image class whose residues have the same
    profile in every slot (module docstring).  A slot is varying when its
    residue differs between members and shared when every member has the
    same one; a one-member group has no varying slot.  The split and the
    columns below depend on no coefficient of the input."""

    image: Tuple[int, ...]  # the class point (bw, *base_x)
    residues: Tuple[Tuple[int, ...], ...]  # per slot j, k_j of each member
    # Per varying slot, in slot order: j and its column, with the tuple of
    # the members' ell numerators in place of one numerator.
    varying: Tuple[Tuple[int, Column], ...]
    # Per shared slot, in slot order: j and the residue k_j.
    shared: Tuple[Tuple[int, int], ...]


def _walk(levels: Sequence[Tuple[Column, int]], numer: Numerator, room: int,
          times: Callable[[Numerator, object], Numerator],
          ) -> List[Tuple[int, Numerator, int]]:
    """Every completion (net, numerator, packed e) of the walk from net 0,
    numerator numer and e = 0 over levels, each a column and the position
    of its e_j in packed e, whose net p-power stays below room; times
    extends a numerator by an ell (module docstring)."""
    terms = [(0, numer, 0)]
    for col, pos in levels:
        extended = []
        for net, numer, packed in terms:
            left = room - net
            for gain, step, ell, ej in col:
                if gain >= left:
                    break
                if step >= left:
                    continue
                extended.append((net + step, times(numer, ell),
                                 packed + (ej << pos)))
        terms = extended
    return terms


def _times_each(numer: List[int], ells: Sequence[int]) -> List[int]:
    """The numerator product of a vector walk: entry by entry."""
    return list(map(mul, numer, ells))


@lru_cache(maxsize=TARGET_PLANS)
def target_plan(support: Tuple[Tuple[int, ...], ...], p: int, N_work: int,
                E: int, target: ConeMonomial) -> Tuple[Group, ...]:
    """The groups of the expansion of target over this working support at
    p, N_work and E, in order of appearance: the solutions k of
    U*k = -(d, mu) mod p, split by image class and by the profiles of their
    residues in the SeriesTables of (p, N_work, E), each group with its
    varying and shared slots."""
    tables = _series_tables(p, N_work, E)
    profiles, columns, ells = tables.profiles, tables.columns, tables.ells
    U = _support_matrix(support)
    d, mu = target
    offset = (d,) + mu
    solutions = solve_congruence(U, [-t % p for t in offset], p)
    # slots[j]: k_j of every solution.
    slots = list(zip(*solutions))
    # (U*k + (d, mu))/p = (bw, base_x) for every k, one coordinate at a
    # time, as a combination of the slot columns.
    image = []
    for row, t in zip(U, offset):
        coord = [t] * len(solutions)
        for u, kjs in zip(row, slots):
            if u:
                coord = list(map(add, coord, map(u.__mul__, kjs)))
        if any(map(p.__rmod__, coord)):
            k = next(k for k, c in zip(solutions, coord) if c % p)
            raise PrecisionOrLogicError(
                f"congruence solution {k} fails divisibility by p")
        image.append(list(map(p.__rfloordiv__, coord)))
    # The groups: the solutions of one image class (bw, *base_x) whose
    # residues have the same profile in every slot, in order of appearance.
    members: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]],
                  List[Tuple[int, ...]]] = {}
    for group, k in zip(zip(zip(*image), zip(*[map(profiles.__getitem__, kjs)
                                                for kjs in slots])),
                        solutions):
        members.setdefault(group, []).append(k)
    groups = []
    for (image_k, _), ks in members.items():
        residues = tuple(zip(*ks))
        varying, shared = [], []
        for j, kjs in enumerate(residues):
            if len(set(kjs)) > 1:
                varying.append((j, tuple(
                    (gain, step, ell, ej) for (gain, step, _, ej), ell in
                    zip(columns[kjs[0]], zip(*map(ells.__getitem__, kjs))))))
            else:
                shared.append((j, kjs[0]))
        groups.append(Group(image_k, residues, tuple(varying), tuple(shared)))
    return tuple(groups)


def expand_frobenius(target: ConeMonomial, lifted: LiftedInput,
                     poly: LatticePolytope, tables: SeriesTables,
                     powers: PowerTable) -> ConeElement:
    """Fewnomial-enumeration expansion of alpha((pi*w)^d x^mu) mod p^N_work,
    keyed by monomial codes, with tables = splitting_for(ring,
    truncation_bound(p, n_eff, N_work)) and powers = power_table(lifted,
    poly)."""
    ring = lifted.ring
    p, N_work, modulus, normalize = ring.p, ring.N, ring.modulus, ring.normalize
    a, shifts = ring.a, ring.shifts
    entries, sigma_powers = powers.entries, powers.sigma_powers
    columns = tables.columns
    width = tables.E.bit_length()
    # The position of e_j in packed e, the last support point lowest.
    positions = [width * j for j in reversed(range(len(lifted.support)))]
    groups = target_plan(lifted.support, p, N_work, tables.E, target)
    # Every monomial has degree bw + |e| < bw + E.
    check_code_bound(max((group.image[0] for group in groups), default=0)
                     + tables.E, poly.vertices)

    # Per class: packed e -> unreduced sum of the elements its leaves add.
    sums: Dict[Tuple[int, ...], Dict[int, int]] = {}
    p_pows = [p ** net for net in range(N_work)]
    signs = (ring.one, ring.neg(ring.one))
    for image_k, residues, varying, shared in groups:
        class_sums = sums.setdefault(image_k, {})
        bw = image_k[0]
        # (-1)^bw sigma^{-1}(a^k) of each member, the product of the
        # sigma^{-1}(a_j)^(k_j): the shared slots' factor once, the varying
        # slots' per member.
        sak = signs[bw % 2]
        for j, kj in shared:
            sak = ring.mul(sak, sigma_powers[j][kj])
        size = len(residues[0])
        saks = [sak] * size
        for j, _ in varying:
            saks = list(map(ring.mul, saks,
                            map(sigma_powers[j].__getitem__, residues[j])))
        # The shared slots as plain ints, once per group; the varying slots
        # as one vector, from the coordinates of the members' saks, with
        # their ell numerators repeated a times to match.
        room = N_work - bw
        leaves = _walk([(columns[kj], positions[j]) for j, kj in shared],
                       1, room, mul)
        levels = [(tuple((gain, step, ell * a, ej)
                         for gain, step, ell, ej in col)
                   if a > 1 else col, positions[j]) for j, col in varying]
        for net, numer, packed in _walk(levels, ring.coordinates(saks), room,
                                        _times_each):
            # D: the element whose coordinate i is the sum of coordinate i's
            # block, mod p^N_work.
            blocks = iter(numer)
            D = 0
            for s in shifts:
                D += sum(islice(blocks, size)) % modulus << s
            left = room - net
            for shared_net, X, shared_packed in leaves:
                if shared_net < left:
                    key = packed + shared_packed
                    class_sums[key] = (
                        class_sums.get(key, 0)
                        + p_pows[bw + net + shared_net] * X % modulus * D)

    # Unreduced sum of each monomial's (class, e) products (see
    # padic.normalize), keyed by its code: the class point's plus the
    # power-table entry's offset.  The class point is checked against the
    # cone, so the monomial lies in it (module docstring).
    raw: Dict[int, int] = {}
    for (bw, *base_x), class_sums in sums.items():
        if not poly.contains(base_x, bw):
            raise PrecisionOrLogicError(
                f"Frobenius class point {(bw, tuple(base_x))} escapes the "
                "cone over the polytope")
        base = encode((bw, base_x))
        for packed, acc in class_sums.items():
            off, apow = (entries.get(packed)
                         or _power_entry(ring, powers, packed, width))
            key = base + off
            raw[key] = raw.get(key, 0) + normalize(acc) * apow

    return ConeElement(ring, {key: normalize(acc) for key, acc in raw.items()})
