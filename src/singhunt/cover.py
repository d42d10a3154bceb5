"""Abelian-cover building data on an intersection lattice.

Finite abelian groups are products of cyclic groups with elements stored as
exponent tuples; characters take values in Q/Z.  A cover of a surface is
described numerically by one branch divisor class per (cyclic subgroup,
generator character) slot plus line-bundle classes L_chi, tied together by
the reduced-building-data congruences and the epsilon carry terms.

The restriction exponents of all characters on all slots come from one
integer product.  Classes are checked as integer rows over one common
denominator: every factorization of the derived L classes, and the reduced
building data of every character, in one product with the Gram rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InconsistentData,
    NegativeH0,
    NonIntegral,
    NotAGenerator,
)
from .lattice import DivisorClass, GramLattice, SurfaceInvariants


# cyclic_subgroups walks the subgroup of every element, quadratic in the order
# (Z/256 0.04 s, Z/1000 0.54 s on a 2-core machine); the paper's Z/2 x Z/4 has 8
MAX_GROUP_ORDER = 256


@dataclass(frozen=True)
class AbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if any(m < 2 for m in self.orders):
            raise ValueError("cyclic orders must be >= 2")
        if self.size > MAX_GROUP_ORDER:
            raise ValueError(f"group order {self.size} exceeds {MAX_GROUP_ORDER}")

    @property
    def size(self) -> int:
        return prod(self.orders)

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*map(range, self.orders)))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def element_order(self, g: Sequence[int]) -> int:
        return lcm(*(m // gcd(c, m) for c, m in zip(g, self.orders))) if any(g) else 1

    def generated_by(self, g: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        out = [self.identity()]
        cur = tuple(g)
        while cur != self.identity():
            out.append(cur)
            cur = self.add(cur, g)
        return tuple(sorted(out))


@dataclass(frozen=True)
class Character:
    group: AbelianGroup
    exps: tuple[int, ...]

    def value(self, g: Sequence[int]) -> Fraction:
        """chi(g) in Q/Z, represented in [0, 1)."""
        acc = Fraction(0)
        for c, x, m in zip(self.exps, g, self.group.orders):
            acc += Fraction(c * x, m)
        return acc % 1

    def order(self) -> int:
        return self.group.element_order(self.exps)

    def is_trivial(self) -> bool:
        return not any(self.exps)

    def __mul__(self, other: "Character") -> "Character":
        return Character(self.group, self.group.add(self.exps, other.exps))

    def __pow__(self, e: int) -> "Character":
        exps = tuple((c * e) % m for c, m in zip(self.exps, self.group.orders))
        return Character(self.group, exps)


def character_group(G: AbelianGroup) -> list[Character]:
    return [Character(G, exps) for exps in G.elements()]


def generate_subgroup(chars: Iterable[Character]) -> set[tuple[int, ...]]:
    chars = list(chars)
    if not chars:
        return set()
    G = chars[0].group
    out = {G.identity()}
    frontier = [G.identity()]
    while frontier:
        new = []
        for g in frontier:
            for c in chars:
                h = G.add(g, c.exps)
                if h not in out:
                    out.add(h)
                    new.append(h)
        frontier = new
    return out


@dataclass(frozen=True)
class CyclicSubgroup:
    group: AbelianGroup
    generator: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.members)


def cyclic_subgroups(G: AbelianGroup) -> list[CyclicSubgroup]:
    """All cyclic subgroups of order >= 2, with deterministic generators.

    The generator is the lexicographically least element of maximal order in
    the subgroup: elements come in lexicographic order, so it is the first
    that generates the subgroup.  The list is sorted by (order, generator).
    """
    seen: dict[tuple, tuple] = {}
    for g in G.elements()[1:]:
        seen.setdefault(G.generated_by(g), g)
    subs = [CyclicSubgroup(G, gen, members) for members, gen in seen.items()]
    return sorted(subs, key=lambda H: (H.order, H.generator))


def char_generator_exponents(H: CyclicSubgroup) -> list[int]:
    """The j with gcd(j, |H|) = 1: psi_j sends the generator to j/|H|."""
    return [j for j in range(1, H.order) if gcd(j, H.order) == 1]


def exponent_from_restriction(chi: Character, H: CyclicSubgroup, j: int) -> int:
    """The unique r in [0, |H|) with chi restricted to H equal to psi_j^r."""
    return int(restriction_table(chi.group, [BranchSlot(H, j, None)], [chi])[0, 0])


def reduced_coeff(chi: Character, H: CyclicSubgroup, j: int) -> int:
    """order(chi) * r / |H|, the slot coefficient in the reduced data."""
    return int(reduced_coefficients(chi.group, [BranchSlot(H, j, None)], [chi])[0, 0])


def epsilon(chi1: Character, chi2: Character, H: CyclicSubgroup, j: int) -> int:
    """The 0/1 carry in L_chi1 + L_chi2 = L_chi1chi2 + sum eps * D."""
    r1, r2 = restriction_table(chi1.group, [BranchSlot(H, j, None)], [chi1, chi2])[:, 0]
    return int(r1 + r2 >= H.order)


# ---------------------------------------------------------------------------
# branch data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchSlot:
    subgroup: CyclicSubgroup
    psi: int  # generator exponent j of the slot character
    divisor: DivisorClass | None  # None means the zero divisor


@dataclass
class BranchAssignment:
    slots: list[BranchSlot]

    @classmethod
    def assign(
        cls, G: AbelianGroup, divisors: Sequence[DivisorClass | None]
    ) -> "BranchAssignment":
        """Attach divisors to the canonical slot list of G.

        Slots are ordered by (subgroup order, subgroup generator) and, within
        a subgroup, by the generator exponent j of psi_j; the divisor list
        must match that order."""
        slots = [(H, j) for H in cyclic_subgroups(G) for j in char_generator_exponents(H)]
        if len(divisors) != len(slots):
            raise ValueError(
                f"{len(slots)} slots need {len(slots)} divisors, got {len(divisors)}"
            )
        return cls([BranchSlot(H, j, D) for (H, j), D in zip(slots, divisors)])

    def grouped(self) -> list[list[BranchSlot]]:
        """Slots grouped per subgroup, in canonical order."""
        return [list(group) for _, group in groupby(self.slots, lambda slot: slot.subgroup)]


def coefficient_table(chi: Character, branch: BranchAssignment) -> list[list[int]]:
    """Reduced coefficients of chi over the slots, grouped per subgroup."""
    coeffs = iter(reduced_coefficients(chi.group, branch.slots, [chi])[0].tolist())
    return [[next(coeffs) for _ in group] for group in branch.grouped()]


def reduced_building_data(
    chi: Character,
    branch: BranchAssignment,
    L_chi: DivisorClass,
    lattice: GramLattice,
) -> DivisorClass:
    """The relation vector order(chi)*L_chi - sum coeff * D_{H,psi}.

    The cover data is numerically consistent when this vector lies in the
    lattice radical."""
    slots = [slot for slot in branch.slots if slot.divisor is not None]
    acc = L_chi.scale(chi.order())
    for slot, coeff in zip(slots, reduced_coefficients(chi.group, slots, [chi])[0].tolist()):
        if coeff:
            acc = acc - slot.divisor.scale(coeff)
    return acc


def restriction_table(
    G: AbelianGroup, slots: Sequence[BranchSlot], chars: Sequence[Character] | None = None
) -> np.ndarray:
    """r[e, s], the unique r in [0, |H_s|) with chi_e restricted to H_s equal
    to psi_s^r, for the characters chars (every character of G, in
    G.elements() order, by default) and the slots s.

    In integers: with N = lcm of the cyclic orders, chi(g) = t/N for
    t = sum c_i x_i N/m_i mod N, so t = E X mod N is one product of the
    exponent rows E and the generator columns X scaled by N / m_i, and
    r = (t |H| / N) j^-1 mod |H|."""
    for slot in slots:
        if gcd(slot.psi, slot.subgroup.order) != 1:
            raise NotAGenerator(f"psi_{slot.psi} does not generate the characters of H")
    N = lcm(*G.orders)
    exps = G.elements() if chars is None else [chi.exps for chi in chars]
    E = np.array(exps, dtype=np.int64).reshape(len(exps), len(G.orders))
    X = np.array([[x * (N // mi) for x, mi in zip(slot.subgroup.generator, G.orders)] for slot in slots],
                 dtype=np.int64).reshape(len(slots), len(G.orders))
    m = np.array([slot.subgroup.order for slot in slots], dtype=np.int64)
    t = E @ X.T % N  # |G| <= 256 keeps every entry far below 2^63
    if (t * m % N).any():
        raise NonIntegral("character value does not restrict to the subgroup")
    inverse = np.array([pow(slot.psi, -1, slot.subgroup.order) for slot in slots], dtype=np.int64)
    return t * m // N * inverse % m


def reduced_coefficients(
    G: AbelianGroup, slots: Sequence[BranchSlot], chars: Sequence[Character]
) -> np.ndarray:
    """c[e, s] = order(chi_e) * r[e, s] / |H_s| (restriction_table's r), the
    slot coefficients of the reduced building data."""
    r = restriction_table(G, slots, chars)
    order = np.array([chi.order() for chi in chars], dtype=np.int64)
    m = np.array([slot.subgroup.order for slot in slots], dtype=np.int64)
    scaled = order[:, None] * r  # below 256^2
    bad = np.argwhere(scaled % m)
    if len(bad):
        i, s = bad[0]
        raise NonIntegral(f"{order[i]} * {r[i, s]} is not divisible by |H| = {m[s]}")
    return scaled // m


@dataclass
class CoverData:
    group: AbelianGroup
    branch: BranchAssignment
    lattice: GramLattice
    L: dict[tuple[int, ...], DivisorClass]  # keyed by character exponents

    def verify_reduced_data(self) -> list[tuple[tuple[int, ...], bool]]:
        """Whether each nontrivial character's reduced building data
        (reduced_building_data) lies in the radical: the relations of all
        characters are stacked into one product with the Gram rows."""
        G = self.group
        chars = [chi for chi in character_group(G) if not chi.is_trivial()]
        slots = [s for s in self.branch.slots if s.divisor is not None]
        coeffs = reduced_coefficients(G, slots, chars)
        order = np.array([chi.order() for chi in chars], dtype=np.int64)
        # |rel| <= (order + sum of the coefficients) * largest class entry
        bound = int(order.max(initial=0)) + int(coeffs.sum(axis=1).max(initial=0))
        rows, _ = self.lattice.class_array([self.L[chi.exps] for chi in chars]
                                           + [s.divisor for s in slots], bound)
        Lrows, D = rows[:len(chars)], rows[len(chars):]
        rel = order.astype(rows.dtype)[:, None] * Lrows - coeffs.astype(rows.dtype) @ D
        ok = self.lattice.annihilated(rel)
        return [(chi.exps, bool(v)) for chi, v in zip(chars, ok)]


PAIR_ROWS = 1 << 12  # factorizations checked per product with the Gram rows


def derive_all_L(
    lattice: GramLattice,
    branch: BranchAssignment,
    generators: Mapping[Character, DivisorClass],
) -> dict[tuple[int, ...], DivisorClass]:
    """Propagate L_chi to the whole character group from generator values.

    Uses L_(chi chi') = L_chi + L_chi' - sum eps * D along a deterministic
    order; afterwards every alternative factorization is checked to agree
    modulo the lattice radical (numerical equivalence).  The restriction
    exponents r of every character on every slot are computed once, and
    eps(chi1, chi2) on a slot is the carry r1 + r2 >= |H|.

    The classes are integer rows over one common denominator; the
    factorizations are checked by one product of their difference rows
    with the Gram rows (per PAIR_ROWS of them)."""
    gens = list(generators.items())
    if not gens:
        raise InconsistentData("no generator characters given")
    G = gens[0][0].group
    elements = G.elements()
    index = {e: i for i, e in enumerate(elements)}
    for chi, _ in gens:
        if chi.exps not in index:
            raise InconsistentData(f"character {chi.exps} is not reduced mod the orders {G.orders}")
    slots = [s for s in branch.slots if s.divisor is not None]
    restrict = restriction_table(G, slots)
    m = np.array([s.subgroup.order for s in slots], dtype=np.int64)
    # a stored class is a sum of at most |G| generator classes minus at most
    # |G| |slots| divisors; a difference of factorizations, four such terms
    rows, d = lattice.class_array([L for _, L in gens] + [s.divisor for s in slots],
                                  4 * G.size * (1 + len(slots)))
    D = rows[len(gens):]
    K = np.zeros((G.size, lattice.size), dtype=rows.dtype)  # rows by element index
    known: dict[tuple[int, ...], DivisorClass | None] = {G.identity(): DivisorClass((0,) * lattice.size)}
    for (chi, L), row in zip(gens, rows):
        known[chi.exps] = L
        K[index[chi.exps]] = row
    # extend along generator products, level by level from a sorted frontier,
    # so the stored representatives stay in reduced form (alternative
    # factorizations are reconciled below); the closure checks generation
    frontier = sorted(known)
    while frontier:
        new = []
        for e1 in frontier:
            for chi2, _ in gens:
                e = G.add(e1, chi2.exps)
                if e in known:
                    continue
                i1, i2 = index[e1], index[chi2.exps]
                carry = (restrict[i1] + restrict[i2] >= m).astype(K.dtype)
                K[index[e]] = K[i1] + K[i2] - carry @ D
                known[e] = None  # its class is made from K below
                new.append(e)
        frontier = sorted(new)
    if len(known) != G.size:
        raise InconsistentData("the given characters do not generate the dual group")
    # path independence: every factorization agrees up to numerical
    # equivalence; a product class is symmetric in its factors, so the
    # pairs e1 <= e2 cover every factorization, checked in that order
    E = np.array(elements, dtype=np.int64).reshape(G.size, len(G.orders))
    radix = np.array([prod(G.orders[k + 1:]) for k in range(len(G.orders))], dtype=np.int64)
    first, second = np.triu_indices(G.size)
    for lo in range(0, len(first), PAIR_ROWS):
        i1, i2 = first[lo:lo + PAIR_ROWS], second[lo:lo + PAIR_ROWS]
        i12 = (E[i1] + E[i2]) % np.array(G.orders, dtype=np.int64) @ radix
        carry = (restrict[i1] + restrict[i2] >= m).astype(K.dtype)
        bad = np.flatnonzero(~lattice.annihilated(K[i1] + K[i2] - carry @ D - K[i12]))
        if bad.size:
            e1, e2 = elements[i1[bad[0]]], elements[i2[bad[0]]]
            raise InconsistentData(f"factorization {e1} * {e2} disagrees with the stored class")
    for e, cls in known.items():
        if cls is None:
            known[e] = DivisorClass(tuple(x // d if x % d == 0 else Fraction(x, d)
                                          for x in K[index[e]].tolist()))
    return known


# ---------------------------------------------------------------------------
# numerical invariants of the cover
# ---------------------------------------------------------------------------

def chi_cover(invX: SurfaceInvariants, data: CoverData) -> int:
    """|G| * chi(X) + sum over nontrivial chi of (1/2) L (K + L), with K the
    lattice class named K."""
    K = data.lattice.basis_class("K")
    twice = 2 * data.group.size * invX.chi
    for chi in character_group(data.group):
        if chi.is_trivial():
            continue
        L = data.L[chi.exps]
        twice += data.lattice.pairing(L, K + L)
    if twice % 2:
        raise NonIntegral(f"holomorphic Euler characteristic {Fraction(twice, 2)} is not integral")
    return twice // 2


def pg_cover(pgX: int, h0_list: Sequence[int]) -> int:
    """p_g of the cover: p_g(X) plus the supplied h^0(K+L_chi) values."""
    if any(h < 0 for h in h0_list):
        raise NegativeH0(f"negative h^0 in {list(h0_list)}")
    return pgX + sum(h0_list)


def cover_canonical_square(order_g: int, k2_base: int) -> int:
    """K^2 of a cover whose canonical class is the pullback of the base's."""
    return order_g * k2_base
