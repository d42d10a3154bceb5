"""Exact intersection-lattice computations for divisor classes on surfaces.

A GramLattice is an ordered list of named classes with their pairwise
intersection numbers.  Numerical equivalences show up as the radical
(kernel) of the Gram matrix; hypothetical curves are appended as extra
rows/columns and divisibility relations are found by exhaustively solving
for intersection data that forces the wanted relation into the radical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import exactla
from .errors import DimensionMismatch, NonIntegral, NoSolution, data_lines
from .rng import below_rows


def _exact(v) -> int | Fraction:
    """v as an int when it is integral, else as a Fraction (never a float)."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


@dataclass(frozen=True)
class DivisorClass:
    """Coefficients over a lattice basis: ints, with Fractions only where a
    coefficient is not integral."""

    coeffs: tuple[int | Fraction, ...]
    name: str = ""

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionMismatch("divisor classes live in different lattices")
        return DivisorClass(tuple(_exact(a + b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.coeffs) != len(other.coeffs):
            raise DimensionMismatch("divisor classes live in different lattices")
        return DivisorClass(tuple(_exact(a - b) for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s) -> "DivisorClass":
        s = _exact(s)
        return DivisorClass(tuple(_exact(a * s) for a in self.coeffs))

    def __rmul__(self, s) -> "DivisorClass":
        return self.scale(s)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class SurfaceInvariants:
    chi: int
    K2: int
    q: int = 0
    pg: int | None = None

    def __post_init__(self):
        if self.pg is None:
            object.__setattr__(self, "pg", self.chi - 1 + self.q)
        if self.chi != 1 - self.q + self.pg:
            raise ValueError("chi = 1 - q + pg violated")


def b2(inv: SurfaceInvariants) -> int:
    """Second Betti number from Noether's formula: 12*chi - K^2 + 4q - 2."""
    return 12 * inv.chi - inv.K2 + 4 * inv.q - 2


class GramLattice:
    def __init__(self, names: Sequence[str], gram: Sequence[Sequence]):
        self.names = list(names)
        n = len(self.names)
        if len(set(self.names)) != n:
            raise ValueError("duplicate class names")
        self.gram = [[_exact(v) for v in row] for row in gram]
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise DimensionMismatch("Gram matrix shape does not match names")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no class named {name!r}") from None

    def matrix(self) -> exactla.ExactMatrix:
        return exactla.ExactMatrix.make(exactla.QQ, self.gram)

    def entry(self, a: str, b: str) -> int | Fraction:
        return self.gram[self.index(a)][self.index(b)]

    # -- classes ---------------------------------------------------------------

    def basis_class(self, name: str) -> DivisorClass:
        i = self.index(name)
        return DivisorClass(tuple(int(j == i) for j in range(self.size)), name)

    def combo(self, coeffs: Mapping[str, object], name: str = "") -> DivisorClass:
        vec = [0] * self.size
        for key, val in coeffs.items():
            vec[self.index(key)] = _exact(val)
        return DivisorClass(tuple(vec), name)

    def pairing(self, u: DivisorClass, v: DivisorClass) -> int | Fraction:
        if len(u.coeffs) != self.size or len(v.coeffs) != self.size:
            raise DimensionMismatch("class length does not match the lattice")
        acc = 0
        for i, a in enumerate(u.coeffs):
            if a == 0:
                continue
            row = self.gram[i]
            for j, b in enumerate(v.coeffs):
                if b != 0:
                    acc += a * b * row[j]
        return _exact(acc)

    # -- structure ----------------------------------------------------------------

    def rank(self) -> int:
        return exactla.rank(self.matrix())

    def radical(self) -> list[list[int]]:
        """Primitive integer basis of the kernel of the Gram matrix."""
        return exactla.nullspace(self.matrix())

    def in_radical(self, v: DivisorClass) -> bool:
        if len(v.coeffs) != self.size:
            raise DimensionMismatch("class length does not match the lattice")
        terms = [(c, self.gram[i]) for i, c in enumerate(v.coeffs) if c]
        return all(sum(c * row[j] for c, row in terms) == 0 for j in range(self.size))

    def equivalent(self, u: DivisorClass, v: DivisorClass) -> bool:
        """Numerical equivalence: the difference pairs to zero with everything."""
        return self.in_radical(u - v)

    def extend_with_curve(
        self, name: str, pairings: Sequence, self_int
    ) -> "GramLattice":
        if len(pairings) != self.size:
            raise DimensionMismatch("one pairing per existing class required")
        gram = [row + [v] for row, v in zip(self.gram, pairings)]
        gram.append(list(pairings) + [self_int])
        return GramLattice(self.names + [name], gram)

    def restrict(self, names: Sequence[str]) -> "GramLattice":
        idx = [self.index(nm) for nm in names]
        return GramLattice(names, [[self.gram[i][j] for j in idx] for i in idx])

    def is_adjunction_even(self, k_name: str) -> bool:
        """Every basis class u has u.u + u.K even (holds on smooth surfaces)."""
        k = self.index(k_name)
        for i in range(self.size):
            val = self.gram[i][i] + self.gram[i][k]
            if val.denominator != 1 or val.numerator % 2 != 0:
                return False
        return True

    def __repr__(self) -> str:
        return f"<GramLattice {' '.join(self.names)}>"


# ---------------------------------------------------------------------------
# the running fixture: resolution of a 1-nodal-pair + two-chain configuration
# with K^2 = 1 (eight (-2)-classes orthogonal to K, two A3 chains)
# ---------------------------------------------------------------------------

GODEAUX_GRAM_TEXT = """\
[-2  0  0  0  0  0  0  0  0]
[ 0 -2  0  0  0  0  0  0  0]
[ 0  0 -2  1  0  0  0  0  0]
[ 0  0  1 -2  1  0  0  0  0]
[ 0  0  0  1 -2  0  0  0  0]
[ 0  0  0  0  0 -2  1  0  0]
[ 0  0  0  0  0  1 -2  1  0]
[ 0  0  0  0  0  0  1 -2  0]
[ 0  0  0  0  0  0  0  0  1]
"""

GODEAUX_NAMES = ["N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "K"]


def godeaux_fixture() -> GramLattice:
    """The 9x9 lattice {N1..N8, K}: two nodes, two A3 chains, K^2 = 1."""
    M = exactla.parse_matrix(GODEAUX_GRAM_TEXT)
    return GramLattice(GODEAUX_NAMES, M.data)


# ---------------------------------------------------------------------------
# relation search: append a hypothetical curve, vary its intersection
# numbers, and keep the extensions whose Gram matrix is degenerate
# ---------------------------------------------------------------------------

def canonical_relation(vec: Sequence[Fraction | int], k_index: int | None) -> tuple[int, ...]:
    """Primitive integer vector; sign fixed by a positive K coefficient."""
    ints = exactla._primitive_integer(list(vec))
    if k_index is not None and ints[k_index] != 0:
        if ints[k_index] < 0:
            ints = [-x for x in ints]
    return tuple(ints)


@dataclass(frozen=True)
class RelationHit:
    pairings: tuple[int, ...]  # vs existing basis, then self-intersection last
    self_int: int
    relations: tuple[tuple[int, ...], ...]  # canonical radical vectors


SEARCH_ROWS = 1 << 12  # candidate boxes per block of the relation search


def search_relations(
    L: GramLattice,
    bounds: Mapping[str, tuple[int, int]],
    self_bounds: tuple[int, int] = (-2, 8),
    seed: int = 0,
    trials: int = 10_000,
    exhaustive_limit: int = 100_000,
    curve_name: str = "C",
    k_name: str = "K",
) -> list[RelationHit]:
    """Sample (or exhaust) intersection vectors for a hypothetical curve and
    report every extension with a nonzero radical.

    Boxes are tested in blocks of at most SEARCH_ROWS rows, so memory does
    not grow with `trials`.  With a nondegenerate base M, let D be the common
    denominator of M^-1 and A = D*M^-1: the box (v, s) extends to a
    degenerate lattice iff v^T A v == D*s (the Schur complement vanishes),
    and the kernel is then spanned by (A v, -D).
    """
    ranges = []
    for nm in L.names:
        lo, hi = bounds.get(nm, (0, 0))
        ranges.append(range(lo, hi + 1))
    ranges.append(range(self_bounds[0], self_bounds[1] + 1))
    draws = None if prod(len(r) for r in ranges) <= exhaustive_limit else trials
    k_index = L.index(k_name) if k_name in L.names else None
    if exactla.determinant(L.matrix()) == 0:
        # the kernel of an extension can have any dimension: RREF every box,
        # each once (every one costs far more than remembering it)
        hits = []
        seen = set()
        while curve_name in L.names:  # the name only labels the extension
            curve_name += "'"
        for block in _box_blocks(ranges, seed, draws, object):
            for vec in map(tuple, block.tolist()):
                if vec in seen:
                    continue
                seen.add(vec)
                pairings, self_int = vec[:-1], vec[-1]
                rad = L.extend_with_curve(curve_name, pairings, self_int).radical()
                if rad:
                    rels = tuple(sorted(canonical_relation(v, k_index) for v in rad))
                    hits.append(RelationHit(pairings, self_int, rels))
    else:
        A, D = _inverse_rows(L)
        vmax = max((max(abs(r.start), abs(r.stop - 1)) for r in ranges[:-1]), default=0)
        smax = max(abs(ranges[-1].start), abs(ranges[-1].stop - 1))
        amax = max((abs(x) for row in A for x in row), default=0)
        # |v^T A v| <= n^2 vmax^2 amax: int64 only where no term can overflow
        small = max(amax, D, L.size**2 * vmax**2 * amax + D * smax) < 2**63
        dtype = np.int64 if small else object
        A = np.array(A, dtype=dtype).reshape(L.size, L.size)
        found = {}  # repeats drawn in different blocks collapse here
        for block in _box_blocks(ranges, seed, draws, dtype):
            V = block[:, :-1]
            VA = V @ A
            for r in np.flatnonzero(np.einsum("ij,ij->i", VA, V) == D * block[:, -1]).tolist():
                found[tuple(block[r].tolist())] = canonical_relation(VA[r].tolist() + [-D], k_index)
        hits = [RelationHit(vec[:-1], vec[-1], (rel,)) for vec, rel in found.items()]
    hits.sort(key=lambda h: (h.pairings, h.self_int))
    return hits


def _box_blocks(ranges: Sequence[range], seed: int, draws: int | None, dtype):
    """Candidate boxes as integer arrays of at most SEARCH_ROWS rows.

    draws=None: every box, in itertools.product order.  Otherwise trial t <
    draws picks one offset per range from stream split(seed, t), in trial
    order, repeats included: callers drop them, so that no set of the draws
    is kept here.
    """
    shape = [len(r) for r in ranges]
    starts = np.array([r.start for r in ranges], dtype=dtype)
    total = prod(shape) if draws is None else draws
    for lo in range(0, total, SEARCH_ROWS):
        index = np.arange(lo, min(lo + SEARCH_ROWS, total))
        if draws is None:
            offsets = np.stack(np.unravel_index(index, shape), axis=1)
        else:
            offsets = below_rows(seed, index, shape)
        yield offsets.astype(dtype) + starts


def _inverse_rows(L: GramLattice) -> tuple[list[list[int]], int]:
    """(A, D) with A = D*M^-1 integral and D the least positive such integer,
    for the nondegenerate Gram matrix M of L."""
    n = L.size
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(L.gram)]
    R, pivots, rk = exactla.rref(exactla.ExactMatrix.make(exactla.QQ, aug))
    assert rk == n
    # R = [I | M^-1] is R.num / R.den; cancel what R.den shares with every entry
    g = gcd(R.den, *(x for row in R.num for x in row[n:]))
    return [[x // g for x in row[n:]] for row in R.num], R.den // g


# ---------------------------------------------------------------------------
# constrained solving: which intersection data is consistent with a stated
# divisibility relation m*K = c*X + sum a_i N_i
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveTemplate:
    lhs: tuple[tuple[str, int], ...]  # e.g. (("K", 8),)
    curve_mult: int                   # e.g. 4
    curve_name: str                   # e.g. "C'"
    support: tuple[str, ...]          # classes with unknown multiplicities

    @classmethod
    def make(cls, lhs: Mapping[str, int], curve_mult: int, curve_name: str,
             support: Sequence[str]) -> "CurveTemplate":
        return cls(tuple(sorted(lhs.items())), curve_mult, curve_name, tuple(support))


@dataclass(frozen=True)
class CurveSolution:
    multiplicities: tuple[tuple[str, int], ...]
    pairings: tuple[int, ...]   # with every basis class, in lattice order
    self_int: int
    relation: tuple[int, ...]   # canonical vector in the extended basis


def solve_curve_intersections(
    L: GramLattice,
    template: CurveTemplate,
    constraints: Mapping[str, Iterable[int]],
    contact: Sequence[tuple[Sequence[str], int]] = (),
    self_constraint: Iterable[int] | None = None,
    require_positive: bool = True,
    k_name: str = "K",
) -> list[CurveSolution]:
    """Enumerate intersection assignments consistent with the template.

    For each assignment of the constrained pairings the multiplicities are
    forced by pairing the relation with every constrained class; solutions
    must be integral (and positive on the declared support), the derived
    self-intersection must be integral and satisfy adjunction parity when
    the base lattice does, and the relation vector must land in the radical
    of the extended lattice.  `contact` entries fix the total pairing over a
    group of classes (e.g. one transverse branch through a chain).
    """
    names = L.names
    assigned = [nm for nm in names if nm in constraints]
    derived = [nm for nm in names if nm not in constraints]
    support = list(template.support)
    sup_idx = {nm: i for i, nm in enumerate(support)}
    lhs_vec = L.combo(dict(template.lhs))
    c = template.curve_mult
    parity = L.is_adjunction_even(k_name) if k_name in names else False
    k_pos = L.index(k_name) if k_name in names else None

    # precompute pairing rows
    gram_row = {nm: L.gram[L.index(nm)] for nm in names}
    lhs_pair = {nm: L.pairing(lhs_vec, L.basis_class(nm)) for nm in names}

    choice_sets = [sorted(set(int(v) for v in constraints[nm])) for nm in assigned]
    solutions: list[CurveSolution] = []
    for choice in product(*choice_sets):
        pair_val = dict(zip(assigned, choice))
        ok = True
        for group, total in contact:
            if all(g in pair_val for g in group):
                if sum(pair_val[g] for g in group) != total:
                    ok = False
                    break
        if not ok:
            continue
        # pairing the relation with an assigned class gives a linear
        # condition on the multiplicities
        rows = []
        rhs = []
        for nm in assigned:
            row = [gram_row[nm][L.index(s)] for s in support]
            rows.append(row)
            rhs.append(lhs_pair[nm] - c * pair_val[nm])
        sol, kernel = exactla.solve(exactla.ExactMatrix.make(exactla.QQ, rows, len(support)), rhs)
        if sol is None or kernel:
            continue  # inconsistent, or constraints do not pin the multiplicities
        mults = {}
        ok = True
        for s, val in zip(support, sol):
            if val.denominator != 1:
                ok = False
                break
            v = int(val)
            if v < (1 if require_positive else 0):
                ok = False
                break
            mults[s] = v
        if not ok:
            continue
        # derived pairings come from the remaining equations
        for nm in derived:
            num = lhs_pair[nm] - sum(
                mults[s] * gram_row[nm][L.index(s)] for s in support
            )
            val = Fraction(num, c)
            if val.denominator != 1:
                ok = False
                break
            pair_val[nm] = int(val)
        if not ok:
            continue
        for group, total in contact:
            if sum(pair_val[g] for g in group) != total:
                ok = False
                break
        if not ok:
            continue
        # self-intersection from pairing the relation with the curve itself
        num = sum(coef * pair_val[nm] for nm, coef in template.lhs) - sum(
            mults[s] * pair_val[s] for s in support
        )
        self_val = Fraction(num, c)
        if self_val.denominator != 1:
            continue
        self_int = int(self_val)
        if parity and k_pos is not None and (self_int + pair_val[k_name]) % 2 != 0:
            continue
        if self_constraint is not None and self_int not in set(self_constraint):
            continue
        pair_seq = [pair_val[nm] for nm in names]
        ext = L.extend_with_curve(template.curve_name, pair_seq, self_int)
        rel = [0] * ext.size
        for nm, coef in template.lhs:
            rel[ext.index(nm)] += coef
        rel[ext.index(template.curve_name)] -= c
        for s, m in mults.items():
            rel[ext.index(s)] -= m
        rel_class = DivisorClass(tuple(rel))
        if not ext.in_radical(rel_class):
            continue
        solutions.append(
            CurveSolution(
                tuple((s, mults[s]) for s in support),
                tuple(pair_seq),
                self_int,
                canonical_relation(rel, k_pos),
            )
        )
    solutions.sort(key=lambda s: (s.pairings, s.self_int))
    return solutions


def unique_curve_solution(solutions: list[CurveSolution]) -> CurveSolution:
    from .errors import MultipleSolutions

    if not solutions:
        raise NoSolution("no intersection assignment satisfies the template")
    if len(solutions) > 1:
        raise MultipleSolutions(
            f"{len(solutions)} assignments satisfy the template", solutions
        )
    return solutions[0]


# ---------------------------------------------------------------------------
# text I/O
# ---------------------------------------------------------------------------

def parse_lattice(text: str) -> GramLattice:
    """A `names:` header line followed by the matrix rows."""
    names = None
    body = text.splitlines()
    for lineno, line in data_lines(text):
        if line.startswith("names:"):
            names = line[len("names:"):].split()
            body[lineno - 1] = ""  # kept blank so matrix errors report file line numbers
    M = exactla.parse_matrix("\n".join(body))
    if names is None:
        names = [f"E{i + 1}" for i in range(M.rows)]
    return GramLattice(names, M.data)


def format_lattice(L: GramLattice) -> str:
    return "names: " + " ".join(L.names) + "\n" + exactla.format_matrix(L.matrix())
