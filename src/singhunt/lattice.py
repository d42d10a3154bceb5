"""Exact intersection-lattice computations for divisor classes on surfaces.

A GramLattice is an ordered list of named classes with their pairwise
intersection numbers, held once as integer rows over one positive
denominator.  Numerical equivalences show up as the radical (kernel) of the
Gram matrix; one cached kernel gives both the radical and the rank, and a
pairing, a radical test or a batch of radical tests is an integer product
against them (int64 under a proven bound, Python ints otherwise).
Hypothetical curves are appended as extra rows/columns and divisibility
relations are found by exhaustively solving for intersection data that
forces the wanted relation into the radical.  DivisorClass is the API type;
Fractions appear only where a value is not integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import exactla
from .errors import BadGram, DimensionMismatch, NonIntegral, NoSolution, data_lines
from .rng import below_rows, digit_rows


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
    """Named classes and their Gram matrix, held once as an exactla
    ExactMatrix: integer rows `num` over one positive denominator `den`.

    `radical` is their kernel, computed once and cached, and `rank` is read
    from it; a pairing, a radical test and a batch of radical tests are
    integer products against the rows.  `gram` gives the entries (ints,
    Fractions where not integral).
    """

    def __init__(self, names: Sequence[str], gram):
        """gram: the rows of the matrix, or an ExactMatrix over QQ."""
        self.names = list(names)
        n = len(self.names)
        if len(set(self.names)) != n:
            raise BadGram("duplicate class names")
        if isinstance(gram, exactla.ExactMatrix):
            M = gram
        elif len(gram) != n or any(len(row) != n for row in gram):
            raise DimensionMismatch("Gram matrix shape does not match names")
        else:
            M = exactla.ExactMatrix.make(exactla.QQ, gram, n)
        if M.rows != n or M.cols != n:
            raise DimensionMismatch("Gram matrix shape does not match names")
        num = M.num
        if any(num[i][j] != num[j][i] for i in range(n) for j in range(i)):
            raise BadGram("Gram matrix must be symmetric")
        self._matrix = M
        self._radical = None  # the kernel, from the one elimination
        self._rows = None  # num as an integer array, see _int_array

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def gram(self) -> list[list[int | Fraction]]:
        return self._matrix.data

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no class named {name!r}") from None

    def matrix(self) -> exactla.ExactMatrix:
        return self._matrix

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
        """u.v = (a num b) / (e^2 den) for the integer rows a, b = e*u, e*v."""
        (a, b), e = self.class_rows([u, v])
        acc = sum(x * sum(g * y for g, y in zip(row, b)) for x, row in zip(a, self._matrix.num) if x)
        return _exact(Fraction(acc, e * e * self._matrix.den))

    def class_rows(self, classes: Sequence[DivisorClass]) -> tuple[list[list[int]], int]:
        """(rows, e): the classes times their least common denominator e, as ints."""
        if any(len(c.coeffs) != self.size for c in classes):
            raise DimensionMismatch("class length does not match the lattice")
        return exactla._integer_rows([c.coeffs for c in classes])

    def class_array(self, classes: Sequence[DivisorClass], bound: int = 1) -> tuple[np.ndarray, int]:
        """class_rows as an integer array, int64 when `bound` times its largest
        entry stays below INT64_ENTRY (see _int_array)."""
        rows, e = self.class_rows(classes)
        return _int_array(rows, self.size, bound), e

    # -- structure ----------------------------------------------------------------

    def rank(self) -> int:
        return self.size - len(self.radical())

    def radical(self) -> list[list[int]]:
        """Primitive integer basis of the kernel of the Gram matrix (fresh
        lists: the cached basis is never handed out)."""
        if self._radical is None:
            self._radical = exactla.nullspace(self._matrix)
        return [list(v) for v in self._radical]

    def annihilated(self, W: np.ndarray) -> np.ndarray:
        """Whether each row of the integer array W (classes times any common
        nonzero scale) pairs to zero with every class: W @ num == 0."""
        if self._rows is None:
            self._rows = _int_array(self._matrix.num, self.size)
        return ~_product(W, self._rows).any(axis=1)

    def in_radical(self, v: DivisorClass) -> bool:
        return bool(self.annihilated(self.class_array([v])[0])[0])

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
        num, den = self._matrix.num, self._matrix.den
        return all((row[i] + row[k]) % (2 * den) == 0 for i, row in enumerate(num))

    def __repr__(self) -> str:
        return f"<GramLattice {' '.join(self.names)}>"


# int64 holds every entry of an array below this bound; a sum of four such
# entries (a product's difference of two sums, say) still fits
INT64_ENTRY = 2**61


def _int_array(rows: Sequence[Sequence[int]], cols: int, bound: int = 1) -> np.ndarray:
    """Integer rows as an int64 array when bound * |entry| < INT64_ENTRY for
    every entry (a caller adding up to `bound` rows then stays exact), else
    as Python ints (dtype object)."""
    try:
        A = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), cols)
    return A if bound * _magnitude(A) < INT64_ENTRY else A.astype(object)


def _magnitude(A: np.ndarray) -> int:
    """The largest |entry| of an integer array, as a Python int."""
    if not A.size:
        return 0
    return max(-int(A.min()), int(A.max()))


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B exactly: in int64 where no sum of products can reach 2^63, in
    Python ints otherwise."""
    if A.dtype == B.dtype == np.int64 and A.shape[1] * _magnitude(A) * _magnitude(B) < 2**63:
        return A @ B
    return A.astype(object) @ B.astype(object)


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
    return GramLattice(GODEAUX_NAMES, M)


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


def _canonical_rows(H: np.ndarray, k_index: int | None) -> list[list[int]]:
    """canonical_relation of every row of the integer array H, at once: each
    row over the gcd of its entries, signed so that its K entry, or where that
    is zero its first nonzero entry, is positive."""
    g = np.gcd.reduce(H, axis=1)
    lead = H[np.arange(len(H)), (H != 0).argmax(axis=1)]
    if k_index is not None:
        lead = np.where(H[:, k_index] != 0, H[:, k_index], lead)
    g = np.where(g == 0, 1, g)  # a zero row stays zero
    return (H // np.where(lead < 0, -g, g)[:, None]).tolist()


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
    k_index = L.index("K") if "K" in L.names else None
    inverse = _inverse_rows(L)
    if inverse is None:
        # the kernel of an extension can have any dimension: RREF every box,
        # each once (every one costs far more than remembering it)
        hits = []
        seen = set()
        curve_name = "C"
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
        A, D = inverse
        vmax = max((max(abs(r.start), abs(r.stop - 1)) for r in ranges[:-1]), default=0)
        smax = max(abs(ranges[-1].start), abs(ranges[-1].stop - 1))
        amax = max((abs(x) for row in A for x in row), default=0)
        # |v^T A v| <= n^2 vmax^2 amax: int64 only where no term can overflow
        small = max(amax, D, L.size**2 * vmax**2 * amax + D * smax) < 2**63
        dtype = np.int64 if small else object
        A = np.array(A, dtype=dtype).reshape(L.size, L.size)
        found = {}  # repeats drawn in different blocks collapse here
        if draws is None:
            # of the boxes (v, s) of one v only s = v^T A v / D can be a hit,
            # so each v is tested once
            blocks = _box_blocks(ranges[:-1], seed, None, dtype)
        else:
            blocks = _box_blocks(ranges, seed, draws, dtype)
        for block in blocks:
            V = block[:, :L.size]
            VA = V @ A
            quad = np.einsum("ij,ij->i", VA, V)
            if draws is None:
                s = quad // D
                hit = np.flatnonzero((quad % D == 0) & (s >= ranges[-1].start) & (s < ranges[-1].stop))
                boxes = np.concatenate([V[hit], s[hit, None]], axis=1)
            else:
                hit = np.flatnonzero(quad == D * block[:, -1])
                boxes = block[hit]
            if hit.size:
                kernel = np.concatenate([VA[hit], np.full((hit.size, 1), -D, dtype=dtype)], axis=1)
                rels = _canonical_rows(kernel, k_index)
                found.update(zip(map(tuple, boxes.tolist()), map(tuple, rels)))
        hits = [RelationHit(vec[:-1], vec[-1], (rel,)) for vec, rel in found.items()]
    hits.sort(key=lambda h: (h.pairings, h.self_int))
    return hits


def _box_blocks(ranges: Sequence[range], seed: int, draws: int | None, dtype):
    """Candidate boxes as integer arrays of at most SEARCH_ROWS rows.

    draws=None: every box, in itertools.product order, decoded by index.
    Otherwise trial t < draws picks one offset per range from stream
    split(seed, t), in trial order, repeats included: callers drop them, so
    that no set of the draws is kept here.
    """
    shape = [len(r) for r in ranges]
    starts = np.array([r.start for r in ranges], dtype=dtype)
    total = prod(shape) if draws is None else draws
    for lo in range(0, total, SEARCH_ROWS):
        index = np.arange(lo, min(lo + SEARCH_ROWS, total))
        rows = digit_rows(index, shape) if draws is None else below_rows(seed, index, shape)
        yield rows.astype(dtype) + starts


def _inverse_rows(L: GramLattice) -> tuple[list[list[int]], int] | None:
    """(A, D) with A = D*M^-1 integral and D the least positive such integer,
    for the Gram matrix M of L; None when M is degenerate.  Both come from
    one elimination of [M | I]."""
    n = L.size
    M = L.matrix()
    aug = [row + [M.den if i == j else 0 for j in range(n)] for i, row in enumerate(M.num)]
    R, pivots, _ = exactla.rref(exactla.ExactMatrix(n, 2 * n, exactla.QQ, num=aug, den=M.den))
    if pivots and pivots[-1] >= n:
        return None  # a pivot in the I half: M has rank < n
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
) -> list[CurveSolution]:
    """Enumerate intersection assignments consistent with the template.

    For each assignment of the constrained pairings the multiplicities are
    forced by pairing the relation with every constrained class; solutions
    must be integral (and positive on the declared support), and the derived
    pairings and self-intersection integral, the latter with adjunction
    parity when the base lattice has it; the relation vector then lies in
    the radical of the extended lattice.  `contact` entries fix the total
    pairing over a group of classes (e.g. one transverse branch through a
    chain).

    Only the right-hand side of the linear system for the multiplicities
    depends on the assignment, so its matrix A is eliminated once, as
    [A | I]: that gives a left inverse of A and the rows that vanish on
    every consistent right-hand side.
    """
    names = L.names
    pos = {nm: i for i, nm in enumerate(names)}
    if template.curve_name in pos:  # the extension would repeat a class name
        raise ValueError("duplicate class names")
    assigned = [nm for nm in names if nm in constraints]
    derived = [nm for nm in names if nm not in constraints]
    support = list(template.support)
    lhs = L.combo(dict(template.lhs)).coeffs
    c = template.curve_mult
    k_pos = L.index("K") if "K" in pos else None
    parity = k_pos is not None and L.is_adjunction_even("K")
    M = L.matrix()
    gram = L.gram
    lhs_pair = {nm: _exact(Fraction(sum(a * row[j] for a, row in zip(lhs, M.num) if a), M.den))
                for j, nm in enumerate(names)}

    choice_sets = [sorted(set(int(v) for v in constraints[nm])) for nm in assigned]
    choices = []
    for choice in product(*choice_sets):
        pair_val = dict(zip(assigned, choice))
        if all(sum(pair_val[g] for g in group) == total
               for group, total in contact if all(g in pair_val for g in group)):
            choices.append(choice)
    if not choices:
        return []
    # pairing the relation with an assigned class gives a linear condition
    # on the multiplicities
    k, m = len(support), len(assigned)
    A = exactla.ExactMatrix.make(exactla.QQ, [[gram[pos[nm]][L.index(s)] for s in support]
                                              for nm in assigned], k)
    aug = [row + [A.den if i == j else 0 for j in range(m)] for i, row in enumerate(A.num)]
    R, pivots, _ = exactla.rref(exactla.ExactMatrix(m, k + m, exactla.QQ, num=aug, den=A.den))
    if pivots[:k] != list(range(k)):
        return []  # the constraints do not pin the multiplicities
    left = [row[k:] for row in R.num[:k]]  # R.den times a left inverse of A
    checks = [row[k:] for row in R.num[k:]]
    sup_pos = [pos[s] for s in support]
    least = 1 if require_positive else 0
    self_values = None if self_constraint is None else set(self_constraint)

    solutions: list[CurveSolution] = []
    for choice in choices:
        rhs = [lhs_pair[nm] - c * v for nm, v in zip(assigned, choice)]
        if any(sum(e * b for e, b in zip(row, rhs)) for row in checks):
            continue  # inconsistent
        quotients = [divmod(sum(e * b for e, b in zip(row, rhs)), R.den) for row in left]
        if any(rest or v < least for v, rest in quotients):
            continue
        mults = {s: v for s, (v, _) in zip(support, quotients)}
        # derived pairings come from the remaining equations
        pair_val = dict(zip(assigned, choice))
        ok = True
        for nm in derived:
            row = gram[pos[nm]]
            val = Fraction(lhs_pair[nm] - sum(mults[s] * row[j] for s, j in zip(support, sup_pos)), c)
            if val.denominator != 1:
                ok = False
                break
            pair_val[nm] = int(val)
        if not ok:
            continue
        if any(sum(pair_val[g] for g in group) != total for group, total in contact):
            continue
        # self-intersection from pairing the relation with the curve itself
        num = sum(coef * pair_val[nm] for nm, coef in template.lhs) - sum(
            mults[s] * pair_val[s] for s in support
        )
        self_val = Fraction(num, c)
        if self_val.denominator != 1:
            continue
        self_int = int(self_val)
        if parity and (self_int + pair_val["K"]) % 2 != 0:
            continue
        if self_values is not None and self_int not in self_values:
            continue
        pair_seq = [pair_val[nm] for nm in names]
        rel = [0] * len(names)
        for nm, coef in template.lhs:
            rel[pos[nm]] += coef
        for s, v in mults.items():
            rel[pos[s]] -= v
        # rel - c*curve pairs to zero with every class and with the curve by
        # construction (exact solve, integral derived pairings and self_int)
        solutions.append(
            CurveSolution(
                tuple((s, mults[s]) for s in support),
                tuple(pair_seq),
                self_int,
                canonical_relation(rel + [-c], k_pos),
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
    return GramLattice(names, M)


def format_lattice(L: GramLattice) -> str:
    return "names: " + " ".join(L.names) + "\n" + exactla.format_matrix(L.matrix())
