"""Dense exact linear algebra over GF(p^k) and over the rationals.

Everything here is exact.  A rational ExactMatrix holds integer rows (Python
ints) over one common positive denominator; one fraction-free Gauss-Jordan
elimination over Z serves its rref, rank, kernel, solve, determinant and
leading minors, with no Fraction arithmetic.  Over every finite field a
matrix holds the digit planes of ``fields``, and one Gauss-Jordan over GF(p)
eliminates them: a GF(p^k) matrix first becomes its regular representation
over GF(p), each entry its k x k multiplication matrix.  The elimination
makes one outer-product update per pivot, in float64 reduced exactly by
``fields.reduce_float`` while (p-1)^2 < 2^53, otherwise in int64 reduced by
``fields.reduce_int`` (Python ints once a product of residues exceeds
int64).  Either way the entries (over QQ ints, or Fractions where not
integral; ints over GF(p), FieldElements over GF(p^k)) are derived only
when first read.  Every rank, kernel and solve goes through ``rref``, once:
a solve reads its particular solution and its kernel from the one RREF of
[A | b].
``determinant`` and ``is_negative_definite`` read its swaps and pivots.
``rank_stack`` ranks a whole stack of finite-field matrices at once (digit
planes k x systems x rows x cols), with each system's pivot chosen
separately: a fraction-free echelon form, with no inverse and no back
substitution, in the same three tiers, GF(p^k) through the regular
representation.  A stack of more systems than rows is eliminated with the
systems innermost in memory, so each update is a pass over contiguous
systems; one or a few large matrices keep their rows contiguous, which is
faster for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import ContextMismatch, DimensionMismatch, MatrixSyntaxError, NotSquare, data_lines
from .fields import (
    FieldCtx,
    FieldElement,
    _dtype,
    reduce_float,
    reduce_int,
    to_planes,
    to_scalars,
)
from .poly import QQ, ZZ


class ExactMatrix:
    __slots__ = ("rows", "cols", "domain", "planes", "num", "den", "_data")

    def __init__(self, rows: int, cols: int, domain, planes: np.ndarray | None = None,
                 num: list[list[int]] | None = None, den: int = 1):
        self.rows = rows
        self.cols = cols
        self.domain = domain
        self.planes = planes  # digit planes (k x rows x cols) over a finite field
        self.num = num  # integer rows over QQ: entry (i, j) is num[i][j] / den
        self.den = den  # positive
        self._data = None

    @classmethod
    def make(cls, domain, entries: Sequence[Sequence], cols: int | None = None) -> "ExactMatrix":
        """The matrix with the given rows; cols sizes a matrix of no rows.
        An integer (ZZ) matrix is stored over QQ."""
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        if any(len(row) != cols for row in entries):
            raise DimensionMismatch("ragged matrix")
        if isinstance(domain, FieldCtx):
            return cls.from_planes(domain, to_planes(domain, entries).reshape(domain.k, rows, cols))
        _check_rational(domain)
        num, den = _integer_rows(entries)
        return cls(rows, cols, QQ, num=num, den=den)

    @classmethod
    def from_planes(cls, ctx: FieldCtx, planes: np.ndarray) -> "ExactMatrix":
        _, rows, cols = planes.shape
        return cls(rows, cols, ctx, planes=planes)

    @classmethod
    def sparse(cls, domain, rows: int, cols: int, entries: dict) -> "ExactMatrix":
        """The rows x cols matrix whose nonzero entries are entries[(row, column)]."""
        if not isinstance(domain, FieldCtx):
            _check_rational(domain)
            (values,), den = _integer_rows([list(entries.values())])
            num = [[0] * cols for _ in range(rows)]
            for (i, j), v in zip(entries, values):
                num[i][j] = v
            return cls(rows, cols, QQ, num=num, den=den)
        planes = np.zeros((domain.k, rows, cols), dtype=_dtype(domain.p))
        if entries:
            i, j = zip(*entries)
            planes[:, list(i), list(j)] = to_planes(domain, list(entries.values()))
        return cls.from_planes(domain, planes)

    @classmethod
    def identity(cls, n: int, domain) -> "ExactMatrix":
        return cls.make(
            domain, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def data(self) -> list[list]:
        """The entries as nested lists: over QQ ints, with Fractions only
        where an entry is not integral; over a finite field see
        ``fields.to_scalars``."""
        if self._data is None:
            if self.domain == QQ:
                den = self.den
                self._data = [[Fraction(x, den) if x % den else x // den for x in row]
                              for row in self.num]
            else:
                self._data = to_scalars(self.domain, self.planes)
        return self._data

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> list:
        return list(self.data[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.domain == other.domain
            and self.data == other.data
        )

    def __repr__(self) -> str:
        body = "\n".join(" ".join(str(v) for v in row) for row in self.data)
        return f"<ExactMatrix {self.rows}x{self.cols} over {self.domain}>\n{body}"


def _check_rational(domain) -> None:
    if domain not in (QQ, ZZ):
        raise ContextMismatch(f"unknown coefficient domain {domain!r}")


def _rational(v) -> Fraction:
    if isinstance(v, FieldElement):
        raise ContextMismatch("field element in a rational matrix")
    return Fraction(v)


def _integer_rows(entries: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(num, den): rows of ints and the least positive den with entries == num / den."""
    try:  # ints and Fractions both have a numerator and a denominator
        den = lcm(*{v.denominator for row in entries for v in row})
    except AttributeError:
        return _integer_rows([[_rational(v) for v in row] for row in entries])
    if den == 1:
        return [[v.numerator for v in row] for row in entries], 1
    return [[v.numerator * (den // v.denominator) for v in row] for row in entries], den


# ---------------------------------------------------------------------------
# reduced row echelon form
# ---------------------------------------------------------------------------

def rref(A: ExactMatrix) -> tuple[ExactMatrix, list[int], int]:
    """Returns (R, pivot column indices, rank); R is row-equivalent to A.

    Over QQ every pivot entry of R.num equals R.den."""
    if A.domain == QQ:
        num = list(A.num)
        leads, pivots, _ = _fraction_free(num)
        den = leads[-1]
        if den < 0:
            num[: len(pivots)] = [[-x for x in row] for row in num[: len(pivots)]]
            den = -den
        return ExactMatrix(A.rows, A.cols, QQ, num=num, den=den), pivots, len(pivots)
    R, pivots = _rref_modp(A.planes, A.domain)
    return ExactMatrix.from_planes(A.domain, R), pivots, len(pivots)


def _fraction_free(num: list[list[int]]) -> tuple[list[int], list[int], int]:
    """Fraction-free Gauss-Jordan over Z on the rows num, in place.

    For each pivot a in row p, with d the previous pivot (1 at first), every
    other row becomes (a*row - f*p) / d, f being its entry in the pivot
    column; the division is exact.  A row with f = 0 is only scaled by a/d,
    which is put off: at[i] is the pivot at which row i was last updated,
    its value is num[i] * den / at[i] for the current pivot den, and its
    next update divides by at[i] instead of den.  Returns (leads, pivots,
    swaps): leads is 1 and then each pivot, which until the first row
    exchange is the leading minor of its size (Bareiss); num / den is the
    RREF of the input for den = leads[-1], and swaps counts the exchanges,
    so that a square input of full rank has determinant (-1)^swaps * den.
    """
    rows = len(num)
    cols = len(num[0]) if rows else 0
    at = [1] * rows
    pivots: list[int] = []
    leads = [1]
    den = 1
    swaps = 0
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if num[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            num[r], num[pr] = num[pr], num[r]
            at[r], at[pr] = at[pr], at[r]
            swaps += 1
        p = num[r] = _scaled(num[r], den, at[r])
        a = p[c]
        for i, row in enumerate(num):
            f = row[c]
            if f and i != r:
                num[i] = [(a * x - f * y) // at[i] for x, y in zip(row, p)]
                at[i] = a
        at[r] = den = a
        pivots.append(c)
        leads.append(a)
    for i in range(len(pivots)):  # the rows below are zero
        num[i] = _scaled(num[i], den, at[i])
    return leads, pivots, swaps


def _scaled(row: list[int], den: int, at: int) -> list[int]:
    """row * den / at, exactly."""
    return row if at == den else [x * den // at for x in row]


def _rref_modp(M: np.ndarray, ctx: FieldCtx) -> tuple[np.ndarray, list[int]]:
    """RREF of the digit planes M (k x rows x cols) over ctx; M is not modified.

    Over GF(p^k) it is read from the RREF over GF(p) of the regular
    representation: that RREF is unique, so it is the block matrix of the
    GF(p^k) RREF (a pivot 1 is an identity block, every other block of a
    pivot column is zero), whose rows 0, k, 2k, ... hold the digits of the
    GF(p^k) rows and whose every k-th pivot is k times a GF(p^k) one."""
    k = ctx.k
    if k == 1:
        R, pivots = _rref_residues(M[0], ctx.p)
        return R[None], pivots
    _, rows, cols = M.shape
    R, pivots = _rref_residues(_regular(M, ctx), ctx.p)
    planes = np.moveaxis(R[::k].reshape(rows, cols, k), -1, 0)
    return np.ascontiguousarray(planes), [c // k for c in pivots[::k]]  # a copy frees R


def _regular(M: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """The matrices over GF(p) (... x k*rows x k*cols) in which each entry a
    of the planes M (k x ... x rows x cols) becomes its multiplication
    matrix: row l holds the digits of t^l * a, which are those of
    t^(l-1) * a shifted up one, less the top digit times the modulus
    (t^k = -(m_0 + m_1 t + ... + m_(k-1) t^(k-1)))."""
    p, k = ctx.p, ctx.k
    *stack, rows, cols = M.shape[1:]
    modulus = np.array(ctx.modulus[:k], dtype=_dtype(p))
    E = np.zeros((*stack, rows, k, cols, k), dtype=_dtype(p))
    E[..., 0, :, :] = np.moveaxis(M % p, 0, -1)
    for l in range(1, k):
        E[..., l, :, 1:] = E[..., l - 1, :, :-1]
        E[..., l, :, :] = (E[..., l, :, :] - E[..., l - 1, :, -1:] * modulus) % p
    return E.reshape(*stack, rows * k, cols * k)


def _residue_tier(p: int):
    """(dtype, reduce) of the exact residue arithmetic over GF(p) in which
    every integer |x| <= (p-1)^2 is held: float64 while (p-1)^2 < 2^53,
    reduced by ``fields.reduce_float``; past that int64 reduced by
    ``fields.reduce_int`` (Python ints once (p-1)^2 >= 2^63).  reduce(x, p)
    reduces x in place."""
    if (p - 1) ** 2 < 2**53:
        return np.float64, reduce_float
    return _dtype(p), reduce_int


def _rref_residues(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """RREF over GF(p) of the integer matrix A, and its pivots: the one
    Gauss-Jordan of every finite field.

    Each pivot (r, c) is one update of columns c onward, the pivot row being
    zero left of c: row i loses g_i times the pivot row, where g_i is its
    entry in column c over the pivot, and g_r = 1 - 1/pivot scales the pivot
    row to a leading 1 in the same update.  Every value is an integer with
    |x| <= (p-1)^2, held in the tier of ``_residue_tier`` (R comes back int64
    from float64)."""
    dtype, reduce = _residue_tier(p)
    R = (A % p).astype(dtype)
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        (nz,) = R[r:, c].nonzero()
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        inv = pow(int(R[r, c]), -1, p)
        g = reduce(R[:, c] * inv, p)
        g[r] = (1 - inv) % p
        X = R[:, c:]
        X -= np.multiply.outer(g, X[r])
        reduce(X, p)
        pivots.append(c)
        r += 1
    return (R.astype(np.int64) if dtype is np.float64 else R), pivots


def rank(A: ExactMatrix) -> int:
    """The number of pivots; over QQ of the fraction-free elimination alone."""
    if A.domain == QQ:
        return len(_fraction_free(list(A.num))[1])
    return rref(A)[2]


def rank_stack(M: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """The rank of every matrix of a stack over ctx, from its digit planes M
    (k x systems x rows x cols): an int64 array, one rank per system.

    A fraction-free echelon form over GF(p), with no inverse and no back
    substitution, in the tiers of ``_residue_tier``.  At each column every
    system whose column is not zero takes its first row P nonzero there as
    pivot row, with pivot a, and each of its rows (P too, which so becomes
    zero) becomes a*row - f*P, f being the row's entry in the column; a
    system's rank is the number of columns at which it had a pivot.  The
    matrices are ranked as their transposes when that takes fewer columns,
    and over GF(p^k) as their regular representations, of k times the rank.

    Layout (``_residue_stack``): a stack of more systems than rows is held
    systems innermost, so that every update runs down contiguous systems;
    one or a few large matrices keep their rows contiguous.  The same
    indexing serves both: a pivot row is gathered by its flat offset, and a
    system whose column is zero gathers its row of ones, which leaves it
    unchanged.
    """
    k, systems, rows, cols = M.shape
    p = ctx.p
    A = M[0] if k == 1 else _regular(M, ctx)
    if rows < cols:
        A = A.transpose(0, 2, 1)
    _, rows, cols = A.shape
    ranks = np.zeros(systems, dtype=np.int64)
    if not (systems and cols):  # no matrix, or only matrices of rank 0
        return ranks
    dtype, reduce = _residue_tier(p)
    buf, R = _residue_stack(systems, rows, cols, dtype)
    R[...] = A
    reduce(R, p)
    flat = buf.reshape(-1)
    step_s, step_r, step_c = (s // buf.itemsize for s in R.strides)  # all positive
    base = rows * step_r  # each system's row of ones starts base after it
    ones = np.arange(base, base + systems * step_s, step_s)
    weight = np.arange(base, 0, -step_r)  # row i weighs rows - i rows above the ones
    offsets = np.arange(0, cols * step_c, step_c)
    for c in range(cols):
        column = R[:, :, c]
        score = ((column != 0) * weight).max(axis=1, initial=0)  # 0: the column is zero
        ranks += score > 0
        if c + 1 == cols:
            break
        # each system's pivot row (its row of ones where the column is zero)
        # from column c on, one column of P per system
        P = flat.take(np.add.outer(offsets[c:], ones - score))
        X = R[:, :, c + 1:]
        X *= P[0][:, None, None]
        X -= column[:, :, None] * P[1:].T[:, None, :]
        reduce(X, p)
    return ranks // k


def _residue_stack(systems: int, rows: int, cols: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(buf, R): an uninitialised stack R (systems x rows x cols) for
    ``rank_stack`` and the buffer that holds it, with a row of ones below
    every system.  A stack of more systems than rows is held systems
    innermost (buf is rows+1 x cols x systems and R a transposed view of
    it); otherwise each system's rows are contiguous (systems x rows+1 x
    cols)."""
    if systems > rows:
        buf = np.empty((rows + 1, cols, systems), dtype=dtype)
        buf[rows] = 1
        return buf, buf[:rows].transpose(2, 0, 1)
    buf = np.empty((systems, rows + 1, cols), dtype=dtype)
    buf[:, rows] = 1
    return buf, buf[:, :rows]


# ---------------------------------------------------------------------------
# right kernel
# ---------------------------------------------------------------------------

def nullspace(A: ExactMatrix) -> list[list]:
    """Basis of {v : A v = 0}.

    Over QQ the basis vectors are primitive integer vectors (content 1,
    first nonzero entry positive) so they can be compared verbatim against
    published relations; over a finite field they come from the RREF with a
    unit at the free coordinate.
    """
    R, pivots, _ = rref(A)
    if A.domain == QQ:
        return _kernel_rows(R, pivots, A.cols)
    return to_scalars(A.domain, _kernel_planes(R, pivots, A.cols))


def _kernel_rows(R: ExactMatrix, pivots: list[int], cols: int) -> list[list[int]]:
    """The primitive kernel basis of the first cols columns of a QQ RREF R
    whose pivots all lie among them: R.den at the free column f, minus
    column f of R.num at the pivots."""
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [0] * cols
        v[fc] = R.den
        for row, pc in zip(R.num, pivots):
            v[pc] = -row[fc]
        basis.append(_primitive(v))
    return basis


def _kernel_planes(R: ExactMatrix, pivots: list[int], cols: int) -> np.ndarray:
    """Planes (k x nullity x cols) of the kernel basis of the first cols
    columns of a finite-field RREF R whose pivots all lie among them: 1 at
    the free column f, minus column f of R at the pivots."""
    ctx = R.domain
    free = [c for c in range(cols) if c not in pivots]
    K = np.zeros((ctx.k, len(free), cols), dtype=R.planes.dtype)
    K[0, range(len(free)), free] = 1
    K[:, :, pivots] = (-R.planes[:, :len(pivots)][:, :, free] % ctx.p).transpose(0, 2, 1)
    return K


def _primitive(v: list[int]) -> list[int]:
    """v divided by its content, with its first nonzero entry positive."""
    g = gcd(*v)
    if next((x for x in v if x), 0) < 0:
        g = -g
    return v if g in (0, 1) else [x // g for x in v]


def _primitive_integer(v: Sequence) -> list[int]:
    """The primitive integer vector (see ``_primitive``) on the line of a rational v."""
    (ints,), _ = _integer_rows([v])
    return _primitive(ints)


# ---------------------------------------------------------------------------
# determinants and leading minors
# ---------------------------------------------------------------------------

def determinant(A: ExactMatrix) -> Fraction:
    """det(A) over QQ: +-den of the fraction-free elimination of A.num, by
    the parity of its row swaps, over A.den^n; 0 below full rank."""
    if A.domain != QQ:
        raise ContextMismatch("determinant is defined for rational matrices")
    if A.rows != A.cols:
        raise NotSquare(f"{A.rows}x{A.cols} matrix has no determinant")
    leads, pivots, swaps = _fraction_free(list(A.num))
    if len(pivots) < A.rows:
        return Fraction(0)
    return Fraction(-leads[-1] if swaps % 2 else leads[-1], A.den ** A.rows)


def is_negative_definite(A: ExactMatrix) -> bool:
    """Sylvester's criterion: a symmetric rational A is negative definite
    when (-1)^k times its leading k x k principal minor is positive for
    every k.  One fraction-free elimination of A.num gives the minors (their
    signs are those of A, as A.den > 0): its k-th pivot, while no row was
    exchanged.  A zero minor forces an exchange or leaves a column without
    a pivot."""
    if A.domain != QQ:
        raise ContextMismatch("definiteness is defined for rational matrices")
    if A.rows != A.cols:
        raise NotSquare(f"{A.rows}x{A.cols} matrix is not a square form")
    leads, pivots, swaps = _fraction_free(list(A.num))
    return len(pivots) == A.rows and not swaps and all((-1) ** k * a > 0 for k, a in enumerate(leads))


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def solve(A: ExactMatrix, b: Sequence) -> tuple[list | None, list[list]]:
    """All solutions of A x = b as (particular, kernel basis); None if none.

    One elimination of [A | b]: the first A.cols columns of its RREF are
    A's RREF, so the kernel is read from the same pivots."""
    if len(b) != A.rows:
        raise DimensionMismatch(f"right-hand side has {len(b)} entries for {A.rows} rows")
    if A.domain == QQ:
        (ints,), bden = _integer_rows([list(b)])
        den = lcm(A.den, bden)
        s, t = den // A.den, den // bden
        aug = [[x * s for x in row] + [y * t] for row, y in zip(A.num, ints)]
        R, pivots, _ = rref(ExactMatrix(A.rows, A.cols + 1, QQ, num=aug, den=den))
        if A.cols in pivots:
            return None, []
        x = [Fraction(0)] * A.cols
        for row, pc in zip(R.num, pivots):
            x[pc] = Fraction(row[A.cols], R.den)
        return x, _kernel_rows(R, pivots, A.cols)
    ctx = A.domain
    column = to_planes(ctx, list(b)).reshape(ctx.k, A.rows, 1)
    found = solve_augmented(ExactMatrix.from_planes(ctx, np.concatenate([A.planes, column], axis=2)))
    return (None, []) if found is None else (to_scalars(ctx, found[0]), to_scalars(ctx, found[1]))


def solve_augmented(aug: ExactMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """The solutions of A x = b over a finite field, from one ``rref`` of
    the planes aug = [A | b]: the planes (k x cols) of the particular
    solution, zero at the free columns, and (k x nullity x cols) of the
    kernel basis; None when the system is inconsistent."""
    R, pivots, _ = rref(aug)
    cols = aug.cols - 1
    if cols in pivots:
        return None
    X = np.zeros((aug.domain.k, cols), dtype=R.planes.dtype)
    X[:, pivots] = R.planes[:, :len(pivots), cols]
    return X, _kernel_planes(R, pivots, cols)


# ---------------------------------------------------------------------------
# text I/O: one row per line, whitespace-separated integers or a/b rationals;
# bracket characters are ignored so published matrix blocks paste verbatim
# ---------------------------------------------------------------------------

def parse_matrix(text: str, domain=QQ) -> ExactMatrix:
    rows = []
    for lineno, line in data_lines(text.replace("[", " ").replace("]", " ")):
        try:
            rows.append([_parse_entry(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixSyntaxError(f"line {lineno}: bad matrix entry: {exc}") from exc
    if not rows:
        raise DimensionMismatch("empty matrix")
    return ExactMatrix.make(domain, rows)


def _parse_entry(tok: str) -> int | Fraction:
    try:
        return int(tok)
    except ValueError:
        return Fraction(tok)


def format_matrix(A: ExactMatrix) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in A.data)
