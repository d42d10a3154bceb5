"""Dense exact linear algebra over GF(p^k) and over the rationals.

Everything here is exact: Fractions (arbitrary precision) over QQ, and over
every finite field the digit planes of ``fields``, eliminated with numpy
(int64 where a product of residues fits, Python ints otherwise).  A
finite-field ExactMatrix holds its planes; its entries (ints over GF(p),
FieldElements over GF(p^k)) are derived from them only when read.  Every
elimination goes through ``rref``.  Rational determinants use fraction-free
Bareiss elimination to limit intermediate swell.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .errors import ContextMismatch, DimensionMismatch, MatrixSyntaxError, NotSquare, data_lines
from .fields import (
    FieldCtx,
    FieldElement,
    _dtype,
    inv_digits,
    plane_matmul,
    plane_mul,
    to_planes,
    to_scalars,
)
from .poly import QQ, ZZ


class ExactMatrix:
    __slots__ = ("rows", "cols", "domain", "planes", "_data")

    def __init__(self, rows: int, cols: int, domain, data: list[list] | None = None,
                 planes: np.ndarray | None = None):
        self.rows = rows
        self.cols = cols
        self.domain = domain
        self.planes = planes  # digit planes (k x rows x cols) over a finite field
        self._data = data  # entries over QQ

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
        if domain not in (QQ, ZZ):
            raise ContextMismatch(f"unknown coefficient domain {domain!r}")
        return cls(rows, cols, QQ, [[_rational(v) for v in row] for row in entries])

    @classmethod
    def from_planes(cls, ctx: FieldCtx, planes: np.ndarray) -> "ExactMatrix":
        _, rows, cols = planes.shape
        return cls(rows, cols, ctx, planes=planes)

    @classmethod
    def sparse(cls, domain, rows: int, cols: int, entries: dict) -> "ExactMatrix":
        """The rows x cols matrix whose nonzero entries are entries[(row, column)]."""
        if not isinstance(domain, FieldCtx):
            dense = [[0] * cols for _ in range(rows)]
            for (i, j), v in entries.items():
                dense[i][j] = v
            return cls.make(domain, dense, cols)
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
        """The entries as nested lists (see ``fields.to_scalars`` over a finite field)."""
        if self._data is None:
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


def _rational(v) -> Fraction:
    if isinstance(v, FieldElement):
        raise ContextMismatch("field element in a rational matrix")
    return Fraction(v)


# ---------------------------------------------------------------------------
# reduced row echelon form
# ---------------------------------------------------------------------------

def rref(A: ExactMatrix) -> tuple[ExactMatrix, list[int], int]:
    """Returns (R, pivot column indices, rank); R is row-equivalent to A."""
    if A.domain == QQ:
        data = [list(row) for row in A.data]
        pivots = _rref_generic(data)
        return ExactMatrix(A.rows, A.cols, QQ, data), pivots, len(pivots)
    R, pivots = _rref_modp(A.planes, A.domain)
    return ExactMatrix.from_planes(A.domain, R), pivots, len(pivots)


def _rref_modp(M: np.ndarray, ctx: FieldCtx) -> tuple[np.ndarray, list[int]]:
    """RREF of the digit planes M (k x rows x cols) over ctx; M is not modified."""
    p = ctx.p
    M = M % p
    _, rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(M[:, r:, c])[1]
        if nz.size == 0:
            continue
        pr = r + int(nz.min())
        if pr != r:
            M[:, [r, pr]] = M[:, [pr, r]]
        M[:, r] = plane_mul(ctx, M[:, r], inv_digits(ctx, M[:, r, c])[:, None])
        col = M[:, :, c].copy()
        col[:, r] = 0
        mask = np.nonzero(col.any(axis=0))[0]
        if mask.size:
            M[:, mask] = (M[:, mask] - plane_mul(ctx, col[:, mask, None], M[:, r, None])) % p
        pivots.append(c)
        r += 1
    return M, pivots


def _rref_generic(data: list[list]) -> list[int]:
    """Gauss-Jordan over QQ in place; returns the pivot columns."""
    rows = len(data)
    cols = len(data[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if data[i][c] != 0), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        inv = 1 / data[r][c]
        data[r] = [v * inv for v in data[r]]
        for i in range(rows):
            if i == r or data[i][c] == 0:
                continue
            f = data[i][c]
            data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
    return pivots


def rank(A: ExactMatrix) -> int:
    return rref(A)[2]


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
    if A.domain != QQ:
        return to_scalars(A.domain, _kernel_planes(A))
    R, pivots, _ = rref(A)
    basis = []
    for fc in (c for c in range(A.cols) if c not in pivots):
        v = [Fraction(0)] * A.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R.data[r][fc]
        basis.append(_primitive_integer(v))
    return basis


def _kernel_planes(A: ExactMatrix) -> np.ndarray:
    """Planes (k x nullity x cols) of the RREF kernel basis of a finite-field A."""
    R, pivots, _ = rref(A)
    ctx = A.domain
    free = [c for c in range(A.cols) if c not in pivots]
    K = np.zeros((ctx.k, len(free), A.cols), dtype=R.planes.dtype)
    K[0, range(len(free)), free] = 1
    K[:, :, pivots] = (-R.planes[:, :len(pivots)][:, :, free] % ctx.p).transpose(0, 2, 1)
    return K


def _primitive_integer(v: list[Fraction]) -> list[int]:
    from math import lcm

    denom = 1
    for x in v:
        denom = lcm(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


# ---------------------------------------------------------------------------
# determinants (fraction-free over QQ)
# ---------------------------------------------------------------------------

def determinant(A: ExactMatrix):
    if A.domain != QQ:
        raise ContextMismatch("determinant is defined for rational matrices")
    if A.rows != A.cols:
        raise NotSquare(f"{A.rows}x{A.cols} matrix has no determinant")
    if A.rows == 0:
        return Fraction(1)
    from math import lcm

    scale = Fraction(1)
    int_rows = []
    for row in A.data:
        d = 1
        for x in row:
            d = lcm(d, x.denominator)
        scale /= d
        int_rows.append([int(x * d) for x in row])
    return scale * _bareiss(int_rows)


def _bareiss(m: list[list[int]]):
    """Fraction-free elimination; every division below is exact."""
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1])


# ---------------------------------------------------------------------------
# solving, products, span operations
# ---------------------------------------------------------------------------

def matvec(A: ExactMatrix, v: Sequence) -> list:
    if len(v) != A.cols:
        raise DimensionMismatch("vector length does not match column count")
    if A.domain == QQ:
        vals = [_rational(x) for x in v]
        return [sum((a * x for a, x in zip(row, vals)), Fraction(0)) for row in A.data]
    ctx = A.domain
    column = to_planes(ctx, list(v)).reshape(ctx.k, A.cols, 1)
    return to_scalars(ctx, plane_matmul(ctx, A.planes, column)[:, :, 0])


def solve(A: ExactMatrix, b: Sequence) -> tuple[list | None, list[list]]:
    """All solutions of A x = b as (particular, kernel basis); None if none."""
    b = list(b)[: A.rows]
    if A.domain == QQ:
        aug = ExactMatrix.make(QQ, [list(row) + [bv] for row, bv in zip(A.data, b)], A.cols + 1)
    else:
        ctx = A.domain
        column = to_planes(ctx, b).reshape(ctx.k, len(b), 1)
        aug = ExactMatrix.from_planes(ctx, np.concatenate([A.planes[:, :len(b)], column], axis=2))
    R, pivots, _ = rref(aug)
    if A.cols in pivots:
        return None, []
    if A.domain == QQ:
        x = [Fraction(0)] * A.cols
        for r, pc in enumerate(pivots):
            x[pc] = R.data[r][A.cols]
    else:
        X = np.zeros((A.domain.k, A.cols), dtype=R.planes.dtype)
        X[:, pivots] = R.planes[:, :len(pivots), A.cols]
        x = to_scalars(A.domain, X)
    return x, nullspace(A)


def row_span_rank(rows: Sequence[Sequence], domain) -> int:
    if not rows:
        return 0
    return rank(ExactMatrix.make(domain, rows))


def span_intersection(B1: Sequence[Sequence], B2: Sequence[Sequence], ctx: FieldCtx) -> list[list]:
    """Basis of rowspan(B1) ∩ rowspan(B2) over a finite field, RREF-normalized."""
    if not isinstance(ctx, FieldCtx):
        raise ContextMismatch("span intersection is defined over finite fields")
    if not B1 or not B2:
        return []
    P1, P2 = to_planes(ctx, B1), to_planes(ctx, B2)
    # columns: coefficients a (over B1 rows) and b (over B2 rows); solve B1^T a = B2^T b
    stacked = np.concatenate([P1, -P2 % ctx.p], axis=1).transpose(0, 2, 1)
    kernel = _kernel_planes(ExactMatrix.from_planes(ctx, stacked))
    vectors = plane_matmul(ctx, kernel[:, :, : len(B1)], P1)
    vectors = vectors[:, vectors.any(axis=(0, 2))]
    R, pivots, _ = rref(ExactMatrix.from_planes(ctx, vectors))
    return to_scalars(ctx, R.planes[:, : len(pivots)])


def in_row_span(rows: Sequence[Sequence], v: Sequence, domain) -> bool:
    base = row_span_rank(rows, domain)
    return row_span_rank(list(rows) + [list(v)], domain) == base


# ---------------------------------------------------------------------------
# symmetric forms: definiteness and signature, all exact
# ---------------------------------------------------------------------------

def leading_minors(A: ExactMatrix) -> list:
    if A.rows != A.cols:
        raise NotSquare("leading minors need a square matrix")
    out = []
    for k in range(1, A.rows + 1):
        sub = ExactMatrix.make(A.domain, [row[:k] for row in A.data[:k]])
        out.append(determinant(sub))
    return out


def is_negative_definite(A: ExactMatrix) -> bool:
    """Sylvester: -A has all leading principal minors positive."""
    neg = ExactMatrix.make(A.domain, [[-v for v in row] for row in A.data])
    return all(m > 0 for m in leading_minors(neg))


def symmetric_signature(A: ExactMatrix) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence-reduces with symmetric pivots; a zero diagonal with a nonzero
    off-diagonal entry is repaired by adding the partner row/column, which
    preserves the congruence class.
    """
    if A.domain != QQ:
        raise ContextMismatch("signature is defined for rational matrices")
    n = A.rows
    m = [[Fraction(v) for v in row] for row in A.data]
    plus = minus = 0
    idx = list(range(n))
    used = 0
    while used < n:
        k = used
        piv = next((i for i in range(used, n) if m[i][i] != 0), None)
        if piv is None:
            pair = None
            for i in range(used, n):
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            piv = i
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for r in range(n):
                m[r][k], m[r][piv] = m[r][piv], m[r][k]
        d = m[k][k]
        if d > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / d
                for c in range(n):
                    m[i][c] -= f * m[k][c]
        for j in range(k + 1, n):
            if m[k][j] != 0:
                f = m[k][j] / d
                for r in range(n):
                    m[r][j] -= f * m[r][k]
        used += 1
    return plus, minus, n - plus - minus


# ---------------------------------------------------------------------------
# text I/O: one row per line, whitespace-separated integers or a/b rationals;
# bracket characters are ignored so published matrix blocks paste verbatim
# ---------------------------------------------------------------------------

def parse_matrix(text: str, domain=QQ) -> ExactMatrix:
    rows = []
    for lineno, line in data_lines(text.replace("[", " ").replace("]", " ")):
        try:
            rows.append([Fraction(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixSyntaxError(f"line {lineno}: bad matrix entry: {exc}") from exc
    if not rows:
        raise DimensionMismatch("empty matrix")
    return ExactMatrix.make(domain, rows)


def format_matrix(A: ExactMatrix) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in A.data)
