"""Dense exact linear algebra over GF(p^k) and over the rationals.

Everything here is exact: Fractions (arbitrary precision) over QQ, modular
integers over prime fields, FieldElement arithmetic over extensions.
Prime-field elimination is vectorized with numpy int64 (safe for p < 2^31);
rational determinants use fraction-free Bareiss elimination to limit
intermediate swell.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .errors import ContextMismatch, DimensionMismatch, MatrixSyntaxError, NotSquare
from .fields import FieldCtx, FieldElement

QQ = "QQ"


class ExactMatrix:
    __slots__ = ("rows", "cols", "domain", "data")

    def __init__(self, rows: int, cols: int, domain, data: list[list]):
        self.rows = rows
        self.cols = cols
        self.domain = domain
        self.data = data

    @classmethod
    def make(cls, domain, entries: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        data = []
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged matrix")
            data.append([_coerce(domain, v) for v in row])
        return cls(rows, cols, domain, data)

    @classmethod
    def identity(cls, n: int, domain) -> "ExactMatrix":
        return cls.make(
            domain, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

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


def _coerce(domain, v):
    if domain == QQ:
        if isinstance(v, FieldElement):
            raise ContextMismatch("field element in a rational matrix")
        return Fraction(v)
    if isinstance(domain, FieldCtx):
        if domain.k == 1:
            if isinstance(v, FieldElement):
                if v.ctx != domain:
                    raise ContextMismatch("entry from a different field context")
                return v.coeffs[0]
            return int(v) % domain.p
        return domain.element(v)
    raise ContextMismatch(f"unknown coefficient domain {domain!r}")


def _is_primefield(domain) -> bool:
    return isinstance(domain, FieldCtx) and domain.k == 1


# ---------------------------------------------------------------------------
# reduced row echelon form
# ---------------------------------------------------------------------------

def rref(A: ExactMatrix) -> tuple[ExactMatrix, list[int], int]:
    """Returns (R, pivot column indices, rank); R is row-equivalent to A."""
    if _is_primefield(A.domain) and A.domain.p < (1 << 31):
        R, pivots = _rref_modp(
            np.array(A.data, dtype=np.int64) if A.rows else np.zeros((0, A.cols), dtype=np.int64),
            A.domain.p,
        )
        out = ExactMatrix(A.rows, A.cols, A.domain, [list(map(int, row)) for row in R])
        return out, pivots, len(pivots)
    data = [list(row) for row in A.data]
    pivots = _rref_generic(data, A.domain)
    return ExactMatrix(A.rows, A.cols, A.domain, data), pivots, len(pivots)


def _rref_modp(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    M = M % p
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        col = M[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            M[mask] = (M[mask] - np.outer(col[mask], M[r])) % p
        pivots.append(c)
        r += 1
    return M, pivots


def _rref_generic(data: list[list], domain) -> list[int]:
    rows = len(data)
    cols = len(data[0]) if rows else 0
    if domain == QQ:
        is_zero = lambda v: v == 0
        invert = lambda v: 1 / v
        combine = lambda a, f, b: a - f * b
        scale_row = lambda row, s: [v * s for v in row]
    elif _is_primefield(domain):
        p = domain.p
        is_zero = lambda v: v % p == 0
        invert = lambda v: pow(v, p - 2, p)
        combine = lambda a, f, b: (a - f * b) % p
        scale_row = lambda row, s: [v * s % p for v in row]
    else:
        is_zero = lambda v: v.is_zero()
        from .fields import inv as field_inv

        invert = field_inv
        combine = lambda a, f, b: a - f * b
        scale_row = lambda row, s: [v * s for v in row]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if not is_zero(data[i][c])), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        data[r] = scale_row(data[r], invert(data[r][c]))
        for i in range(rows):
            if i == r or is_zero(data[i][c]):
                continue
            f = data[i][c]
            data[i] = [combine(a, f, b) for a, b in zip(data[i], data[r])]
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
    R, pivots, _ = rref(A)
    free = [c for c in range(A.cols) if c not in pivots]
    basis = []
    if A.domain == QQ:
        for fc in free:
            v = [Fraction(0)] * A.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][fc]
            basis.append(_primitive_integer(v))
    else:
        ctx = A.domain
        one = ctx.one() if ctx.k > 1 else 1
        zero = ctx.zero() if ctx.k > 1 else 0
        for fc in free:
            v = [zero] * A.cols
            v[fc] = one
            for r, pc in enumerate(pivots):
                val = R.data[r][fc]
                v[pc] = -val if ctx.k > 1 else (-val) % ctx.p
            basis.append(v)
    return basis


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
    if A.rows != A.cols:
        raise NotSquare(f"{A.rows}x{A.cols} matrix has no determinant")
    n = A.rows
    if n == 0:
        return Fraction(1) if A.domain == QQ else A.domain.one()
    if A.domain == QQ:
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
    return _det_field(A)


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


def _det_field(A: ExactMatrix):
    ctx = A.domain
    n = A.rows
    if ctx.k == 1:
        p = ctx.p
        m = [row[:] for row in A.data]
        det = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if m[i][c] % p), None)
            if pr is None:
                return 0
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = -det % p
            det = det * m[c][c] % p
            inv = pow(m[c][c], p - 2, p)
            for i in range(c + 1, n):
                f = m[i][c] * inv % p
                if f:
                    m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
        return det % p
    m = [row[:] for row in A.data]
    det = ctx.one()
    from .fields import inv as field_inv

    for c in range(n):
        pr = next((i for i in range(c, n) if not m[i][c].is_zero()), None)
        if pr is None:
            return ctx.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det = det * m[c][c]
        f0 = field_inv(m[c][c])
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c] * f0
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# ---------------------------------------------------------------------------
# solving, products, span operations
# ---------------------------------------------------------------------------

def matvec(A: ExactMatrix, v: Sequence) -> list:
    if len(v) != A.cols:
        raise DimensionMismatch("vector length does not match column count")
    vals = [_coerce(A.domain, x) for x in v]
    out = []
    for row in A.data:
        acc = _coerce(A.domain, 0)
        for a, x in zip(row, vals):
            prod = a * x
            acc = (acc + prod) % A.domain.p if _is_primefield(A.domain) else acc + prod
        out.append(acc)
    return out


def solve(A: ExactMatrix, b: Sequence) -> tuple[list | None, list[list]]:
    """All solutions of A x = b as (particular, kernel basis); None if none."""
    aug = ExactMatrix.make(
        A.domain, [list(row) + [bv] for row, bv in zip(A.data, b)]
    )
    R, pivots, _ = rref(aug)
    if A.cols in pivots:
        return None, []
    x = [_coerce(A.domain, 0)] * A.cols
    for r, pc in enumerate(pivots):
        x[pc] = R.data[r][A.cols]
    if isinstance(A.domain, FieldCtx) and A.domain.k > 1:
        x = [A.domain.element(v) for v in x]
    return x, nullspace(ExactMatrix(A.rows, A.cols, A.domain, [row[:] for row in A.data]))


def row_span_rank(rows: Sequence[Sequence], domain) -> int:
    if not rows:
        return 0
    return rank(ExactMatrix.make(domain, rows))


def span_intersection(B1: Sequence[Sequence], B2: Sequence[Sequence], domain) -> list[list]:
    """Basis of rowspan(B1) ∩ rowspan(B2), RREF-normalized."""
    if not B1 or not B2:
        return []
    n = len(B1[0])
    # columns: coefficients a (over B1 rows) and b (over B2 rows); solve B1^T a = B2^T b
    stacked = []
    for i in range(n):
        stacked.append([row[i] for row in B1] + [_negate(domain, row[i]) for row in B2])
    kernel = nullspace(ExactMatrix.make(domain, stacked))
    vectors = []
    for combo in kernel:
        a = combo[: len(B1)]
        vec = [_coerce(domain, 0)] * n
        for coeff, row in zip(a, B1):
            for j in range(n):
                prod = _coerce(domain, coeff) * _coerce(domain, row[j])
                vec[j] = (vec[j] + prod) % domain.p if _is_primefield(domain) else vec[j] + prod
        if any(not _entry_is_zero(domain, v) for v in vec):
            vectors.append(vec)
    if not vectors:
        return []
    R, pivots, rk = rref(ExactMatrix.make(domain, vectors))
    return [R.data[i][:] for i in range(rk)]


def _negate(domain, v):
    c = _coerce(domain, v)
    if _is_primefield(domain):
        return (-c) % domain.p
    return -c


def _entry_is_zero(domain, v) -> bool:
    if isinstance(v, FieldElement):
        return v.is_zero()
    return v == 0


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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].replace("[", " ").replace("]", " ").strip()
        if not line:
            continue
        try:
            rows.append([Fraction(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise MatrixSyntaxError(f"line {lineno}: bad matrix entry: {exc}") from exc
    if not rows:
        raise DimensionMismatch("empty matrix")
    return ExactMatrix.make(domain, rows)


def format_matrix(A: ExactMatrix) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in A.data)
