"""Reference linear algebra for the tests, independent of the numpy kernels.

``matvec`` multiplies in Python arithmetic on the matrix entries, so it can
check ``exactla.solve`` and ``exactla.nullspace`` without going through the
plane products they are built on.  ``field_rref`` is a plain Gauss-Jordan on
FieldElement arithmetic, sharing no code with the digit planes or the
regular representation that ``exactla.rref`` eliminates.  ``signature``
reads the signature of a symmetric form off sympy's characteristic
polynomial, with no elimination of the form at all.
"""

from fractions import Fraction

import sympy

from singhunt.exactla import ExactMatrix, rank
from singhunt.errors import DimensionMismatch
from singhunt.fields import FieldCtx
from singhunt.poly import QQ


def matvec(A: ExactMatrix, v) -> list:
    """A v: Fractions over QQ, ints over GF(p), FieldElements over GF(p^k)."""
    if len(v) != A.cols:
        raise DimensionMismatch("vector length does not match column count")
    if A.domain == QQ:
        return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0))
                for row in A.data]
    ctx = A.domain
    out = [sum((ctx.element(a) * ctx.element(x) for a, x in zip(row, v)), ctx.zero())
           for row in A.data]
    return [y.coeffs[0] for y in out] if ctx.k == 1 else out


def row_span_rank(rows, domain) -> int:
    if not rows:
        return 0
    return rank(ExactMatrix.make(domain, rows))


def in_row_span(rows, v, domain) -> bool:
    base = row_span_rank(rows, domain)
    return row_span_rank(list(rows) + [list(v)], domain) == base


def field_rref(ctx: FieldCtx, rows: list[list]) -> tuple[list[list], list[int]]:
    """(RREF, pivot columns) over ctx of the rows of ints (read mod p), digit
    tuples or FieldElements, by Gauss-Jordan on FieldElements."""
    M = [[ctx.element(v) for v in row] for row in rows]
    cols = len(M[0]) if M else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        scale = 1 / M[r][c]
        M[r] = [x * scale for x in M[r]]
        for i, row in enumerate(M):
            if i != r and row[c]:
                f = row[c]
                M[i] = [x - f * y for x, y in zip(row, M[r])]
        pivots.append(c)
    return M, pivots


def signature(rows) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.  Every root
    of its characteristic polynomial is real, so Descartes' rule of signs
    counts the positive and the negative ones exactly."""
    n = len(rows)
    x = sympy.Symbol("x")
    M = sympy.Matrix(n, n, [sympy.Rational(str(Fraction(v))) for row in rows for v in row])
    coeffs = sympy.Poly(M.charpoly(x).as_expr(), x).all_coeffs() if n else [1]
    zero = len(coeffs) - 1 - max(i for i, c in enumerate(coeffs) if c)

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    negated = [c * (-1) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs), sign_changes(negated), zero
