"""Reference linear algebra for the tests, independent of the numpy kernels.

``matvec`` multiplies in Python arithmetic on the matrix entries, so it can
check ``exactla.solve`` and ``exactla.nullspace`` without going through the
plane products they are built on.
"""

from fractions import Fraction

from singhunt.exactla import ExactMatrix, rank
from singhunt.errors import DimensionMismatch
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
