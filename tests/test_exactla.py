import random
from unittest import mock
from fractions import Fraction
from itertools import permutations
from math import gcd

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings, strategies as st

from linalg_reference import field_rref, matvec, signature
from singhunt import exactla
from singhunt.errors import ContextMismatch, DimensionMismatch, NotSquare
from singhunt.exactla import (
    QQ,
    ZZ,
    ExactMatrix,
    determinant,
    is_negative_definite,
    nullspace,
    parse_matrix,
    rank,
    rref,
    solve,
)
from singhunt.fields import _dtype, field_create
from singhunt.lattice import GODEAUX_GRAM_TEXT

GRAM = parse_matrix(GODEAUX_GRAM_TEXT)


def test_rref_identity():
    I3 = ExactMatrix.identity(3, QQ)
    R, pivots, rk = rref(I3)
    assert R == I3 and pivots == [0, 1, 2] and rk == 3


def test_rref_rank_one():
    A = ExactMatrix.make(QQ, [[1, 2], [2, 4]])
    R, pivots, rk = rref(A)
    assert rk == 1 and R.data == [[1, 2], [0, 0]]


def test_gram_matrix_rank_nine():
    assert rank(GRAM) == 9


def test_nullspace_examples():
    A = ExactMatrix.make(QQ, [[1, 2], [2, 4]])
    basis = nullspace(A)
    assert len(basis) == 1
    v = basis[0]
    # primitive integer vector spanning {(-2, 1)}
    assert v in ([2, -1], [-2, 1])
    assert v[0] > 0  # deterministic sign: first nonzero entry positive
    assert all(x == 0 for x in matvec(A, v))
    assert nullspace(GRAM) == []


def test_extended_gram_contains_relation_vector():
    # {N1..N8, K, C'} with the pairings forced by the divisibility relation
    c_pair = [1, 0, 0, 0, 1, 1, 0, 0, 2]
    rows = [list(r) + [c_pair[i]] for i, r in enumerate(GRAM.data)]
    rows.append(c_pair + [2])
    M10 = ExactMatrix.make(QQ, rows)
    basis = nullspace(M10)
    assert len(basis) == 1
    rel = [-2, 0, -1, -2, -3, -3, -2, -1, 8, -4]
    v = basis[0]
    assert v == rel or v == [-x for x in rel]


def cofactor_det(m):
    """Oracle: Laplace expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def test_determinant_examples():
    A3 = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    assert determinant(ExactMatrix.make(QQ, A3)) == cofactor_det(A3) == -4
    assert determinant(GRAM) == 64
    assert determinant(ExactMatrix.identity(4, QQ)) == 1
    with pytest.raises(NotSquare):
        determinant(ExactMatrix.make(QQ, [[1, 2]]))


def test_determinant_block_diagonal_factorization():
    # 64 = (-2) * (-2) * det(A3) * det(A3) * 1
    assert determinant(GRAM) == (-2) * (-2) * (-4) * (-4) * 1


def fraction_gauss_det(rows):
    """Oracle: plain fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_determinant_matches_fraction_elimination():
    rnd = random.Random(5)
    for _ in range(40):
        n = rnd.randint(1, 6)
        rows = [[rnd.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(ExactMatrix.make(QQ, rows)) == fraction_gauss_det(rows)


def test_rational_entries_determinant():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert determinant(ExactMatrix.make(QQ, rows)) == Fraction(1, 14) - Fraction(1, 15)


def test_rank_nullity_random_gf():
    rnd = random.Random(17)
    for _ in range(25):
        p = rnd.choice([2, 3, 5, 7, 11, 101])
        ctx = field_create(p)
        r = rnd.randint(1, 40)
        c = rnd.randint(1, 40)
        A = ExactMatrix.make(ctx, [[rnd.randrange(p) for _ in range(c)] for _ in range(r)])
        kernel = nullspace(A)
        assert rank(A) + len(kernel) == c
        for v in kernel:
            assert all(x == 0 for x in matvec(A, v))


def test_generic_path_for_large_prime_field():
    # p >= 2^31: residue products still fit int64
    p = 2147483659
    ctx = field_create(p)
    A = ExactMatrix.make(ctx, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    R, pivots, rk = rref(A)
    assert rk == 2
    kernel = nullspace(A)
    assert len(kernel) == 1
    assert all(x == 0 for x in matvec(A, kernel[0]))


def test_rank_nullity_extension_field():
    F9 = field_create(3, 2)
    rnd = random.Random(2)
    elems = list(F9.elements())
    for _ in range(10):
        A = ExactMatrix.make(F9, [[rnd.choice(elems) for _ in range(5)] for _ in range(4)])
        kernel = nullspace(A)
        assert rank(A) + len(kernel) == 5
        for v in kernel:
            assert all(x.is_zero() for x in matvec(A, v))


def reference_rref(domain, rows):
    """Gauss-Jordan in Fraction arithmetic over QQ and in FieldElement
    arithmetic over a finite field: the reference for the integer rows and
    for the digit planes."""
    scalar = Fraction if domain == QQ else domain.element
    data = [[scalar(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(data[0]) if data else 0):
        pr = next((i for i in range(r, len(data)) if data[i][c]), None)
        if pr is None:
            continue
        data[r], data[pr] = data[pr], data[r]
        scale = 1 / data[r][c]
        data[r] = [v * scale for v in data[r]]
        for i in range(len(data)):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [a - f * b for a, b in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == len(data):
            break
    return data, pivots


def reference_kernel(domain, rows, cols):
    scalar = Fraction if domain == QQ else domain.element
    R, pivots = reference_rref(domain, rows)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [scalar(0)] * cols
        v[fc] = scalar(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def reference_primitive(v):
    """The integer multiple of a rational vector with content 1 and its first
    nonzero entry positive."""
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    lead = next((x for x in ints if x != 0), 1)
    return [x // g * (-1 if lead < 0 else 1) for x in ints] if g else ints


def as_elements(ctx, rows):
    return [[ctx.element(v) for v in row] for row in rows]


LA_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (2147483629, 2), (2147483659, 1), (2**61 - 1, 1)]


@st.composite
def field_systems(draw):
    """A matrix over GF(p^k) or over GF(p) with p > 2^31, often of low rank,
    and a right-hand side."""
    p, k = draw(st.sampled_from(LA_FIELDS))
    ctx = field_create(p, k)
    digit = st.one_of(st.integers(0, 1), st.integers(0, p - 1), st.just(p - 1))
    element = st.tuples(*[digit] * k).map(ctx.element)
    cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(element, min_size=cols, max_size=cols), min_size=1, max_size=5))
    if len(rows) > 1 and draw(st.booleans()):  # a dependent row
        c = draw(element)
        rows.insert(draw(st.integers(0, len(rows))), [a + c * b for a, b in zip(rows[0], rows[-1])])
    return ctx, rows, draw(st.lists(element, min_size=len(rows), max_size=len(rows)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(field_systems())
def test_field_linear_algebra_matches_element_reference(case):
    ctx, rows, b = case
    A = ExactMatrix.make(ctx, rows)
    cols = A.cols
    R, pivots, rk = rref(A)
    ref_R, ref_pivots = reference_rref(ctx, rows)
    assert (as_elements(ctx, R.data), pivots, rk) == (ref_R, ref_pivots, len(ref_pivots))
    assert rank(A) == rk
    kernel = nullspace(A)
    assert as_elements(ctx, kernel) == reference_kernel(ctx, rows, cols)
    x, sol_kernel = solve(A, b)
    aug_R, aug_pivots = reference_rref(ctx, [row + [v] for row, v in zip(rows, b)])
    if cols in aug_pivots:
        assert x is None and sol_kernel == []
    else:
        want = [ctx.zero()] * cols
        for r, pc in enumerate(aug_pivots):
            want[pc] = aug_R[r][cols]
        assert as_elements(ctx, [x])[0] == want and sol_kernel == kernel
        assert as_elements(ctx, [matvec(A, x)])[0] == as_elements(ctx, [b])[0]
    for v in kernel:
        assert all(ctx.element(y).is_zero() for y in matvec(A, v))


@pytest.mark.parametrize("domain", [QQ, field_create(7), field_create(3, 2)])
def test_sparse_and_mixed_entries_match_dense_elements(domain):
    rnd = random.Random(17)
    for _ in range(10):
        rows, cols = rnd.randint(1, 5), rnd.randint(1, 6)
        entries = {(rnd.randrange(rows), rnd.randrange(cols)): rnd.randint(-20, 20)
                   for _ in range(rnd.randint(0, rows * cols))}
        if domain != QQ:  # FieldElements beside plain ints
            entries = {ij: domain.element((v,) + (v + 1,) * (domain.k - 1)) if v % 2 else v
                       for ij, v in entries.items()}
        dense = [[entries.get((i, j), 0) for j in range(cols)] for i in range(rows)]
        A = ExactMatrix.sparse(domain, rows, cols, entries)
        assert A == ExactMatrix.make(domain, dense)
        if domain != QQ:
            assert as_elements(domain, A.data) == as_elements(domain, dense)
            assert rank(A) == len(reference_rref(domain, dense)[1])


def count_rref(monkeypatch) -> list:
    """The domains of the exactla.rref calls made from now on."""
    import singhunt.exactla as exactla

    calls = []
    original = exactla.rref
    monkeypatch.setattr(exactla, "rref", lambda A: calls.append(A.domain) or original(A))
    return calls


def test_every_field_elimination_goes_through_rref(monkeypatch):
    calls = count_rref(monkeypatch)
    ctx = field_create(3, 2)
    A = ExactMatrix.make(ctx, [[1, 2, 0], [2, 1, 0]])
    rank(A)
    nullspace(A)
    solve(A, [1, 2])
    # rank 1, nullspace 1, solve 1: the kernel is read from the RREF of [A | b]
    assert calls == [ctx] * 3


@pytest.mark.parametrize("domain", [QQ, field_create(7), field_create(3, 2)])
def test_solve_eliminates_once(monkeypatch, domain):
    A = ExactMatrix.make(domain, [[1, 2, 0], [2, 4, 0]])
    kernel = nullspace(A)
    calls = count_rref(monkeypatch)
    assert solve(A, [1, 2]) == ([1, 0, 0], kernel)
    assert solve(A, [1, 3]) == (None, [])
    assert calls == [A.domain] * 2


@pytest.mark.parametrize("domain", [QQ, field_create(7), field_create(3, 2)])
def test_solve_needs_one_right_hand_side_entry_per_row(domain):
    A = ExactMatrix.make(domain, [[1, 2, 0], [2, 1, 0]])
    for b in ([1], [1, 2, 3], []):
        with pytest.raises(DimensionMismatch):
            solve(A, b)


@pytest.mark.parametrize("domain", [QQ, field_create(7), field_create(3, 2)])
def test_empty_system_leaves_every_unknown_free(domain):
    x, kernel = solve(ExactMatrix.make(domain, [], 3), [])
    assert x == [0, 0, 0]
    assert kernel == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_integer_matrices_are_stored_over_qq():
    A = ExactMatrix.make(ZZ, [[2, 4], [1, 2]])
    assert A.domain == "QQ" and A == ExactMatrix.make(QQ, [[2, 4], [1, 2]])
    assert rank(A) == 1 and nullspace(A) == [[2, -1]]


def test_determinant_is_rational_only():
    with pytest.raises(ContextMismatch):
        determinant(ExactMatrix.identity(2, field_create(7)))


def test_rref_preserves_row_space():
    rnd = random.Random(31)
    for _ in range(20):
        rows = [[Fraction(rnd.randint(-5, 5)) for _ in range(5)] for _ in range(4)]
        A = ExactMatrix.make(QQ, rows)
        R, _, rk = rref(ExactMatrix.make(QQ, rows))
        stacked = ExactMatrix.make(QQ, rows + [r for r in R.data if any(r)])
        assert rank(stacked) == rk == rank(A)


def leading_minors(A: ExactMatrix) -> list:
    """Reference: the leading principal minors of A, one sympy determinant each."""
    return [sympy.Matrix([[sympy.Rational(str(v)) for v in row[:k]] for row in A.data[:k]]).det()
            for k in range(1, A.rows + 1)]


def sylvester_negative_definite(A: ExactMatrix) -> bool:
    """Reference: the k-th leading minor of A has the sign of (-1)^k."""
    return all((-1) ** k * m > 0 for k, m in enumerate(leading_minors(A), 1))


def test_n_block_negative_definite():
    nblock = ExactMatrix.make(QQ, [row[:8] for row in GRAM.data[:8]])
    assert is_negative_definite(nblock)
    minors = leading_minors(ExactMatrix.make(QQ, [[-v for v in row] for row in nblock.data]))
    assert all(m > 0 for m in minors)
    assert not is_negative_definite(GRAM)  # K^2 = 1 breaks definiteness


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.fractions(-6, 6, max_denominator=3), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
def test_negative_definite_matches_sylvester(upper):
    n = next(n for n in range(1, 6) if n * (n + 1) // 2 == len(upper))
    cells = iter(upper)
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(cells)
    for i in range(n):  # mostly strongly negative diagonals, so both verdicts occur
        m[i][i] -= 4 * (i % 3)
    A = ExactMatrix.make(QQ, m)
    assert is_negative_definite(A) == sylvester_negative_definite(A)


def test_signature_needs_a_square_matrix():
    with pytest.raises(NotSquare):
        is_negative_definite(ExactMatrix.make(QQ, [[-1, 2, 3], [2, -1, 0]]))
    with pytest.raises(ContextMismatch):
        is_negative_definite(ExactMatrix.make(field_create(7), [[-1]]))


def test_signature_of_gram():
    """Each form and its negative, the semidefinite -[[1, 2], [2, 4]] among
    them, is negative definite exactly when its signature is (0, n, 0)."""
    assert signature(GRAM.data) == (1, 8, 0)
    for m in (GRAM.data, ExactMatrix.identity(3, QQ).data, [[0, 1], [1, 0]], [[1, 2], [2, 4]]):
        for rows in (m, [[-v for v in row] for row in m]):
            want = signature(rows) == (0, len(rows), 0)
            assert is_negative_definite(ExactMatrix.make(QQ, rows)) == want, rows


def test_parse_matrix_bracket_blocks():
    M = parse_matrix("[1 2]\n[3 4/1]")
    assert M.data == [[1, 2], [3, 4]]
    assert M.data[1][1] == Fraction(4)


def test_matrix_text_round_trip():
    from singhunt.exactla import format_matrix

    text = format_matrix(GRAM)
    again = parse_matrix(text)
    assert again.data == GRAM.data


BIG = 2**64


@st.composite
def rational_systems(draw):
    """A rational matrix and a right-hand side: mixed denominators, entries
    past 2^64, often a dependent row, a zero row or a zero column, and
    possibly no rows (the column count is kept) or no columns."""
    cols = draw(st.integers(0, 6))
    entry = st.one_of(
        st.integers(-3, 3),
        st.fractions(-5, 5, max_denominator=12),
        st.integers(BIG, 4 * BIG) | st.integers(-4 * BIG, -BIG),
        st.builds(Fraction, st.integers(-(BIG**2), BIG**2), st.integers(1, BIG)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=5))
    if rows and draw(st.booleans()):  # a combination of two rows
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(st.fractions(-3, 3, max_denominator=4)), draw(st.integers(-2, 2))
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(u, v)])
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [0] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in rows:
            row[j] = 0
    return rows, cols, draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))


@st.composite
def rational_squares(draw):
    """A square rational matrix: random, rank-deficient (one row a
    combination of two others), or a permutation with nonzero entries."""
    n = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=7),
                      st.integers(-4 * BIG, 4 * BIG))
    kind = draw(st.sampled_from(["random", "deficient", "permutation"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        scale = draw(st.lists(entry.filter(bool), min_size=n, max_size=n))
        return [[scale[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "deficient" and n:
        k = draw(st.integers(0, n - 1))
        others = rows[:k] + rows[k + 1:]
        u, v = (draw(st.sampled_from(others)) for _ in range(2)) if others else ([0] * n,) * 2
        a, b = draw(st.fractions(-3, 3, max_denominator=4)), draw(st.integers(-2, 2))
        rows[k] = [a * x + b * y for x, y in zip(u, v)]
    return rows


def sympy_rref(rows, cols):
    R, pivots = sympy.Matrix(len(rows), cols, [sympy.Rational(v.numerator, v.denominator)
                                               for row in rows for v in map(Fraction, row)]).rref()
    data = [[Fraction(int(x.p), int(x.q)) for x in R.row(i)] for i in range(R.rows)]
    return data, list(pivots)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rational_systems())
def test_rational_linear_algebra_matches_fraction_reference(case):
    rows, cols, b = case
    A = ExactMatrix.make(QQ, rows, cols)
    R, pivots, rk = rref(A)
    ref_R, ref_pivots = reference_rref(QQ, rows)
    assert (R.data, pivots, rk) == (ref_R, ref_pivots, len(ref_pivots))
    assert (R.data, pivots) == sympy_rref(rows, cols)
    # integer rows over one positive denominator, which every pivot entry equals
    assert R.den > 0 and all(R.num[r][pc] == R.den for r, pc in enumerate(pivots))
    assert rank(A) == rk
    kernel = nullspace(A)
    assert kernel == [reference_primitive(v) for v in reference_kernel(QQ, rows, cols)]
    x, sol_kernel = solve(A, b)
    aug_R, aug_pivots = reference_rref(QQ, [row + [v] for row, v in zip(rows, b)])
    if cols in aug_pivots:
        assert x is None and sol_kernel == []
    else:
        want = [Fraction(0)] * cols
        for r, pc in enumerate(aug_pivots):
            want[pc] = aug_R[r][cols]
        assert x == want and sol_kernel == kernel
        assert matvec(A, x) == [Fraction(v) for v in b]
    for v in kernel:
        assert matvec(A, v) == [0] * len(rows)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rational_squares())
def test_rational_determinant_matches_fraction_elimination(rows):
    A = ExactMatrix.make(QQ, rows, len(rows))
    det = determinant(A)
    assert det == fraction_gauss_det(rows)
    assert det == sympy.Matrix(len(rows), len(rows), [sympy.Rational(str(Fraction(v)))
                                                      for row in rows for v in row]).det()
    assert (det != 0) == (rank(A) == len(rows))


@pytest.mark.parametrize("rows, pivots, den", [
    ([[-1, 2]], [0], 1),  # a negative last pivot: den is made positive
    ([[0, 0], [-3, 1]], [0], 3),
    ([[-2, 1], [1, -2]], [0, 1], 3),
    ([[0, 0, 0]], [], 1),
])
def test_rational_rref_keeps_a_positive_denominator(rows, pivots, den):
    R, got, _ = rref(ExactMatrix.make(QQ, rows))
    assert (got, R.den) == (pivots, den)
    assert R.data == reference_rref(QQ, rows)[0]


@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_determinant_sign_of_a_permutation(perm):
    rows = [[int(j == perm[i]) for j in range(4)] for i in range(4)]
    inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
    assert determinant(ExactMatrix.make(QQ, rows)) == (-1) ** inversions


def test_rational_matrix_stores_integer_rows():
    A = ExactMatrix.make(QQ, [[Fraction(1, 2), 3], [Fraction(-2, 3), 0]])
    assert (A.num, A.den) == ([[3, 18], [-4, 0]], 6)
    assert A.data == [[Fraction(1, 2), 3], [Fraction(-2, 3), 0]]
    S = ExactMatrix.sparse(QQ, 2, 3, {(1, 2): Fraction(5, 4), (0, 0): 7})
    assert (S.num, S.den) == ([[28, 0, 0], [0, 0, 5]], 4)
    big = ExactMatrix.make(QQ, [[2**70, -1]])
    assert big.num == [[2**70, -1]] and type(big.num[0][0]) is int and big.den == 1


@st.composite
def symmetric_rationals(draw):
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.just(0), st.fractions(-3, 3, max_denominator=5))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entry)
    if n > 1 and draw(st.booleans()):  # a zero diagonal
        for i in range(n):
            m[i][i] = 0
    return m


@settings(max_examples=150, derandomize=True, deadline=None)
@given(symmetric_rationals())
def test_signature_matches_the_characteristic_polynomial(m):
    """is_negative_definite on m - t*I is the signature's verdict, for shifts
    t that carry m across the boundary of definiteness."""
    n = len(m)
    for t in (0, 2, 5, 16):  # past 16 > 5 * 3, Gershgorin's bound, every form is definite
        rows = [[v - t * (i == j) for j, v in enumerate(row)] for i, row in enumerate(m)]
        want = signature(rows) == (0, n, 0)
        assert is_negative_definite(ExactMatrix.make(QQ, rows, n)) == want


# ---------------------------------------------------------------------------
# the one finite-field elimination against two references that share no code
# with its digit planes or its regular representation: a Gauss-Jordan on
# FieldElements (any k), and sympy's DomainMatrix over GF(p) (k = 1)
# ---------------------------------------------------------------------------

FLOAT_BOUND_PRIME = 94_906_249  # the largest prime p with (p-1)^2 < 2^53
PAST_FLOAT_BOUND_PRIME = 94_906_297  # the next prime
INT64_BOUND_PRIME = 3_037_000_493  # the largest prime p with (p-1)^2 < 2^63
PAST_INT64_BOUND_PRIME = 3_037_000_507  # the next prime
MERSENNE_61 = 2**61 - 1
FIELDS = [(p, k) for p in (2, 3, 101) for k in (1, 2, 3, 4)] + [
    (p, k) for p in (FLOAT_BOUND_PRIME, PAST_FLOAT_BOUND_PRIME, INT64_BOUND_PRIME,
                     PAST_INT64_BOUND_PRIME, MERSENNE_61) for k in (1, 2, 3)]


def test_float_bound_primes():
    assert (FLOAT_BOUND_PRIME - 1) ** 2 < 2**53 <= (PAST_FLOAT_BOUND_PRIME - 1) ** 2
    assert all(not sympy.isprime(n) for n in range(FLOAT_BOUND_PRIME + 1, PAST_FLOAT_BOUND_PRIME))
    assert sympy.isprime(FLOAT_BOUND_PRIME) and sympy.isprime(PAST_FLOAT_BOUND_PRIME)


def test_int64_bound_primes():
    assert (INT64_BOUND_PRIME - 1) ** 2 < 2**63 <= (PAST_INT64_BOUND_PRIME - 1) ** 2
    assert all(not sympy.isprime(n) for n in range(INT64_BOUND_PRIME + 1, PAST_INT64_BOUND_PRIME))
    assert sympy.isprime(INT64_BOUND_PRIME) and sympy.isprime(PAST_INT64_BOUND_PRIME)


def assert_rref_matches_reference(ctx, planes: np.ndarray) -> list[int]:
    """rref of the digit planes (k x rows x cols) against ``field_rref``;
    returns the pivots."""
    R, pivots, rk = rref(ExactMatrix.from_planes(ctx, planes))
    digits = np.moveaxis(planes, 0, -1).tolist()  # rows x cols x k
    want, want_pivots = field_rref(ctx, [[tuple(d) for d in row] for row in digits])
    assert pivots == want_pivots and rk == len(pivots)
    assert R.planes.dtype == _dtype(ctx.p) and R.planes.shape == planes.shape
    assert np.moveaxis(R.planes, 0, -1).tolist() == [[list(v.coeffs) for v in row] for row in want]
    return pivots


def assert_rref_matches_sympy(A: np.ndarray, p: int) -> None:
    """rref over GF(p) of the integer matrix A against sympy's DomainMatrix."""
    K = sympy.GF(p)
    want, want_pivots = DomainMatrix([[K(int(v)) for v in row] for row in A.tolist()], A.shape, K).rref()
    R, pivots, _ = rref(ExactMatrix.from_planes(field_create(p), A.astype(_dtype(p))[None]))
    assert pivots == list(want_pivots)
    assert R.planes[0].tolist() == [[int(v) % p for v in row] for row in want.to_list()]


@st.composite
def plane_matrices(draw, prime_fields_only=False):
    """(ctx, planes): the digit planes (k x rows x cols) of a random, zero,
    full-rank or rank-deficient matrix over GF(p^k), with unreduced digits
    (negative and >= p included)."""
    p, k = draw(st.sampled_from([f for f in FIELDS if f[1] == 1 or not prime_fields_only]))
    ctx = field_create(p, k)
    return ctx, draw(planes_of_shape(ctx, draw(st.integers(0, 6)), draw(st.integers(0, 6))))


@st.composite
def planes_of_shape(draw, ctx, rows, cols):
    """The digit planes (k x rows x cols) of one matrix of plane_matrices."""
    p, k = ctx.p, ctx.k
    digit = st.one_of(st.integers(-3 * p, 3 * p), st.sampled_from([0, 1, p - 1, p, -p, -(p - 1)]))
    size = k * rows * cols
    planes = np.array(draw(st.lists(digit, min_size=size, max_size=size)),
                      dtype=_dtype(p)).reshape(k, rows, cols)
    kind = draw(st.sampled_from(["random", "zero", "full rank", "deficient"]))
    if kind == "zero":
        planes[:] = 0
    elif kind == "full rank":  # unit upper triangular in the leading square, rows permuted
        for i in range(min(rows, cols)):
            planes[:, i, : i + 1] = 0
            planes[0, i, i] = 1 + p * draw(st.integers(-2, 2))
        planes = planes[:, draw(st.permutations(range(rows)))]
    elif kind == "deficient" and rows > 1:  # row j = a * row 0 + row i, a in GF(p^k)
        j, i = draw(st.integers(1, rows - 1)), draw(st.integers(0, rows - 1))
        a = ctx.element(tuple(draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))))
        row0 = [ctx.element(tuple(d)) for d in planes[:, 0].T.tolist()]
        row = [(a * x).coeffs for x in row0]
        planes[:, j] = np.array(row, dtype=planes.dtype).reshape(cols, k).T + planes[:, i]
    return planes


@settings(max_examples=300)
@given(plane_matrices())
def test_rref_matches_the_reference_elimination(case):
    ctx, planes = case
    pivots = assert_rref_matches_reference(ctx, planes)
    assert len(pivots) <= min(planes.shape[1:])


@settings(max_examples=150)
@given(plane_matrices(prime_fields_only=True))
def test_rref_matches_sympy_over_prime_fields(case):
    ctx, planes = case
    assert_rref_matches_sympy(planes[0], ctx.p)


@pytest.mark.parametrize("p", [2, 3, FLOAT_BOUND_PRIME])
@pytest.mark.parametrize("shape,kind", [
    ((0, 0), "random"), ((0, 4), "random"), ((4, 0), "random"), ((5, 6), "zero"),
    ((6, 6), "full rank"), ((3, 9), "random"), ((9, 3), "random"), ((42, 10), "random"),
])
def test_float_rref_shapes(p, shape, kind):
    rnd = np.random.default_rng(sum(shape) + p)
    if kind == "zero":
        A = np.zeros(shape, dtype=np.int64)
    elif kind == "full rank":  # unit upper triangular times a permutation
        A = np.triu(rnd.integers(-p, 2 * p, size=shape), 1) + np.eye(shape[0], dtype=np.int64)
        A = A[rnd.permutation(shape[0])]
    else:
        A = rnd.integers(-2 * p, 2 * p, size=shape)
    pivots = assert_rref_matches_reference(field_create(p), A[None])
    assert_rref_matches_sympy(A, p)
    if kind == "full rank":
        assert pivots == list(range(shape[1]))


def test_float_rref_is_exact_at_the_largest_products():
    """Every entry p - 1 or p - 2 at the float64 bound prime: the updates
    reach -(p-1)^2, where an inexact remainder would show."""
    p = FLOAT_BOUND_PRIME
    A = np.array([[p - 1, p - 1, p - 2, 1], [p - 2, p - 1, p - 1, p - 1], [1, p - 2, p - 1, p - 2]])
    for M in (A, -A):
        assert_rref_matches_reference(field_create(p), M[None])
        assert_rref_matches_sympy(M, p)


def test_int64_rref_is_exact_at_the_largest_products():
    """The same at the int64 bound prime, over GF(p) and GF(p^2): the updates
    reach -(p-1)^2 > -2^63."""
    p = INT64_BOUND_PRIME
    A = np.array([[p - 1, p - 1, p - 2, 1], [p - 2, p - 1, p - 1, p - 1], [1, p - 2, p - 1, p - 2]])
    for M in (A, -A):
        assert_rref_matches_reference(field_create(p), M[None])
        assert_rref_matches_reference(field_create(p, 2), np.stack([M, M[::-1]]))


@pytest.mark.parametrize("p,k,tier", [
    (2, 1, "float64"), (3, 1, "float64"), (FLOAT_BOUND_PRIME, 1, "float64"),
    (PAST_FLOAT_BOUND_PRIME, 1, "int64"), (2147483659, 1, "int64"), (INT64_BOUND_PRIME, 1, "int64"),
    (PAST_INT64_BOUND_PRIME, 1, "object"), (MERSENNE_61, 1, "object"),
    (3, 2, "float64"), (2, 4, "float64"), (FLOAT_BOUND_PRIME, 2, "float64"),
    (PAST_FLOAT_BOUND_PRIME, 2, "int64"), (MERSENNE_61, 3, "object"),
])
def test_rref_takes_the_float_path_below_the_bound(monkeypatch, p, k, tier):
    """Every finite field is eliminated by the one kernel, its residues held
    in float64 while (p-1)^2 < 2^53, in int64 while (p-1)^2 < 2^63 and in
    Python ints past that; GF(p^k) takes the tier of its prime."""
    float_calls = []
    original = exactla.reduce_float
    monkeypatch.setattr(exactla, "reduce_float", lambda x, q: float_calls.append(x.dtype) or original(x, q))
    ctx = field_create(p, k)
    A = np.array([[1, 2, 3, -1], [p + 1, 3, 7, p - 2], [0, 0, -1, 5]])
    planes = np.stack([A] + [np.roll(A, i, axis=1) for i in range(1, k)]).astype(_dtype(p))
    assert assert_rref_matches_reference(ctx, planes) == [0, 1, 2]
    R, _, _ = rref(ExactMatrix.from_planes(ctx, planes))
    # the float64 tier returns int64 planes; the others keep their residues
    assert {str(d) for d in float_calls} == ({"float64"} if tier == "float64" else set())
    assert str(R.planes.dtype) == ("int64" if tier == "float64" else tier)


# ---------------------------------------------------------------------------
# the stack rank against the per-matrix rank (itself checked against the
# references above) and, over GF(p), sympy's DomainMatrix rank
# ---------------------------------------------------------------------------

STACK_PRIMES = [2, 3, 101, FLOAT_BOUND_PRIME, PAST_FLOAT_BOUND_PRIME, INT64_BOUND_PRIME,
                PAST_INT64_BOUND_PRIME]


def assert_stack_ranks_match(ctx, planes: np.ndarray) -> list[int]:
    """rank_stack of the planes (k x systems x rows x cols) against rank of
    each matrix and, over GF(p), sympy; returns the ranks."""
    before = planes.copy()
    ranks = exactla.rank_stack(planes, ctx)
    assert (planes == before).all()
    want = [rank(ExactMatrix.from_planes(ctx, planes[:, s])) for s in range(planes.shape[1])]
    assert ranks.tolist() == want
    if ctx.k == 1:
        K = sympy.GF(ctx.p)
        assert want == [DomainMatrix([[K(int(v)) for v in row] for row in A.tolist()], A.shape, K).rank()
                        for A in planes[0]]
    return want


@st.composite
def plane_stacks(draw):
    """(ctx, planes): a stack (k x systems x rows x cols) of 0 to 4 matrices
    of plane_matrices, all of one shape."""
    ctx = field_create(draw(st.sampled_from(STACK_PRIMES)), draw(st.integers(1, 3)))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    systems = [draw(planes_of_shape(ctx, rows, cols)) for _ in range(draw(st.integers(0, 4)))]
    if not systems:
        return ctx, np.zeros((ctx.k, 0, rows, cols), dtype=_dtype(ctx.p))
    return ctx, np.stack(systems, axis=1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(plane_stacks())
def test_rank_stack_matches_the_rank_of_each_matrix(case):
    assert_stack_ranks_match(*case)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", STACK_PRIMES)
def test_rank_stack_shapes_and_tiers(monkeypatch, p, k):
    """Empty, zero, full-rank, rank-deficient and wide stacks, and a stack of
    entries p - 1 and p - 2, whose updates reach (p-1)^2 at the bound primes.
    The residues take the tiers of the one Gauss-Jordan."""
    float_calls = []
    original = exactla.reduce_float
    monkeypatch.setattr(exactla, "reduce_float", lambda x, q: float_calls.append(x.dtype) or original(x, q))
    ctx = field_create(p, k)
    rnd = np.random.default_rng(p + k)

    def stack(systems, rows, cols):
        return rnd.integers(0, p, size=(k, systems, rows, cols), dtype=np.int64).astype(_dtype(p))

    assert exactla.rank_stack(stack(0, 3, 4), ctx).tolist() == []
    assert assert_stack_ranks_match(ctx, stack(3, 0, 4)) == [0, 0, 0]
    assert assert_stack_ranks_match(ctx, stack(2, 4, 0)) == [0, 0]
    assert assert_stack_ranks_match(ctx, 0 * stack(3, 4, 5)) == [0, 0, 0]
    full = stack(4, 5, 5)
    for i in range(5):  # unit upper triangular, rows permuted
        full[:, :, i, :i + 1] = 0
        full[0, :, i, i] = 1
    assert assert_stack_ranks_match(ctx, full[:, :, rnd.permutation(5)]) == [5] * 4
    deficient = stack(4, 6, 5)
    deficient[:, :, 3] = (deficient[:, :, 0] + deficient[:, :, 5]) % p
    deficient[:, 1, 2] = 0
    deficient[:, 2, :, 1:] = deficient[:, 2, :, :1] * np.arange(1, 5, dtype=np.int64) % p
    assert all(r <= 5 for r in assert_stack_ranks_match(ctx, deficient))
    assert assert_stack_ranks_match(ctx, deficient[:, 2:3])[0] <= 1
    wide = stack(3, 2, 6)  # rows < cols, an identity in the leading square
    wide[:, :, :, :2] = 0
    wide[0, :, [0, 1], [0, 1]] = 1
    assert assert_stack_ranks_match(ctx, wide) == [2, 2, 2]
    extreme = np.where(rnd.integers(0, 3, size=(k, 3, 4, 4)) > 0, p - 1, p - 2).astype(_dtype(p))
    assert_stack_ranks_match(ctx, extreme)
    assert {str(d) for d in float_calls} == ({"float64"} if (p - 1) ** 2 < 2**53 else set())


@st.composite
def layout_stacks(draw):
    """(ctx, planes): 0 to 40 matrices of at most 5 x 5, so that stacks fall
    on both sides of rank_stack's layout rule (more systems than rows)."""
    ctx = field_create(draw(st.sampled_from(STACK_PRIMES)), draw(st.integers(1, 3)))
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    systems = [draw(planes_of_shape(ctx, rows, cols)) for _ in range(draw(st.integers(0, 40)))]
    if not systems:
        return ctx, np.zeros((ctx.k, 0, rows, cols), dtype=_dtype(ctx.p))
    return ctx, np.stack(systems, axis=1)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(layout_stacks())
def test_rank_stack_layout_follows_the_shape(case):
    """The ranks are right in either layout, and the stack is held systems
    innermost exactly when it has more systems than the rows it eliminates
    (the larger side, times k over GF(p^k)).  A stack with no system or no
    column to eliminate is all rank 0 and builds no stack."""
    ctx, planes = case
    k, systems, rows, cols = planes.shape
    made, original = [], exactla._residue_stack

    def recorded(*args):
        made.append(original(*args))
        return made[-1]

    with mock.patch.object(exactla, "_residue_stack", recorded):
        assert_stack_ranks_match(ctx, planes)
    rows, cols = k * max(rows, cols), k * min(rows, cols)
    if not (systems and cols):
        assert made == []
        return
    (buf, R), = made
    assert R.shape == (systems, rows, cols)
    assert buf.shape == ((rows + 1, cols, systems) if systems > rows else (systems, rows + 1, cols))
