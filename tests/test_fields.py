import itertools
import random
from math import isqrt

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from singhunt import fields
from singhunt.errors import ContextMismatch, DivisionByZero, InvalidDegree, NonPrime, PolySyntaxError
from singhunt.fields import (
    FieldElement,
    _dot_mod,
    _dtype,
    field_create,
    format_element,
    inv,
    is_prime,
    monomial_values,
    parse_element,
    plane_matmul,
    plane_mul,
    plane_ones,
    reduce_int,
    to_elements,
    to_planes,
)


def brute_first_irreducible_quadratic(p):
    """Oracle: scan monic quadratics ordered by (t-coefficient, constant)
    and return the first with no root."""
    for c1 in range(p):
        for c0 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError


def test_field_create_examples():
    assert field_create(7, 1).modulus is None
    assert field_create(2, 3).q == 8
    assert field_create(5, 2).modulus == (2, 0, 1)  # t^2 + 2


def test_modulus_matches_bruteforce_oracle():
    for p in (3, 5, 7, 11, 13):
        assert field_create(p, 2).modulus == brute_first_irreducible_quadratic(p)


def brute_first_irreducible(p, k):
    """Oracle for 2 <= k <= 4: the monic candidates in the search order
    (counting up from the top coefficient), the first with no root in GF(p)
    and, for k = 4, no monic quadratic factor, found by trying every x and
    every t^2 + a*t + b."""
    x = np.arange(p)
    a, b = np.divmod(np.arange(p * p), p)
    for digits in itertools.product(range(p), repeat=k):
        f = list(reversed(digits)) + [1]
        value = np.zeros(p, dtype=np.int64)
        for c in reversed(f):
            value = (value * x + c) % p
        if not value.all():
            continue
        if k == 4:
            r = [np.full(p * p, c) for c in f]
            for deg in (4, 3, 2):  # divide by t^2 + a*t + b
                r[deg - 1] = (r[deg - 1] - r[deg] * a) % p
                r[deg - 2] = (r[deg - 2] - r[deg] * b) % p
            if ((r[0] == 0) & (r[1] == 0)).any():
                continue
        return tuple(f)
    raise AssertionError


def test_modulus_search_skips_no_irreducible_candidate():
    """Skipping the binomials t^k + c where none is irreducible leaves every
    modulus as the search through all candidates finds it."""
    for p in range(2, 200):
        if fields.is_prime(p):
            for k in (2, 3, 4):
                assert fields._first_irreducible(p, k) == brute_first_irreducible(p, k), (p, k)


@pytest.mark.parametrize("p, k", [(3_037_000_493, 3), (3_037_000_507, 4)])
def test_modulus_search_is_fast_where_no_binomial_is_irreducible(monkeypatch, p, k):
    """p = 2 mod 3 makes every element a cube, so no t^3 + c is irreducible;
    p = 3 mod 4 leaves no irreducible t^4 + c: the search passes the p
    binomials without testing them."""
    assert (p - 1) % 3 if k == 3 else p % 4 == 3
    tested = []
    original = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible", lambda f, q: tested.append(f) or original(f, q))
    modulus = fields._first_irreducible(p, k)
    assert len(tested) < 100 and modulus[-1] == 1 and len(modulus) == k + 1
    t = sympy.Symbol("t")
    assert sympy.Poly(list(reversed(modulus)), t, modulus=p).is_irreducible
    assert field_create(p, k).modulus == modulus


@pytest.mark.parametrize("p, k, modulus", [
    (2, 3, (1, 1, 0, 1)), (2, 5, (1, 0, 1, 0, 0, 1)), (3, 3, (1, 2, 0, 1)),
    (3, 4, (2, 1, 0, 0, 1)), (5, 3, (1, 1, 0, 1)), (11, 3, (4, 1, 0, 1)),
])
def test_modulus_of_higher_degree_is_pinned(p, k, modulus):
    """The candidates are tried counting up from the top coefficient, so the
    modulus (and every basis tuple) of a field stays fixed across versions."""
    assert field_create(p, k).modulus == modulus


def test_elements_enumerate_basis_tuples_in_lexicographic_order():
    ctx = field_create(3, 2)
    assert [e.coeffs for e in ctx.elements()] == list(itertools.product(range(3), repeat=2))
    # lazily: a prime near 2^61 yields its first element without listing the others
    assert next(field_create(2**61 - 1).elements()).coeffs == (0,)


def test_field_create_deterministic():
    a = field_create(5, 2)
    b = field_create(5, 2)
    assert a is b and a.modulus == b.modulus


def test_field_create_errors():
    with pytest.raises(NonPrime):
        field_create(6, 1)
    with pytest.raises(NonPrime):
        field_create(1, 1)
    with pytest.raises(InvalidDegree):
        field_create(5, 0)


def test_is_prime_on_a_range():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_prime(n) == sieve[n], n


def test_inverse_examples():
    F7 = field_create(7)
    assert inv(F7.element(3)) == F7.element(5)
    assert inv(F7.one()) == F7.one()
    F25 = field_create(5, 2)
    t = F25.gen()
    # oracle: exhaustive search over all 25 elements
    expected = next(x for x in F25.elements() if (t * x) == F25.one())
    assert inv(t) == expected
    assert inv(t) == F25.element((0, 2))  # 2t
    with pytest.raises(DivisionByZero):
        inv(F7.zero())


def test_basis_tuples():
    F25 = field_create(5, 2)
    assert F25.one().coeffs == (1, 0)
    assert F25.element((3, 1)).coeffs == (3, 1)
    for a in F25.elements():
        assert F25.element(a.coeffs) == a
    with pytest.raises(ContextMismatch):
        F25.element((1, 2, 3))


def test_basis_tuple_linear():
    F25 = field_create(5, 2)
    elems = list(F25.elements())
    for a in elems[:10]:
        for b in elems[::5]:
            right = tuple((x + y) % 5 for x, y in zip(a.coeffs, b.coeffs))
            assert (a + b).coeffs == right


def prime_powers_upto(limit):
    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        k = 1
        while p**k <= limit:
            out.append((p, k))
            k += 1
    return out


def test_fermat_lagrange_exhaustive():
    for p, k in prime_powers_upto(1024):
        ctx = field_create(p, k)
        one = ctx.one()
        for a in ctx.elements():
            if a.is_zero():
                continue
            assert a ** (ctx.q - 1) == one, (p, k, a)
            assert a * inv(a) == one, (p, k, a)


def quotient_ring_mul(a, b, modulus, p):
    """Oracle: naive polynomial multiplication followed by long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    k = len(modulus) - 1
    while len(prod) > k:
        lead = prod[-1]
        shift = len(prod) - 1 - k
        for i, c in enumerate(modulus):
            prod[shift + i] = (prod[shift + i] - lead * c) % p
        prod.pop()
    prod += [0] * (k - len(prod))
    return tuple(prod)


@pytest.mark.parametrize("p", [2, 3])
def test_tables_match_quotient_ring(p):
    ctx = field_create(p, 2)
    for a in ctx.elements():
        for b in ctx.elements():
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a * b).coeffs == quotient_ring_mul(a.coeffs, b.coeffs, ctx.modulus, p)


def test_cross_context_arithmetic_is_an_error():
    F7 = field_create(7)
    F11 = field_create(11)
    with pytest.raises(ContextMismatch):
        F7.element(1) + F11.element(1)
    F49 = field_create(7, 2)
    with pytest.raises(ContextMismatch):
        F7.element(1) * F49.one()


def test_text_round_trip_bit_exact():
    for ctx in (field_create(7), field_create(5, 2), field_create(2, 3)):
        for a in ctx.elements():
            text = format_element(a)
            assert parse_element(ctx, text) == a
            assert format_element(parse_element(ctx, text)) == text


def test_parse_element_forms():
    F25 = field_create(5, 2)
    assert parse_element(F25, "3*t+1") == F25.element((1, 3))
    assert parse_element(F25, " t ^ 1 ") == F25.gen()
    assert parse_element(F25, "-t") == -F25.gen()
    assert parse_element(field_create(7), "-3") == field_create(7).element(4)


@pytest.mark.parametrize("text, coeffs", [
    ("3+-t", (3, 4)), ("3++t", (3, 1)), ("-t", (0, 4)), (" t ^ 1 ", (0, 1)),
    ("+", None), ("3*t+", None), ("3*t-", None), ("3-+t", None), ("--t", None),
])
def test_parse_element_signed_terms(text, coeffs):
    """A sign right after '+' belongs to the next term; a sign with no term
    after it is bad data."""
    F25 = field_create(5, 2)
    if coeffs is None:
        with pytest.raises(PolySyntaxError, match="bad field element"):
            parse_element(F25, text)
    else:
        assert parse_element(F25, text) == F25.element(coeffs)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)])
def test_plane_product_matches_field_multiplication(p, k):
    ctx = field_create(p, k)
    elems = list(ctx.elements())
    A = to_planes(ctx, [[a] * len(elems) for a in elems])
    B = to_planes(ctx, [elems] * len(elems))
    assert to_elements(ctx, plane_mul(ctx, A, B)) == [[a * b for b in elems] for a in elems]


@pytest.mark.parametrize("p,k,dtype", [
    (2147483629, 2, np.int64),  # the largest residues whose products fit int64
    (2**32 + 15, 2, object),     # products overflow int64: Python ints
    (2**32 + 15, 1, object),
    (3, 5, np.int64),
])
def test_plane_products_at_large_primes(p, k, dtype):
    ctx = field_create(p, k)
    rnd = random.Random(p + k)
    values = [ctx.element(tuple(p - 1 - rnd.randrange(3) for _ in range(k))) for _ in range(12)]
    values += [ctx.element(tuple(rnd.randrange(p) for _ in range(k))) for _ in range(12)]
    X = to_planes(ctx, [values[:12], values[12:]])
    assert X.dtype == dtype
    assert to_elements(ctx, plane_mul(ctx, X, X[:, :, ::-1])) == [
        [a * b for a, b in zip(row, reversed(row))] for row in (values[:12], values[12:])
    ]
    column = to_planes(ctx, [[v] for v in values[12:]])
    want = [sum((a * b for a, b in zip(row, values[12:])), ctx.zero()) for row in (values[:12], values[12:])]
    assert to_elements(ctx, plane_matmul(ctx, X, column)) == [[w] for w in want]


# ---------------------------------------------------------------------------
# the matrix kernel and the monomial table against Python-int references
# ---------------------------------------------------------------------------

def float_edge_primes(inner):
    """The largest prime p with inner * (p-1)^2 < 2^53, where _dot_mod still
    multiplies in float64, and the smallest prime past it."""
    top = isqrt((2**53 - 1) // inner) + 1  # the largest p with inner * (p-1)^2 < 2^53
    below = next(p for p in range(top, 1, -1) if is_prime(p))
    above = next(p for p in itertools.count(top + 1) if is_prime(p))
    assert inner * (below - 1) ** 2 < 2**53 <= inner * (above - 1) ** 2
    return below, above


DOT_INNER = (0, 1, 3, 10)
# p = 2; int64 primes on both sides of the int64 bound; object-dtype primes
DOT_PRIMES = (2, 101, 1_000_000_007, 2147483629, 2**32 + 15, 2**64 - 59)
DOT_CASES = [(inner, p) for inner in DOT_INNER for p in DOT_PRIMES] + [
    (inner, p) for inner in DOT_INNER[1:] for p in float_edge_primes(inner)
]


def dot_reference(X, Y, p):
    """(X @ Y) % p as nested lists, summed in Python ints."""
    m, inner = X.shape
    return [[sum(int(X[i, t]) * int(Y[t, j]) for t in range(inner)) % p
             for j in range(Y.shape[1])] for i in range(m)]


@pytest.mark.parametrize("inner, p", DOT_CASES)
@settings(max_examples=15)
@given(data=st.data())
def test_dot_mod_matches_the_python_int_reference(inner, p, data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    residue = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    X = np.array(data.draw(st.lists(st.lists(residue, min_size=inner, max_size=inner),
                                    min_size=rows, max_size=rows)), dtype=_dtype(p))
    Y = np.array(data.draw(st.lists(st.lists(residue, min_size=cols, max_size=cols),
                                    min_size=inner, max_size=inner)), dtype=_dtype(p))
    X, Y = X.reshape(rows, inner), Y.reshape(inner, cols)
    out = _dot_mod(X, Y, p)
    assert out.shape == (rows, cols) and out.dtype == _dtype(p)
    assert out.tolist() == dot_reference(X, Y, p)


@pytest.mark.parametrize("inner, p", DOT_CASES)
def test_dot_mod_is_exact_at_the_largest_sums(inner, p):
    # every product (p-1)^2, so a sum reaches inner * (p-1)^2, just below 2^53
    # for the largest prime of the float64 tier
    X = np.full((3, inner), p - 1, dtype=_dtype(p))
    Y = np.full((inner, 2), p - 1, dtype=_dtype(p))
    Y[:, 1] = p - 2
    assert _dot_mod(X, Y, p).tolist() == dot_reference(X, Y, p)


@pytest.mark.parametrize("inner, p", [(inner, p) for inner, p in DOT_CASES if inner])
def test_dot_mod_is_exact_at_large_multiples_of_p(inner, p):
    # a sum near the top of the tier that is a multiple of p, or one less:
    # where a quotient taken as out * (1/p) can round across an integer
    for target in (0, p - 1):
        rest = (target - (inner - 1) * (p - 1) ** 2) % p  # what the last product must be
        a, c = max(((a, rest * pow(a, -1, p) % p) for a in range(p - 1, max(0, p - 60), -1)),
                   key=lambda ac: ac[0] * ac[1])
        X = np.array([[p - 1] * (inner - 1) + [a]], dtype=_dtype(p))
        Y = np.array([[p - 1]] * (inner - 1) + [[c]], dtype=_dtype(p))
        assert _dot_mod(X, Y, p).tolist() == dot_reference(X, Y, p) == [[target]]


@pytest.mark.parametrize("p", (2, 101, 2147483629, 2**32 + 15, 2**64 - 59))
@settings(max_examples=25)
@given(data=st.data())
def test_reduce_int_is_python_mod(p, data):
    """reduce_int leaves x % p in x, for either sign, at the extremes of the
    dtype of its tier (int64, where (x // p) * p may wrap, or Python ints)."""
    big = 2**63 - 1 if _dtype(p) is np.int64 else 2**130
    value = st.one_of(st.integers(-big - 1, big), st.sampled_from([0, 1, -1, p - 1, p, -p, big, -big - 1]))
    values = data.draw(st.lists(value, max_size=12))
    x = np.array(values, dtype=_dtype(p))
    assert reduce_int(x, p) is x
    assert x.tolist() == [v % p for v in values]


def per_variable_monomial_values(ctx, X, exps):
    """The reference table: for each variable, its powers up to the largest
    exponent, gathered for every monomial and multiplied in; n products of
    m cells per point."""
    out = plane_ones(ctx, (X.shape[1], exps.shape[0]))
    for i in range(exps.shape[1]):
        top = int(exps[:, i].max(initial=0))
        if top == 0:
            continue
        powers = [plane_ones(ctx, (X.shape[1],))]
        for _ in range(top):
            powers.append(plane_mul(ctx, powers[-1], X[:, :, i]))
        out = plane_mul(ctx, out, np.stack(powers, axis=2)[:, :, exps[:, i]])
    return out


@settings(max_examples=150)
@given(st.sampled_from([(2, 1), (3, 1), (7, 1), (101, 1), (2, 2), (3, 2), (2, 3)]),
       st.integers(1, 3), st.integers(0, 5), st.data())
def test_graded_monomial_table_matches_the_per_variable_one(pk, n, npoints, data):
    ctx = field_create(*pk)
    digits = st.lists(st.integers(0, ctx.p - 1), min_size=ctx.k, max_size=ctx.k)
    points = data.draw(st.lists(st.lists(digits, min_size=n, max_size=n),
                                min_size=npoints, max_size=npoints))
    X = np.array(points, dtype=np.int64).reshape(npoints, n, ctx.k).transpose(2, 0, 1)
    # unsorted rows, exponents past q, degree >= 3; then an all-zero and a repeated row
    rows = data.draw(st.lists(st.tuples(*[st.integers(0, 12)] * n), max_size=8))
    exps = np.array(rows + [(0,) * n] + rows[:1], dtype=np.int64).reshape(-1, n)
    got = monomial_values(ctx, X, exps)
    assert got.shape == (ctx.k, npoints, len(exps))
    assert got.tolist() == per_variable_monomial_values(ctx, X, exps).tolist()


def test_monomial_table_costs_one_product_per_monomial(monkeypatch):
    ctx = field_create(101)
    X = to_planes(ctx, [[3, 5, 7], [0, 1, 100]])
    calls = []

    def counted(*args):
        calls.append(args)
        return plane_mul(*args)

    monkeypatch.setattr(fields, "plane_mul", counted)
    # the variables and the constant cost nothing; x0^2*x1 needs x0^2 (or x0*x1) first
    exps = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1], [2, 1, 0], [0, 2, 1]])
    table = monomial_values(ctx, X, exps)
    assert len(calls) == 4
    assert table[0].tolist() == [[3, 1, 5, 7, 45, 175 % 101], [0, 1, 1, 100, 0, 100]]


def test_huge_exponents_reduce_on_the_field():
    # x^e = x^((e-1) % (q-1) + 1) for e >= 1 on GF(q), zero included
    ctx = field_create(7)
    X = to_planes(ctx, [[x] for x in range(7)])
    e = 2**63 - 1
    table = monomial_values(ctx, X, np.array([[e], [0], [6], [7]], dtype=np.int64))
    assert table[0].tolist() == [[pow(x, e, 7), 1, pow(x, 6, 7), x] for x in range(7)]
