import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from singhunt import exactla, fields, hunt
from singhunt.errors import (
    BudgetExceeded,
    NotLinearInParams,
    NotSingular,
    SmallCharacteristic,
)
from singhunt.fields import _dot_mod, field_create, to_elements, to_planes
from singhunt.hunt import (
    _dtype,
    _member_coefficients,
    _param_candidates,
    _projective_planes,
    _solve_at_point_candidates,
    classify,
    classify_local,
    hunt_members,
    projective_points,
    projective_size,
    signature_string,
    singular_points,
)
from singhunt.poly import QQ, ZZ, MultiPoly, ParametricFamily, monomial_basis, parse, parse_poly
from singhunt.rng import digit_rows, distinct_rows, first_occurrences, row_keys, split

F7 = field_create(7)
F11 = field_create(11)
F101 = field_create(101)
CONIC = "x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2+p3*x1*x2"


def brute_singular(f, ctx):
    partials = [f.partial(i) for i in range(f.nvars)]
    return [
        pt
        for pt in projective_points(ctx, f.nvars)
        if f.eval(pt).is_zero() and all(g.eval(pt).is_zero() for g in partials)
    ]


def reference_points(f, ctx):
    """brute_singular in report order: over GF(p), a nonzero binary form's
    points sorted."""
    pts = brute_singular(f, ctx)
    if ctx.k == 1 and f.nvars == 2 and not f.is_zero() and f.is_homogeneous():
        pts.sort(key=lambda pt: tuple(c.coeffs for c in pt))
    return pts


def test_singular_points_examples():
    cone = parse_poly("x0*x1 - x2^2", 4).map_domain(F7)
    pts = singular_points(cone, F7)
    assert [tuple(int(c.coeffs[0]) for c in p) for p in pts] == [(0, 0, 0, 1)]

    conic = parse_poly("x0^2+x1^2+x2^2", 3).map_domain(F7)
    assert singular_points(conic, F7) == []

    member = parse_poly("x0^3+x1^3+x2^3-3*x0*x1*x2", 3).map_domain(F7)
    pts = singular_points(member, F7)
    assert (F7.one(), F7.one(), F7.one()) in pts


def test_singular_points_budget():
    f = parse_poly("x0^2+x1^2+x2^2", 3).map_domain(F101)
    with pytest.raises(BudgetExceeded):
        singular_points(f, F101, budget=100)


def test_projective_enumeration_canonical():
    pts = list(projective_points(F7, 3))
    assert len(pts) == projective_size(7, 3) == 57
    for pt in pts:
        lead = next(c for c in pt if not c.is_zero())
        assert lead == F7.one()
    assert len(set(pts)) == 57


def test_binary_fast_path_matches_enumeration():
    rnd = random.Random(99)
    for p in (7, 11):
        ctx = field_create(p)
        for _ in range(100):
            d = rnd.randint(2, 6)
            f = MultiPoly(2, ctx, {(e, d - e): rnd.randrange(p) for e in range(d + 1)})
            if f.is_zero():
                continue
            fast = singular_points(f, ctx)
            assert sorted(map(str, fast)) == sorted(map(str, brute_singular(f, ctx)))


def test_hunt_oracle_equivalence_hesse():
    hesse = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
    oracle = set()
    for a in range(7):
        if brute_singular(hesse.specialize([F7.element(a)]), F7):
            oracle.add(a)
    assert oracle == {1, 2, 4}
    members = hunt_members(hesse, F7, "random-params", trials=7, seed=1)
    assert {m.params[0].coeffs[0] for m in members} == oracle
    # a member's point list is exactly the singular locus of its member
    for m in members:
        locus = singular_points(hesse.specialize(list(m.params)), F7)
        assert [pt.coords for pt in m.points] == locus


def test_hunt_oracle_equivalence_two_param():
    fam = parse("x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2", 3, 2)
    oracle = set()
    for a in range(11):
        for b in range(11):
            params = (F11.element(a), F11.element(b))
            if brute_singular(fam.specialize(list(params)), F11):
                oracle.add((a, b))
    members = hunt_members(fam, F11, "random-params", trials=121, seed=4)
    got = {(m.params[0].coeffs[0], m.params[1].coeffs[0]) for m in members}
    assert got == oracle and oracle  # nonempty locus


def test_hunt_smooth_family_finds_nothing():
    fam = parse("x0^2+x1^2+x2^2+p1*0", 3, 1)  # constant smooth conic
    assert hunt_members(fam, F7, "random-params", trials=7, seed=0) == []


def test_hunt_stats_count_tested_members():
    hesse = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
    stats = {}
    hunt_members(hesse, F7, trials=5, stats=stats)
    assert stats == {"tested": 5}
    hunt_members(hesse, F7, trials=9, stats=stats)
    assert stats == {"tested": 7, "shortfall": "tested 7 distinct members of 9 requested: "
                                               "the parameter space has only 7 points"}


def test_hunt_deterministic_and_block_invariant(monkeypatch):
    hesse = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
    a = hunt_members(hesse, F7, trials=7, seed=5, classify_points=True)
    b = hunt_members(hesse, F7, trials=7, seed=5, classify_points=True)
    monkeypatch.setattr(hunt, "SCAN_CELLS", 3)  # batches of 3 members, blocks of 1 point
    c = hunt_members(hesse, F7, trials=7, seed=5, classify_points=True)
    assert [m.text() for m in a] == [m.text() for m in b] == [m.text() for m in c]


PRIME_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1)]
EXTENSION_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2)]


@st.composite
def field_families(draw, fields=PRIME_FIELDS, max_params=3):
    """A family over ZZ with 0..max_params parameters, forms or not, and a
    small field."""
    p, k = draw(st.sampled_from(fields))
    n = draw(st.integers(2, 3 if p**k < 25 else 2))
    npar = draw(st.integers(0, max_params))
    degree = draw(st.integers(1, 4))
    form = draw(st.booleans())
    xmons = monomial_basis(n, degree, "exactly" if form else "at-most")
    pmons = monomial_basis(npar, 2, "at-most") if npar else [()]
    exps = st.tuples(st.sampled_from(xmons), st.sampled_from(pmons)).map(lambda t: t[0] + t[1])
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=6))
    return field_create(p, k), ParametricFamily(MultiPoly(n + npar, ZZ, terms), n, npar)


def check_scan_against_brute_force(ctx, fam, trials, seed):
    candidates = [
        tuple(ctx.element(d) for d in row)
        for row in _param_candidates(fam.nparams, ctx, trials, seed).tolist()
    ]
    expected = []
    for params in sorted(candidates, key=lambda ps: tuple(v.coeffs for v in ps)):
        f = fam.specialize(list(params)).map_domain(ctx)
        pts = reference_points(f, ctx)
        assert singular_points(f, ctx) == pts
        if pts:
            expected.append((params, pts))
    members = hunt_members(fam, ctx, trials=trials, seed=seed)
    assert [(m.params, [pt.coords for pt in m.points]) for m in members] == expected


# a block of 2 or 3 cells gives several point blocks per member batch
SCAN_SIZES = st.sampled_from([hunt.SCAN_CELLS, 2, 3])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(field_families(), st.integers(1, 6), st.integers(0, 3), SCAN_SIZES)
def test_prime_field_scan_matches_brute_force(case, trials, seed, cells):
    with mock.patch.object(hunt, "SCAN_CELLS", cells):
        check_scan_against_brute_force(*case, trials, seed)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(field_families(EXTENSION_FIELDS, max_params=2), st.integers(1, 4), st.integers(0, 3),
       SCAN_SIZES)
def test_extension_field_scan_matches_brute_force(case, trials, seed, cells):
    with mock.patch.object(hunt, "SCAN_CELLS", cells):
        check_scan_against_brute_force(*case, trials, seed)


def test_family_zero_mod_p_is_singular_everywhere():
    # no check is left once f is zero mod p: every point of every member is singular
    fam = parse("7*x0^2 + 7*p1*x1^2", 2, 1)
    members = hunt_members(fam, F7, trials=3, seed=2)
    assert len(members) == 3
    for m in members:
        assert [pt.coords for pt in m.points] == list(projective_points(F7, 2))


def test_scan_products_stay_within_the_block_bound(monkeypatch):
    # a locus-sized hunt: 5000 binary members over GF(101), whose checks use
    # two monomials (x0 and x1); products are cells x k planes
    fam = parse("x1^2 + x0^2*p1^2 - 2*x0^2*p2*p3 + 3*x0^2*p1 - x0^2", 2, 3)
    largest = []

    def measured(product):
        def wrapper(ctx, *args):
            out = product(ctx, *args)
            largest.append(out.size // ctx.k)
            return out
        return wrapper

    for module in (hunt, fields):  # fields.monomial_values calls fields.plane_mul
        for name in ("plane_matmul", "plane_mul"):
            monkeypatch.setattr(module, name, measured(getattr(module, name)))
    members = hunt_members(fam, F101, trials=5000, seed=1)
    assert members and largest
    assert max(largest) <= hunt.SCAN_CELLS * 2


def test_binary_member_point_order():
    # the zero member lists every point in enumeration order; a nonzero form
    # lists its points sorted, so (0:1) comes before (1:0)
    F5 = field_create(5)
    fam = parse("p1*x0^2*x1^2+p2*x0^3*x1", 2, 2)
    members = {m.params: m for m in hunt_members(fam, F5, trials=25, seed=0)}
    zero = members[(F5.zero(), F5.zero())]
    assert [pt.coords for pt in zero.points] == list(projective_points(F5, 2))
    node = members[(F5.one(), F5.zero())]
    assert [pt.text() for pt in node.points] == ["(0:1)", "(1:0)"]
    for params, m in members.items():
        f = fam.specialize(list(params))
        assert [pt.coords for pt in m.points] == reference_points(f, F5)


def test_binary_member_point_order_over_extension_field():
    # over GF(p^k) every member keeps enumeration order, so (1:0) comes first
    F9 = field_create(3, 2)
    fam = parse("p1*x0^2*x1^2+p2*x0^3*x1", 2, 2)
    members = {m.params: m for m in hunt_members(fam, F9, trials=81, seed=0)}
    node = members[(F9.one(), F9.zero())]
    assert [pt.text() for pt in node.points] == ["(1:0)", "(0:1)"]
    for params, m in members.items():
        assert [pt.coords for pt in m.points] == reference_points(fam.specialize(list(params)), F9)


@pytest.mark.parametrize("p,k", [(11, 1), (3, 2)])
def test_solve_at_point_candidates_are_singular_at_a_drawn_point(p, k):
    ctx = field_create(p, k)
    fam = parse(CONIC, 3, 3)
    points = list(projective_points(ctx, 3))
    drawn = [points[split(5, t).below(len(points))] for t in range(4)]
    candidates = _solve_at_point_candidates(fam, ctx, 4, 5, 10_000, hunt.DEFAULT_POINT_BUDGET)
    assert len(candidates)
    for row in candidates.tolist():
        f = fam.specialize([ctx.element(d) for d in row])
        conditions = [f] + [f.partial(i) for i in range(3)]
        assert any(all(g.eval(list(pt)).is_zero() for g in conditions) for pt in drawn)


def scalar_param_candidates(nparams, ctx, trials, seed, full_scan=2_000_000):
    """The per-trial draw that _param_candidates replaced, as basis tuples."""
    space = ctx.q**nparams
    if nparams == 0:
        return [()]
    if space <= trials and space <= full_scan:
        points = itertools.product(list(ctx.elements()), repeat=nparams)
        return [tuple(v.coeffs for v in pt) for pt in points]
    seen = set()
    out = []
    attempts = 0
    limit = 20 * trials + 1000
    i = 0
    while len(out) < trials and attempts < limit:
        rng = split(seed, i)
        i += 1
        attempts += 1
        pt = tuple(ctx.element(tuple(rng.below(ctx.p) for _ in range(ctx.k))) for _ in range(nparams))
        key = tuple(v.coeffs for v in pt)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    return out


def test_full_scan_hunt_keeps_the_scalar_shuffle_order():
    """The conic over GF(7) with 400 trials scans all 343 parameter points in
    counting order and finds 50 members."""
    fam = parse(CONIC, 3, 3)
    got = _param_candidates(3, F7, 400, 3)
    members = hunt_members(fam, F7, trials=400, seed=3)
    assert got[:, :, 0].tolist() == [[i // 49, i // 7 % 7, i % 7] for i in range(343)]
    assert len(members) == 50
    assert [tuple(v.coeffs[0] for v in m.params) for m in members[:4]] == [
        (0, 0, 2), (0, 0, 5), (0, 2, 0), (0, 3, 3)]


P63 = 2**63 + 29  # prime; about half of all u64 draws below it are rejected
P64 = 2**64 - 59  # prime; about half of the values drawn below it exceed int64


@st.composite
def draw_cases(draw):
    p, k = draw(st.sampled_from([(2, 1), (3, 1), (7, 1), (101, 1), (2, 3), (3, 2), (7, 2),
                                 (2147483629, 1), (P63, 1), (P64, 1)]))
    nparams = draw(st.integers(0, 4 if p < 10 else 2))
    return field_create(p, k), nparams


@settings(max_examples=200, derandomize=True, deadline=None)
@given(draw_cases(), st.integers(1, 60), st.integers(-2**64, 2**64), st.booleans())
def test_param_candidates_match_scalar_draw(case, trials, seed, full_scan):
    # without the full scan, spaces smaller than trials read every allowed stream
    ctx, nparams = case
    limit = hunt.FULL_SCAN_POINTS if full_scan else 0
    with mock.patch.object(hunt, "FULL_SCAN_POINTS", limit):
        got = _param_candidates(nparams, ctx, trials, seed)
    want = scalar_param_candidates(nparams, ctx, trials, seed, limit)
    assert got.shape == (len(want), nparams, ctx.k)
    assert got.dtype == _dtype(ctx.p)
    if got.dtype == object:
        assert all(type(v) is int for v in got.ravel())
    assert [tuple(map(tuple, row)) for row in got.tolist()] == want


@pytest.mark.parametrize("p, seed", [(79, 1), (101, 7), (127, 3)])
def test_a_locus_sized_draw_takes_one_round(p, seed):
    """5000 draws of 3 parameters over GF(p) repeat about 5000^2 / 2p^3
    times, and the first round draws twice that many more, so it needs no
    second round; the draw is still the scalar one."""
    ctx = field_create(p)
    with mock.patch.object(hunt, "below_rows", wraps=hunt.below_rows) as rounds:
        got = _param_candidates(3, ctx, 5000, seed)
    assert rounds.call_count == 1
    assert [tuple(map(tuple, row)) for row in got.tolist()] == scalar_param_candidates(3, ctx, 5000, seed)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([2, 7, 101, 2**32 + 15, P64]), st.integers(0, 70), st.data())
def test_first_occurrences_match_a_set_of_seen_rows(base, width, data):
    # digits 0, 1 and base - 1, so that rows repeat and words hold 1 to 64
    # digits; rows of width 0 (a family without parameters) are all equal
    digit = st.sampled_from(sorted({0, 1, base - 1}))
    rows = data.draw(st.lists(st.lists(digit, min_size=width, max_size=width), max_size=40))
    seen = {}
    for r, row in enumerate(rows):
        seen.setdefault(tuple(row), r)
    got = first_occurrences(np.array(rows, dtype=np.uint64).reshape(len(rows), width), base)
    assert got.tolist() == sorted(seen.values())


def seen_first(rows):
    """The first index of every distinct row, from a dict of rows seen."""
    seen = {}
    for r, row in enumerate(map(tuple, rows.tolist())):
        seen.setdefault(row, r)
    return sorted(seen.values())


def check_first_occurrences(rows, base, packed):
    """first_occurrences against seen_first, on the packed path (one sort of
    word << bits | index keys, no lexsort) or on the lexsort path."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        got = first_occurrences(rows, base)
    assert got.dtype == np.intp
    assert got.tolist() == seen_first(rows)
    assert lexsort.called != packed


@pytest.mark.parametrize("count", sorted({c for e in range(13) for c in (2**e - 1, 2**e, 2**e + 1)}
                                         | {5000, 5038}))
def test_first_occurrences_at_row_counts_around_powers_of_two(count):
    # three digits below 101, as a 5000-trial draw over GF(101) has them;
    # every row of the second half repeats one of the first half
    gen = np.random.default_rng(count)
    rows = gen.integers(0, 101, size=(count, 3), dtype=np.uint64)
    rows[count // 2:] = rows[gen.integers(0, max(1, count // 2), size=count - count // 2)]
    check_first_occurrences(rows, 101, packed=True)


@pytest.mark.parametrize("base, width, count, packed", [
    (2, 64, 0, True), (2, 64, 1, False),             # 2^64 * 2^0 fits; 2^64 * 2^1 does not
    (2, 63, 1, True), (2, 63, 2, False),             # one index bit, then two
    (2, 51, 5000, True), (2, 52, 5000, False),       # 5000 rows take 13 bits
    (3, 39, 1, True), (3, 40, 1, False),             # 3^39 < 2^63 < 3^40
    (3, 32, 5000, True), (3, 33, 5000, False),       # 3^32 < 2^51 < 3^33
    (101, 8, 1023, True), (101, 8, 1024, False),     # 2^53 < 101^8 < 2^54
    (101, 9, 15, True), (101, 9, 16, False), (101, 10, 1, False),
    (2**60, 1, 15, True), (2**60, 1, 16, False),     # 2^60 * 2^4 is 2^64 exactly
    (2**60 + 33, 1, 7, True), (2**60 + 33, 1, 8, False),
    (2**64 - 59, 1, 0, True), (2**64 - 59, 1, 1, False), (2**64 - 59, 2, 3, False),
])
def test_first_occurrences_on_both_sides_of_the_packed_key_bound(base, width, count, packed):
    # digits 0, 1 and base - 1: the top digit fills the word, so an
    # off-by-one in the bound would overflow it into the index bits
    gen = np.random.default_rng(width + count)
    choices = np.array(sorted({0, 1, base - 1}), dtype=np.uint64)
    rows = choices[gen.integers(0, len(choices), size=(count, width))]
    rows[count // 2:] = rows[:count - count // 2]  # every row of the first half repeats
    check_first_occurrences(rows, base, packed)


@pytest.mark.parametrize("count", [0, 1, 5])
@pytest.mark.parametrize("width", [0, 3])
def test_first_occurrences_of_no_rows_and_of_empty_rows(count, width):
    rows = np.zeros((count, width), dtype=np.uint64)
    got = first_occurrences(rows, 7)
    assert got.tolist() == ([0] if count else [])
    assert got.dtype == np.intp


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.sampled_from([2, 7, 101, 2**32 + 15, P64]), st.integers(0, 9), st.data())
def test_distinct_rows_in_rounds_match_a_set_of_seen_rows(base, width, data):
    """Rows deduplicated a round at a time against the sorted keys of the
    rounds before give the first occurrences of all of them at once, and
    each round sorts only its own rows."""
    digit = st.sampled_from(sorted({0, 1, base - 1}))
    rounds = data.draw(st.lists(st.lists(st.lists(digit, min_size=width, max_size=width), max_size=12),
                                max_size=4))
    rows = [row for batch in rounds for row in batch]
    got, seen, done = [], None, 0
    for batch in rounds:
        batch = np.array(batch, dtype=np.uint64).reshape(len(batch), width)
        with mock.patch.object(np, "sort", wraps=np.sort) as sort:
            first, seen = distinct_rows(batch, base, seen)
        assert all(len(call.args[0]) <= len(batch) for call in sort.call_args_list)
        got += (done + first).tolist()
        done += len(batch)
    assert got == seen_first(np.array(rows, dtype=np.uint64).reshape(len(rows), width))
    if rounds:
        keys = row_keys(np.array(rows, dtype=np.uint64).reshape(len(rows), width), base)
        assert seen.tolist() == np.unique(keys).tolist()


def test_param_candidates_refuse_primes_above_two_to_the_64():
    # rejection sampling from u64 draws would never accept a value
    with pytest.raises(ValueError, match="2\\^64"):
        _param_candidates(1, field_create(2**64 + 13), 3, 0)


@pytest.mark.parametrize("p", [2147483629, 2**61 - 1])
def test_member_coefficients_overflow_guard(p):
    # seven p-monomials feed x2^2: 7 * (p-1)^2 overflows a single int64 sum
    fam = parse(CONIC + "+p1^2*p2*x0*x1+p3^2*x2^2+p2*p3*x2^2+p1*p2*p3*x2^2-x2^2", 3, 3)
    ctx = field_create(p)
    rnd = random.Random(p)
    rows = [[p - 1 - rnd.randrange(4) for _ in range(3)] for _ in range(5)] + [[0, 0, 0]]
    xmons, C = _member_coefficients(fam.poly.map_domain(ctx), 3, to_planes(ctx, rows), ctx)
    for row, coeffs in zip(rows, to_elements(ctx, C)):
        member = fam.specialize([ctx.element(v) for v in row])
        assert {m: c for m, c in zip(xmons, coeffs) if c} == member.terms


def test_exponents_past_q_reduce_on_the_field():
    # on GF(9), x^26 = x^2, and 26 = 2 mod 3 keeps the x0 partial too: a
    # planted family and its reduced form have the same singular members
    F9 = field_create(3, 2)
    big = parse("x0^26*x1 + x1^3 + p1*x0*x1*x2 + p2*x2^3", 3, 2)
    small = parse("x0^2*x1 + x1^3 + p1*x0*x1*x2 + p2*x2^3", 3, 2)
    found = [[(m.params, [pt.coords for pt in m.points]) for m in hunt_members(fam, F9, trials=81, seed=1)]
             for fam in (big, small)]
    assert found[0] and found[0] == found[1]


def test_dot_mod_reduces_term_by_term_near_two_to_the_31():
    p = 2147483629
    X = np.full((2, 3), p - 1, dtype=np.int64)
    Y = np.full((3, 2), p - 2, dtype=np.int64)
    exact = 3 * (p - 1) * (p - 2) % p
    assert (_dot_mod(X, Y, p) == exact).all()
    with np.errstate(over="ignore"):
        assert not (X @ Y % p == exact).all()  # the unguarded product overflows


def enumerated_points(ctx, n):
    """P^(n-1) in counting order: for each lead, in order, every tail after
    the coordinate 1 in itertools.product order."""
    elems = list(ctx.elements())
    for lead in range(n):
        prefix = (ctx.zero(),) * lead + (ctx.one(),)
        for tail in itertools.product(elems, repeat=n - lead - 1):
            yield prefix + tail


@functools.lru_cache(maxsize=None)
def _projective_array(ctx, n):
    """Planes (k x points x n) of every point, in order: the whole space as
    the scan built it before points were decoded by index."""
    p, k = ctx.p, ctx.k
    out = np.zeros((k, projective_size(ctx.q, n), n), dtype=_dtype(p))
    start = 0
    for lead in range(n):
        width, size = n - lead - 1, ctx.q ** (n - lead - 1)
        out[0, start:start + size, lead] = 1
        # the digits of the tail coordinates, most significant first
        digits = np.indices((p,) * (k * width)).reshape(width, k, size)
        out[:, start:start + size, lead + 1:] = digits.transpose(1, 2, 0)
        start += size
    return out


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (3, 1, 4), (5, 1, 2), (7, 2, 2), (2, 2, 3), (7, 1, 1)])
def test_nth_projective_point_decodes_enumeration(p, k, n):
    ctx = field_create(p, k)
    points = _projective_array(ctx, n)
    assert points.shape == (k, projective_size(ctx.q, n), n)
    want = list(enumerated_points(ctx, n))
    assert [tuple(pt) for pt in to_elements(ctx, points)] == want
    assert list(projective_points(ctx, n)) == want
    decoded = _projective_planes(ctx, n, np.arange(len(want)))
    assert decoded.dtype == points.dtype and (decoded == points).all()


DECODE_FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(7, 2), F101]


@st.composite
def point_indices(draw):
    """A field, n and an index array into P^(n-1): unsorted, with repeats,
    and across lead blocks (the first and last index of each block, and
    its neighbours, are likely draws)."""
    ctx = draw(st.sampled_from(DECODE_FIELDS))
    n = draw(st.integers(1, 4))
    total = projective_size(ctx.q, n)
    edges = sorted({b + d for b in itertools.accumulate(ctx.q ** (n - 1 - l) for l in range(n))
                    for d in (-1, 0) if 0 <= b + d < total} | {0})
    index = st.one_of(st.sampled_from(edges), st.integers(0, total - 1))
    return ctx, n, draw(st.lists(index, max_size=40))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(point_indices(), st.lists(st.integers(1, 5), max_size=5), st.lists(st.integers(0, 10**6), max_size=20))
def test_decoders_match_the_enumerations(case, radices, raw):
    ctx, n, index = case
    decoded = _projective_planes(ctx, n, index)
    want = _projective_array(ctx, n)[:, index]
    assert decoded.shape == want.shape and (decoded == want).all()
    # mixed radices, radices of 1 and no radices at all
    tuples = list(itertools.product(*map(range, radices)))
    index = [i % len(tuples) for i in raw]
    assert digit_rows(np.array(index, dtype=np.int64), radices).tolist() == [list(tuples[i]) for i in index]


def test_solve_at_point_conic_members_are_singular():
    conic = parse(CONIC, 3, 3)
    members = hunt_members(conic, F101, "solve-at-point", trials=2, seed=0)
    assert members
    for m in members:
        f = conic.specialize(list(m.params))
        assert [pt.coords for pt in m.points] == brute_singular(f, F101)


def test_solve_at_point_members_verify():
    fam = parse(
        "x0^2*x1+x1^3+x2^3+p1*x0^3+p2*x0*x1*x2+p3*x1^2*x2+p4*x0^2*x2",
        3,
        4,
    )
    members = hunt_members(fam, F11, "solve-at-point", trials=5, seed=3)
    assert members
    for m in members[:20]:
        f = fam.specialize(list(m.params))
        assert f.eval(list(m.points[0].coords)).is_zero()
        assert all(
            f.partial(i).eval(list(m.points[0].coords)).is_zero() for i in range(3)
        )


def test_solve_at_point_rejects_nonlinear():
    fam = parse("x0^2+x1^2+p1^2*x0*x1", 2, 1)
    with pytest.raises(NotLinearInParams):
        hunt_members(fam, F7, "solve-at-point", trials=1, seed=0)


def reference_solve_at_point(fam, ctx, trials, seed, member_cap):
    """The per-trial loop that _solve_at_point_candidates replaced, as basis
    tuples: the conditions at the point of stream split(seed, t), read off
    the family at the unit parameter points, one exactla.solve each, and a
    set of the members already seen."""
    n, npar = fam.nvars, fam.nparams
    points = list(projective_points(ctx, n))
    elements = list(ctx.elements())
    units = [[ctx.one() if i == j else ctx.zero() for i in range(npar)] for j in range(npar)]
    candidates, seen = [], set()
    for t in range(trials):
        pt = list(points[split(seed, t).below(len(points))])

        def conditions(params):
            f = fam.specialize(params).map_domain(ctx)
            return [g.eval(pt) for g in [f] + [f.partial(i) for i in range(n)]]

        const = conditions([ctx.zero()] * npar)
        cols = [[v - c for v, c in zip(conditions(u), const)] for u in units]
        A = exactla.ExactMatrix.make(ctx, [[col[r] for col in cols] for r in range(n + 1)], npar)
        sol, kernel = exactla.solve(A, [-c for c in const])
        if sol is None:
            continue
        if ctx.q ** len(kernel) > member_cap:
            raise BudgetExceeded(
                f"solution space has {ctx.q ** len(kernel)} parameter points (cap {member_cap})")
        for combo in itertools.product(elements, repeat=len(kernel)):
            member = [sum((c * ctx.element(v[j]) for c, v in zip(combo, kernel)), ctx.element(s))
                      for j, s in enumerate(sol)]
            key = tuple(v.coeffs for v in member)
            if key not in seen:
                seen.add(key)
                candidates.append(key)
    return candidates


def solve_at_point_or_error(solver, *args):
    try:
        return solver(*args)
    except BudgetExceeded as exc:
        return str(exc)


@st.composite
def linear_families(draw):
    """A family over ZZ that is linear in its 0..3 parameters, over a small
    prime or extension field."""
    p, k = draw(st.sampled_from(PRIME_FIELDS + EXTENSION_FIELDS))
    n = draw(st.integers(2, 3 if p**k < 10 else 2))
    npar = draw(st.integers(0, 3))
    xmons = monomial_basis(n, draw(st.integers(1, 4)), "exactly" if draw(st.booleans()) else "at-most")
    pmons = monomial_basis(npar, 1, "at-most") if npar else [()]
    exps = st.tuples(st.sampled_from(xmons), st.sampled_from(pmons)).map(lambda t: t[0] + t[1])
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=7))
    return field_create(p, k), ParametricFamily(MultiPoly(n + npar, ZZ, terms), n, npar)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(linear_families(), st.integers(1, 8), st.integers(0, 3), st.sampled_from([1, 10, 10_000]))
def test_solve_at_point_candidates_match_per_trial_solves(case, trials, seed, member_cap):
    ctx, fam = case
    got = solve_at_point_or_error(_solve_at_point_candidates, fam, ctx, trials, seed, member_cap,
                                  hunt.DEFAULT_POINT_BUDGET)
    want = solve_at_point_or_error(reference_solve_at_point, fam, ctx, trials, seed, member_cap)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.shape == (len(want), fam.nparams, ctx.k)
        assert [tuple(map(tuple, row)) for row in got.tolist()] == want


Q3 = ("x0^4+x1^4+x2^4+p1*x0^2*x1^2+p2*x0^2*x2^2+p3*x1^2*x2^2+x0^3*x1+2*x1^3*x2+3*x2^3*x0"
      "+5*x0^2*x1*x2")


@pytest.mark.parametrize("text, nvars, nparams, field, trials, seed, count", [
    (Q3, 3, 3, (31, 1), 100, 5, 85),  # 11 inconsistent trials, kernels of dimension 0
    ("p1*x0^2+p2*x1^2+p3*x0*x1", 2, 3, (3, 2), 30, 7, 65),  # every kernel of dimension 1
    ("x0^2+x1^2", 2, 0, (7, 1), 20, 1, 0),  # no parameters, every trial inconsistent
    ("x0*x1^2", 2, 0, (7, 1), 20, 1, 1),  # no parameters, (1:0) drawn
    (CONIC, 3, 3, (2, 3), 6, 2, None),
])
def test_solve_at_point_eliminates_once_per_trial(text, nvars, nparams, field, trials, seed, count):
    fam, ctx = parse(text, nvars, nparams), field_create(*field)
    want = reference_solve_at_point(fam, ctx, trials, seed, 10_000)
    with mock.patch.object(exactla, "rref", wraps=exactla.rref) as rref, \
            mock.patch.object(exactla, "solve", side_effect=AssertionError("exactla.solve")):
        got = _solve_at_point_candidates(fam, ctx, trials, seed, 10_000, hunt.DEFAULT_POINT_BUDGET)
    assert rref.call_count == trials
    assert [tuple(map(tuple, row)) for row in got.tolist()] == want
    assert count is None or len(want) == count


def test_classify_normal_forms():
    node = parse_poly("x0^2+x1^2+x2^2", 3, domain=QQ)
    res = classify_local(node)
    assert (res.label, res.corank, res.tjurina) == ("A1", 0, 1)

    a3 = parse_poly("x0^2+x1^2+x2^4", 3, domain=QQ)
    res = classify_local(a3)
    assert (res.label, res.corank, res.tjurina) == ("A3", 1, 3)

    degenerate = parse_poly("x0^2+x1^4+x2^4", 3, domain=QQ)
    res = classify_local(degenerate)
    assert res.label == "?" and res.corank == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_tjurina_of_ak_normal_form(k):
    f = parse_poly(f"x0^2+x1^2+x2^{k + 1}", 3, domain=QQ)
    res = classify_local(f, cap=max(8, k + 2))
    assert res.tjurina == k and res.label == f"A{k}"


def groebner_tjurina(text: str, nvars: int, p: int | None = None) -> int:
    """dim k[x]/(g, dg/dx0, ...) over Q (or GF(p)): the standard monomials of
    a sympy Groebner basis, counted.  For a g whose only singular point is
    the origin this is the Tjurina number there."""
    xs = sympy.symbols(f"x0:{nvars}")
    g = sympy.sympify(text.replace("^", "**"), locals={str(x): x for x in xs})
    basis = sympy.groebner([g] + [g.diff(x) for x in xs], *xs, order="grevlex",
                           **({"modulus": p} if p else {}))
    leads = [sympy.Poly(h, *xs).monoms(order="grevlex")[0] for h in basis.exprs]
    # the ideal is zero-dimensional, so every variable has a pure power among the leads
    tops = [min(m[i] for m in leads if sum(m) == m[i] > 0) for i in range(nvars)]
    return sum(
        not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)
        for m in itertools.product(*map(range, tops))
    )


@pytest.mark.parametrize("text, nvars", [(f"x0^2+x1^{k + 1}", 2) for k in range(1, 7)] + [
    ("x0^2+x1^2+x2^4+x0*x2^2", 3),  # A3 after completing the square
    ("x0^3+x1^4", 2),  # E6, corank 2
    ("x0^2*x1+x1^3", 2),  # D4, corank 2
    ("x0^4+x1^5+x0^2*x1^3", 2),  # not quasi-homogeneous: tau 11 < mu 12
])
@pytest.mark.parametrize("domain", [QQ, F11], ids=["QQ", "GF11"])
def test_tjurina_matches_a_groebner_basis_oracle(text, nvars, domain):
    res = classify_local(parse_poly(text, nvars, domain=domain))
    assert res.tjurina == groebner_tjurina(text, nvars, None if domain == QQ else domain.p)


# -- the three-elimination classification, kept as the reference ---------------

def reference_hessian_rank(g):
    n = g.nvars
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            c = g.terms.get(tuple(e), 0)
            if i == j:
                c = 2 * c
            row.append(c)
        entries.append(row)
    return exactla.rank(exactla.ExactMatrix.make(g.domain, entries))


def reference_tjurina_truncated(g, cap):
    """dim of O/(g, dg) modulo degree >= cap terms, from its own matrix."""
    n = g.nvars
    basis = monomial_basis(n, cap - 1, "at-most")
    index = {m: i for i, m in enumerate(basis)}
    gens = [g] + [g.partial(i) for i in range(n)]
    entries = {}  # (row, column) -> coefficient
    rows = 0
    for h in gens:
        if h.is_zero():
            continue
        order = min(sum(e) for e in h.terms)
        if order > cap - 1:
            continue  # every multiple is truncated away
        for m in monomial_basis(n, cap - 1 - order, "at-most"):
            row = {}
            for exps, c in h.terms.items():
                pos = index.get(tuple(a + b for a, b in zip(exps, m)))
                if pos is not None:
                    row[rows, pos] = c
            if row:
                entries.update(row)
                rows += 1
    if not rows:
        return len(basis)
    rk = exactla.rank(exactla.ExactMatrix.sparse(g.domain, rows, len(basis), entries))
    return len(basis) - rk


F49 = field_create(7, 2)


@st.composite
def local_singularities(draw, domain):
    """(g, cap): g over domain with no terms of degree < 2.  The lowest
    degree is drawn up to 10, so for small caps every row of the Tjurina
    matrix can be truncated away, and g may be zero."""
    n = draw(st.integers(1, 3))
    cap = draw(st.integers(2, 9))
    low = draw(st.one_of(st.just(2), st.integers(2, 10)))
    exps = st.lists(st.integers(0, low + 3), min_size=n, max_size=n).filter(
        lambda e: low <= sum(e) <= low + 3)
    if domain == QQ:
        coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    else:
        coeffs = st.lists(st.integers(0, domain.p - 1), min_size=domain.k, max_size=domain.k).map(
            domain.element)
    if draw(st.integers(0, 9)) == 9:
        return MultiPoly.zero(n, domain), cap
    terms = {}
    if draw(st.booleans()):  # a sum of pure powers, isolated in characteristic 0 and 101
        terms = {tuple(d if j == i else 0 for j in range(n)): 1
                 for i, d in enumerate(draw(st.lists(st.integers(2, 9), min_size=n, max_size=n)))}
    terms.update(draw(st.dictionaries(exps.map(tuple), coeffs, min_size=not terms, max_size=6)))
    return MultiPoly(n, domain, terms), cap


@pytest.mark.parametrize("domain", [F101, F49, QQ], ids=["GF101", "GF49", "QQ"])
@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_elimination_matches_three(domain, data):
    g, cap = data.draw(local_singularities(domain))
    reference = (
        g.nvars - reference_hessian_rank(g),
        reference_tjurina_truncated(g, cap - 1),
        reference_tjurina_truncated(g, cap),
    )
    assert hunt._corank_and_tjurina(g, cap) == reference


@pytest.mark.parametrize("text, rrefs", [("x0^2+x1^2+x2^4", 1), ("x0^9", 0)])
def test_classify_local_eliminates_once(text, rrefs):
    """One rref per classified point, and none when every row is truncated away."""
    with mock.patch.object(exactla, "rref", wraps=exactla.rref) as rref:
        classify_local(parse_poly(text, 3, domain=QQ), cap=8)
    assert rref.call_count == rrefs


def test_classify_coordinate_invariance():
    rnd = random.Random(12)
    for domain in (QQ, F101):
        base = parse_poly("x0^2+x1^2+x2^4", 3, domain=domain)
        expected = classify_local(base)
        for _ in range(5):
            while True:
                rows = [[rnd.randint(-4, 4) for _ in range(3)] for _ in range(3)]
                det = (
                    rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                    - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                    + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
                )
                if det % 101 != 0 and det != 0:
                    break
            images = [
                MultiPoly(3, domain, {(1, 0, 0): rows[i][0], (0, 1, 0): rows[i][1], (0, 0, 1): rows[i][2]})
                for i in range(3)
            ]
            disguised = base.substitute(images)
            res = classify_local(disguised)
            assert (res.corank, res.tjurina) == (expected.corank, expected.tjurina)


def test_classify_projective_chart():
    cone = parse_poly("x0*x1 - x2^2", 4).map_domain(F7)
    pt = [F7.zero(), F7.zero(), F7.zero(), F7.one()]
    res = classify(cone, pt)
    assert res.label == "A1"
    smooth_pt = [F7.one(), F7.element(2), F7.zero(), F7.zero()]
    with pytest.raises(NotSingular):
        classify(cone, smooth_pt)


def test_classify_small_characteristic_refused():
    F3 = field_create(3)
    f = parse_poly("x0^2+x1^2+x2^4", 3).map_domain(F3)
    with pytest.raises(SmallCharacteristic):
        classify_local(f)


def test_hunt_reports_unclassifiable_points_as_unlabeled():
    F3 = field_create(3)
    fam = parse("x0^2*x1^2+x2^4+p1*x0*x1*x2^2", 3, 1)
    members = hunt_members(fam, F3, trials=3, seed=0, classify_points=True)
    assert members
    assert any(pt.label == "?" for m in members for pt in m.points)


def test_signature_strings():
    assert signature_string(["A1", "A1", "A3", "A3"]) == "2A1+2A3"
    assert signature_string(["A1"] * 6) == "6A1"
    assert signature_string(["A1"] * 4 + ["A3"]) == "4A1+1A3"
    assert signature_string([]) == "smooth"
    assert signature_string(["A1", "?"]) == "1A1+1?"


def test_tjurina_stability_diagnostic():
    # x^2 + y^2 + z^9 needs a cap beyond the default to stabilize
    f = parse_poly("x0^2+x1^2+x2^9", 3, domain=QQ)
    res = classify_local(f, cap=8)
    assert res.label == "?" and "stabilized" in res.diagnostic
    res2 = classify_local(f, cap=11)
    assert res2.label == "A8" and res2.tjurina == 8


def test_a_tjurina_matrix_over_the_cell_cap_is_refused_before_any_row():
    """x8^2 + x0^3 at cap 8 counts 9,009 x 11,440 cells; x30^2 + x0^3 far
    more.  Both are refused before a monomial is listed."""
    with mock.patch.object(hunt, "monomial_basis", side_effect=AssertionError("listed")):
        for text, cells in (("x8^2+x0^3", 9009 * 11440), ("x30^2+x0^3", 38854840324608)):
            f = parse_poly(text, int(text[1:text.index("^")]) + 1, domain=QQ)
            with pytest.raises(BudgetExceeded, match=f"^tjurina matrix at --cap 8 has {cells} cells, "
                                                     f"more than {hunt.TJURINA_CELLS}$"):
                classify_local(f, cap=8)


def test_a_hunt_reports_a_point_over_the_cell_cap_unclassified():
    """The cone x0^3 + x1^3 + p1*x0^2*x1 in P^5 is singular along x0 = x1 = 0;
    at cap 10 each point needs 2,046 x 2,002 cells, so the hunt goes on and
    reports every point unclassified with that reason."""
    fam = parse("x0^3+x1^3+p1*x0^2*x1", 6, 1)
    (member,) = hunt_members(fam, field_create(5), trials=1, classify_points=True, cap=10)
    assert len(member.points) == 156  # the points of P^3 over GF(5)
    assert {(pt.label, pt.diagnostic) for pt in member.points} == {
        ("?", f"tjurina matrix at --cap 10 has 4096092 cells, more than {hunt.TJURINA_CELLS}")}


# -- the A1 shortcut: a regular Hessian classifies without the cap matrix ------

def full_classification(g, cap):
    """classify_local without the shortcut: every point from the cap matrix."""
    corank, tau_lo, tau_hi = hunt._corank_and_tjurina(g, cap)
    coords = (0,) * g.nvars
    if tau_lo != tau_hi:
        return hunt.SingularPoint(coords, "?", corank, None,
                                  f"tjurina not stabilized at cap {cap} ({tau_lo} vs {tau_hi})")
    if corank > 1:
        return hunt.SingularPoint(coords, "?", corank, tau_hi, f"corank {corank} > 1")
    return hunt.SingularPoint(coords, f"A{tau_hi}", corank, tau_hi, "")


@st.composite
def morse_or_degenerate(draw, domain):
    """(g, cap): a local singularity of local_singularities, or one whose
    degree-2 part is a random quadratic form (often of full rank, sometimes
    of rank n - 1 or zero) plus higher terms."""
    g, cap = draw(local_singularities(domain))
    if draw(st.booleans()):
        return g, cap
    n = g.nvars
    scalar = st.integers(-3, 3) if domain == QQ else st.integers(0, domain.p - 1).map(domain.element)
    rows = [[draw(scalar) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):  # a degenerate form: the last row a combination of the others
        rows[-1] = [sum(draw(st.integers(-2, 2)) * r[j] for r in rows[:-1]) for j in range(n)]
    quadric = MultiPoly.zero(n, domain)
    for row in rows:  # a sum of squares of linear forms, Hessian 2 R^T R
        linear = MultiPoly(n, domain, {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(row)})
        quadric = quadric + linear * linear
    higher = {e: c for e, c in g.terms.items() if sum(e) > 2}
    return quadric + MultiPoly(n, domain, higher), cap


@pytest.mark.parametrize("domain", [F101, F11, QQ], ids=["GF101", "GF11", "QQ"])
@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_a1_shortcut_matches_the_full_classification(domain, data):
    g, cap = data.draw(morse_or_degenerate(domain))
    try:
        got = classify_local(g, cap)
    except SmallCharacteristic:
        assert g.total_degree() >= domain.p
        return
    assert got == full_classification(g, cap)
    regular = reference_hessian_rank(g) == g.nvars
    assert hunt._hessian_is_regular(g) == regular
    if regular:
        assert (got.label, got.corank, got.tjurina) == ("A1", 0, 1)


@pytest.mark.parametrize("text, builds", [("x0^2+x1^2+x2^2+x0^5", 0), ("x0^2+x1^2+x2^4", 1),
                                          ("x0*x1+x2^2", 0), ("x0^9", 1)])
@pytest.mark.parametrize("domain", [F101, QQ], ids=["GF101", "QQ"])
def test_regular_hessian_builds_no_cap_matrix(text, builds, domain):
    with mock.patch.object(hunt, "_corank_and_tjurina", wraps=hunt._corank_and_tjurina) as full:
        classify_local(parse_poly(text, 3, domain=domain))
    assert full.call_count == builds


# -- the Macaulay prune: skipped members have no singular point ----------------

@st.composite
def form_batches(draw):
    """(ctx, n, d, xmons, C): coefficient planes of a batch of forms of degree
    d in n variables over a small field, p | d and exponents divisible by p
    included; some members are cones (a variable missing), hence singular."""
    p, k = draw(st.sampled_from(PRIME_FIELDS + EXTENSION_FIELDS))
    ctx = field_create(p, k)
    n = draw(st.integers(1, 3 if ctx.q < 10 else 2))
    d = draw(st.integers(1, 5))
    xmons = draw(st.lists(st.sampled_from(monomial_basis(n, d, "exactly")), min_size=1, max_size=6,
                          unique=True))
    members = draw(st.integers(1, 6))
    digit = st.one_of(st.just(0), st.integers(0, p - 1))
    C = np.array(draw(st.lists(digit, min_size=k * members * len(xmons),
                               max_size=k * members * len(xmons))),
                 dtype=np.int64).reshape(k, members, len(xmons))
    if n > 1 and draw(st.booleans()):  # a cone over a form in fewer variables
        C[:, 0, [j for j, e in enumerate(xmons) if e[-1]]] = 0
    return ctx, n, d, xmons, C


@settings(max_examples=300, derandomize=True, deadline=None)
@given(form_batches(), st.sampled_from([hunt.SCAN_CELLS, 1, 7]))
def test_pruned_members_have_no_singular_point(case, cells):
    ctx, n, d, xmons, C = case
    with mock.patch.object(hunt, "SCAN_CELLS", cells):
        keep = hunt._may_be_singular(xmons, C, ctx, n, d)
    elements = to_elements(ctx, C)
    for t, coeffs in enumerate(elements):
        f = MultiPoly(n, ctx, {e: c for e, c in zip(xmons, coeffs) if c})
        partials = [f.partial(i) for i in range(n)]
        singular = any(all(not g.eval(pt) for g in partials) for pt in projective_points(ctx, n))
        assert keep[t] or not singular
        if not f.is_zero() and n == 1 and d % ctx.p:  # a x^d is smooth on P^0: dropped
            assert not keep[t]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(field_families(PRIME_FIELDS + EXTENSION_FIELDS), st.integers(1, 6), st.integers(0, 3))
def test_member_coefficients_from_integers_match_the_family_over_the_field(case, trials, seed):
    """Specialising the family's own integer coefficients gives the
    monomials and planes of the family mapped into the field, whose terms
    that vanish mod p are gone."""
    ctx, fam = case
    params = np.moveaxis(_param_candidates(fam.nparams, ctx, trials, seed), 2, 0)
    xmons, C = _member_coefficients(fam.poly, fam.nvars, params, ctx)
    want_xmons, want = _member_coefficients(fam.poly.map_domain(ctx), fam.nvars, params, ctx)
    assert xmons == want_xmons
    assert C.dtype == want.dtype and C.tolist() == want.tolist()


def test_smooth_conics_are_pruned_and_singular_ones_kept():
    xmons = [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    C = np.array([[[1, 0, 1, 0, 0, 1],    # x0^2 + x1^2 + x2^2, smooth
                   [1, 0, 1, 0, 2, 1]]])  # (x0 + x1)^2 + x2^2, singular at (1:-1:0)
    assert hunt._may_be_singular(xmons, C, F101, 3, 2).tolist() == [False, True]


G5 = ("x0^5+x1^5+x2^5+x3^5+p1*x1*x2^3*x3+p2*x1^2*x2*x3^2+p3*x0*x2^2*x3^2+p4*x0*x1*x3^3"
      "+p5*x0*x1^3*x2+p6*x0^2*x1*x2^2+p7*x0^2*x1^2*x3+p8*x0^3*x2*x3")
Q6 = ("x0^4+x1^4+x2^4+p1*x0^2*x1^2+p2*x0^2*x2^2+p3*x1^2*x2^2+p4*x0^2*x1*x2+p5*x0*x1^2*x2"
      "+p6*x0*x1*x2^2+x0^3*x1+2*x1^3*x2+3*x2^3*x0")
LOCUS = "x1^2 + x0^2*p1^2 - 2*x0^2*p2*p3 + 3*x0^2*p1 - x0^2"
CUBIC_SURFACE = "x0^3+x1^3+x2^3+x3^3+p1*x0*x1*x2+p2*x1*x2*x3+p3*x0*x2*x3"


def macaulay_is_short(ctx, n, d, xmons, coeffs):
    """Whether the Macaulay matrix in degree D = max(n(d-2)+1, d-1) of the
    partials of the form with these coefficients, built row by row from the
    partials as polynomials, is short of full column rank by exactla.rank."""
    f = MultiPoly(n, ctx, {e: c for e, c in zip(xmons, coeffs) if c})
    D = max(n * (d - 2) + 1, d - 1)
    column = {a: j for j, a in enumerate(monomial_basis(n, D, "exactly"))}
    rows = []
    for g in (f.partial(i) for i in range(n)):
        for m in monomial_basis(n, D - d + 1, "exactly"):
            row = [0] * len(column)
            for e, c in g.terms.items():
                row[column[tuple(a + b for a, b in zip(e, m))]] = c
            rows.append(row)
    return exactla.rank(exactla.ExactMatrix.make(ctx, rows, len(column))) < len(column)


@pytest.mark.parametrize("text, nvars, p, k, trials", [(LOCUS, 2, 79, 1, 5000), (CONIC, 3, 7, 2, 400)],
                         ids=["locus-GF79", "conic-GF49"])
def test_prune_mask_is_the_rank_of_each_macaulay_matrix(text, nvars, p, k, trials):
    """The prune's mask on a whole batch, ranked as one stack held systems
    innermost, against exactla.rank of each member's own matrix."""
    fam, ctx = parse(text, nvars, 3), field_create(p, k)
    params = np.moveaxis(_param_candidates(3, ctx, trials, 1), 2, 0)
    xmons, C = _member_coefficients(fam.poly, nvars, params, ctx)
    mask = hunt._may_be_singular(xmons, C, ctx, nvars, 2)
    want = [macaulay_is_short(ctx, nvars, 2, xmons, coeffs) for coeffs in to_elements(ctx, C)]
    assert mask.tolist() == want
    assert 0 < sum(want) < trials


@pytest.mark.parametrize("text, nvars, nparams, p, pruned", [
    (CONIC, 3, 3, 101, True), (LOCUS, 2, 3, 101, True), (CUBIC_SURFACE, 4, 3, 101, True),
    (Q6, 3, 6, 31, False), (G5, 4, 8, 31, False),
])
def test_prune_runs_where_it_costs_less_than_the_scan(text, nvars, nparams, p, pruned):
    """The members handed to the scan: fewer than those drawn where ranking
    the Macaulay matrices costs less than scanning, all of them otherwise."""
    scanned = []

    def counted(xmons, C, *args):
        scanned.append(C.shape[1])
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

    with mock.patch.object(hunt, "_scan", counted):
        hunt_members(parse(text, nvars, nparams), field_create(p), trials=50, seed=1)
    assert (sum(scanned) < 50) == pruned
    assert pruned or scanned == [50]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_macaulay_shape_matches_the_gather(n, d):
    # the shape does not depend on the monomials, so one will do
    xmons = ((d,) + (0,) * (n - 1),)
    assert hunt._macaulay_shape(n, d) == hunt._macaulay_gather(xmons, n, d, 101)[0]


def test_huge_degree_form_hunts_without_building_the_gather():
    # a Macaulay matrix of degree about 2^64 cannot be built; its shape
    # alone says that the prune does not pay, and the scan finds (1:6)
    fam = parse("x0^9223372036854775807+x1^9223372036854775807", 2, 0)
    with mock.patch.object(hunt, "_macaulay_gather") as gather:
        members = hunt_members(fam, F7, trials=1)
    assert not gather.called
    assert [m.text() for m in members] == ["() | 1? | (1:6)"]


# -- the member table against the per-member path it replaced -----------------

def per_member_scan_tail(xmons, C, ctx, n, rows, points):
    """(row, points) of every singular member, from the cells (member rows and
    point indices) the scan found, as the scan made them before the member
    table: the cells in block order (by point, then member), grouped by
    member with a stable sort, and a nonzero binary form's points over GF(p)
    sorted by their coordinates one member at a time."""
    order = np.lexsort((rows, points))
    b, t = points[order], rows[order]
    order = np.argsort(t, kind="stable")
    b, t = b[order], t[order]
    used = sorted(set(b.tolist()))
    coords = dict(zip(used, map(tuple, to_elements(ctx, _projective_planes(ctx, n, used)))))
    members, firsts = np.unique(t, return_index=True)
    for row, found in zip(members.tolist(), np.split(b, firsts[1:])):
        found = found.tolist()
        if ctx.k == 1 and n == 2 and len({sum(m) for m, c in zip(xmons, C[0, row].tolist()) if c}) == 1:
            found = sorted(found, key=lambda b: [c.coeffs for c in coords[b]])
        yield row, [coords[b] for b in found]


def per_member_hunt(fam, ctx, trials, seed, classify_points):
    """hunt_members as a loop over the members the scan found: one
    FieldElement per parameter digit, then a sort by the parameters' basis
    tuples."""
    digits = _param_candidates(fam.nparams, ctx, trials, seed)
    xmons, C = _member_coefficients(fam.poly.map_domain(ctx), fam.nvars, np.moveaxis(digits, 2, 0), ctx)
    check_f = not (fam.is_homogeneous_in_x() and fam.x_degree % ctx.p)
    rows, points = hunt._scan(xmons, C, ctx, fam.nvars, check_f)
    members = []
    for row, pts in per_member_scan_tail(xmons, C, ctx, fam.nvars, rows, points):
        params = [ctx.element(d) for d in digits[row].tolist()]
        if classify_points:
            member_poly = fam.specialize(params).map_domain(ctx)
            spts = [hunt._classified(member_poly, coords, hunt.DEFAULT_CAP) for coords in pts]
        else:
            spts = [hunt.SingularPoint(coords) for coords in pts]
        members.append(hunt.SingularMember(tuple(params), spts))
    return sorted(members, key=lambda m: tuple(v.coeffs for v in m.params))


@st.composite
def binary_forms(draw):
    """(ctx, family, trials): binary forms of one degree whose every term
    carries a parameter, so that the zero parameter point is the zero member,
    with trials that cover the whole parameter space about half of the time."""
    p, k = draw(st.sampled_from(PRIME_FIELDS + EXTENSION_FIELDS))
    ctx = field_create(p, k)
    npar = draw(st.integers(1, 2))
    degree = draw(st.integers(1, 5))
    pmons = [m for m in monomial_basis(npar, 2, "at-most") if any(m)]
    exps = st.tuples(st.sampled_from(monomial_basis(2, degree, "exactly")), st.sampled_from(pmons))
    terms = draw(st.dictionaries(exps.map(lambda t: t[0] + t[1]), st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=5))
    trials = draw(st.sampled_from([ctx.q**npar, 1 + ctx.q**npar // 3]))
    return ctx, ParametricFamily(MultiPoly(2 + npar, ZZ, terms), 2, npar), trials


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.one_of(binary_forms(), st.tuples(field_families(PRIME_FIELDS + EXTENSION_FIELDS, max_params=2),
                                           st.integers(1, 12)).map(lambda c: (*c[0], c[1]))),
       st.integers(0, 3), st.booleans(), SCAN_SIZES)
def test_member_table_matches_the_per_member_path(case, seed, classify_points, cells):
    ctx, fam, trials = case
    with mock.patch.object(hunt, "SCAN_CELLS", cells):
        got = hunt_members(fam, ctx, trials=trials, seed=seed, classify_points=classify_points)
        want = per_member_hunt(fam, ctx, trials, seed, classify_points)
    assert got == want
    assert [m.text() for m in got] == [parent_text(m) for m in want] == [m.text() for m in want]


def parent_text(member):
    """A member's report line as SingularMember.text made it before the
    lines were built from the member table's digits: every parameter and
    coordinate printed by str of its FieldElement."""
    params = "(" + ",".join(str(v) for v in member.params) + ")"
    pts = " ".join("(" + ":".join(str(c) for c in pt.coords) + ")" for pt in member.points)
    return f"{params} | {signature_string([pt.label for pt in member.points])} | {pts}"
