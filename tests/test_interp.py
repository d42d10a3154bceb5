import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from singhunt.errors import BudgetExceeded, IndexOutOfRange, InsufficientPoints, NotOnVariety, data_lines
from linalg_reference import in_row_span
from test_rng import fisher_yates
from singhunt.exactla import ExactMatrix, nullspace, rref
from singhunt.fields import field_create, parse_element, plane_matmul, to_planes, to_scalars
from singhunt.hunt import projective_points
from singhunt.interp import (
    COLUMN_CAP,
    PointSet,
    filter_isolated,
    oversampled_system,
    tangent_dim,
    vanishing_system,
)
from singhunt.poly import MultiPoly, monomial_basis, monomial_count, parse_poly
from singhunt.rng import split

F7 = field_create(7)
F11 = field_create(11)
F101 = field_create(101)

CONIC = parse_poly("x0^2 + x1*x2", 3).map_domain(F7)


def conic_points():
    return [pt for pt in projective_points(F7, 3) if CONIC.eval(pt).is_zero()]


def test_conic_has_q_plus_one_points():
    assert len(conic_points()) == 8


def test_vanishing_system_full_conic():
    system = vanishing_system(PointSet(F7, conic_points()), 2, homogeneous=True)
    assert system.dimension == 1
    f = system.polys()[0]
    # proportional to the conic: same support, matching ratios
    scale = None
    for m, c in CONIC.terms.items():
        got = f.terms.get(m)
        assert got is not None
        ratio = got / c
        scale = ratio if scale is None else scale
        assert ratio == scale


def test_vanishing_system_five_general_points():
    pts = [pt for i, pt in enumerate(projective_points(F11, 3)) if i in (3, 17, 31, 59, 88)]
    system = vanishing_system(PointSet(F11, pts), 2, homogeneous=True)
    assert system.dimension == 1


def test_vanishing_system_noncollinear_points_degree_one():
    pts = [(F7.element(0), F7.element(0)), (F7.element(1), F7.element(0)),
           (F7.element(0), F7.element(1))]
    system = vanishing_system(PointSet(F7, pts), 1, homogeneous=False)
    assert system.dimension == 0


def test_vanishing_system_soundness():
    rnd = random.Random(8)
    pts = [tuple(F11.element(rnd.randrange(11)) for _ in range(3)) for _ in range(12)]
    system = vanishing_system(PointSet(F11, pts), 2)
    for f in system.polys():
        for pt in pts:
            assert f.eval(list(pt)).is_zero()


@pytest.mark.parametrize("degree,homogeneous", [(1, False), (2, True), (2, False), (3, False)])
def test_vanishing_system_over_gf9_matches_element_rows(degree, homogeneous):
    F9 = field_create(3, 2)
    rnd = random.Random(degree)
    elems = list(F9.elements())
    pts = [tuple(rnd.choice(elems) for _ in range(3)) for _ in range(7)]
    pts += [(a, b, a * a + F9.gen() * b) for a, b in zip(elems, reversed(elems))]
    system = vanishing_system(PointSet(F9, pts), degree, homogeneous=homogeneous)
    rows = []
    for pt in PointSet(F9, pts).points:
        row = []
        for m in system.monomials:
            acc = F9.one()
            for v, e in zip(pt, m):
                acc = acc * v**e
            row.append(acc)
        rows.append(row)
    assert system.basis == nullspace(ExactMatrix.make(F9, rows))
    for f in system.polys():
        assert all(f.eval(list(pt)).is_zero() for pt in pts)


def test_rank_nullity_of_system():
    rnd = random.Random(9)
    pts = [tuple(F11.element(rnd.randrange(11)) for _ in range(2)) for _ in range(6)]
    ps = PointSet(F11, pts)
    system = vanishing_system(ps, 3)
    monos = monomial_basis(2, 3, "at-most")
    assert system.dimension >= len(monos) - len(ps.points)


def test_oversampled_matches_full_interpolation():
    system = oversampled_system(PointSet(F7, conic_points()), 2, slack=2,
                                homogeneous=True, draws=3, seed=1)
    assert system.dimension == 1
    full = vanishing_system(PointSet(F7, conic_points()), 2, homogeneous=True)
    assert in_row_span(system.basis, full.basis[0], F7)


def test_oversampled_stable_under_more_draws():
    ps = PointSet(F7, conic_points())
    spans = []
    for draws in (2, 3, 6):
        system = oversampled_system(ps, 2, slack=1, homogeneous=True,
                                    draws=draws, seed=5)
        spans.append(system.basis)
    assert all(len(b) == 1 for b in spans)
    assert in_row_span(spans[0], spans[1][0], F7)
    assert in_row_span(spans[1], spans[2][0], F7)


def test_oversampled_random_points_no_hypersurface():
    rnd = random.Random(10)
    pts = [tuple(F101.element(rnd.randrange(101)) for _ in range(2)) for _ in range(40)]
    system = oversampled_system(PointSet(F101, pts), 2, slack=3, seed=2)
    assert system.dimension == 0


def test_oversampled_single_point_degree_one():
    # all draws see one distinct point: rank-1 evaluation matrix
    ps = PointSet(F7, [(F7.element(2), F7.element(3))], dedup=False)
    with pytest.raises(InsufficientPoints):
        oversampled_system(ps, 1, slack=1)
    repeated = PointSet(F7, [(F7.element(2), F7.element(3))] * 8, dedup=False)
    system = oversampled_system(repeated, 1, slack=1, seed=0)
    assert system.dimension == 2  # nvars linear forms through one point


def test_column_cap_is_checked_before_any_monomial_is_listed():
    """The monomials of degree <= 150 in 3 variables (585,276 of them) are
    counted against the cap, never listed."""
    ps = PointSet(F7, conic_points())
    with mock.patch("singhunt.interp.monomial_basis", side_effect=AssertionError("listed")):
        with pytest.raises(BudgetExceeded, match=f"^585276 monomial columns exceed the cap {COLUMN_CAP}$"):
            vanishing_system(ps, 150)
        with pytest.raises(BudgetExceeded, match="^45451 monomial columns"):
            vanishing_system(ps, 300, homogeneous=True)
        with pytest.raises(InsufficientPoints, match=r"^need 585278 points \(\|monomials\| \+ slack\), have 8$"):
            oversampled_system(ps, 150, slack=2)
        for degree in (-1, -5):
            with pytest.raises(IndexOutOfRange, match="^need nvars >= 1 and degree >= 0$"):
                vanishing_system(ps, degree)


@pytest.mark.parametrize("homogeneous", [False, True])
def test_column_count_is_the_length_of_the_monomial_basis(homogeneous):
    """A vanishing system counts its columns with `monomial_count`, which
    raises the argument errors of `monomial_basis`."""
    mode = "exactly" if homogeneous else "at-most"
    for nvars in range(1, 5):
        for degree in range(7):
            assert monomial_count(nvars, degree, mode) == len(monomial_basis(nvars, degree, mode))
    for form in (monomial_basis, monomial_count):
        for nvars, degree in ((0, 2), (2, -1)):
            with pytest.raises(IndexOutOfRange, match="^need nvars >= 1 and degree >= 0$"):
                form(nvars, degree, mode)
        with pytest.raises(ValueError, match="^unknown mode 'total'$"):
            form(2, 2, "total")


def test_oversampled_rejects_no_draws_and_no_points():
    ps = PointSet(F7, conic_points())
    for draws in (0, -2):
        with pytest.raises(ValueError, match="draws must be >= 1"):
            oversampled_system(ps, 1, slack=2, draws=draws)
    with pytest.raises(InsufficientPoints, match="empty point set"):
        oversampled_system(PointSet(F7, []), 1, slack=1)


def span_intersection(B1, B2, ctx):
    """Basis of rowspan(B1) ∩ rowspan(B2) over a finite field, RREF-normalized."""
    if not B1 or not B2:
        return []
    P1, P2 = to_planes(ctx, B1), to_planes(ctx, B2)
    # columns: coefficients a (over B1 rows) and b (over B2 rows); solve B1^T a = B2^T b
    stacked = np.concatenate([P1, -P2 % ctx.p], axis=1).transpose(0, 2, 1)
    kernel = nullspace(ExactMatrix.from_planes(ctx, stacked))
    if not kernel:
        return []
    vectors = plane_matmul(ctx, to_planes(ctx, kernel)[:, :, : len(B1)], P1)
    vectors = vectors[:, vectors.any(axis=(0, 2))]
    R, pivots, _ = rref(ExactMatrix.from_planes(ctx, vectors))
    return to_scalars(ctx, R.planes[:, : len(pivots)])


def test_span_intersection():
    B1 = [[1, 0, 0], [0, 1, 0]]
    B2 = [[0, 1, 0], [0, 0, 1]]
    inter = span_intersection(B1, B2, F7)
    assert len(inter) == 1
    assert inter[0][0] == 0 and inter[0][2] == 0 and inter[0][1] != 0


def per_draw_basis(pts, degree, slack, homogeneous, draws, seed):
    """The reference for oversampled_system: one vanishing system per draw,
    intersected with the draws before it."""
    monomials = monomial_basis(len(pts.points[0]), degree, "exactly" if homogeneous else "at-most")
    need = len(monomials) + slack
    if len(pts.points) < need:
        raise InsufficientPoints(f"need {need} points (|monomials| + slack), have {len(pts.points)}")
    current = None
    for d in range(draws):
        sample = list(pts.points)
        fisher_yates(split(seed, d), sample)
        basis = vanishing_system(PointSet(pts.ctx, sample[:need], dedup=False), degree, homogeneous).basis
        current = basis if current is None else span_intersection(current, basis, pts.ctx)
        if not current:
            break
    return current


REFERENCE_FIELDS = [F7, F11, F101, field_create(3, 2), field_create(5, 2)]


@st.composite
def oversampled_cases(draw):
    """(points, degree, slack, homogeneous, draws, seed) over a random field,
    with about |monomials| + slack to 2(|monomials| + slack) distinct points:
    uniform, or on a random hyperplane x0 = a.x (so that every degree has a
    nonempty vanishing system) with at most two uniform points mixed in."""
    ctx = draw(st.sampled_from(REFERENCE_FIELDS))
    nvars, degree, homogeneous = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.booleans())
    slack, draws = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    need = len(monomial_basis(nvars, degree, "exactly" if homogeneous else "at-most")) + slack
    element = st.sampled_from(list(ctx.elements()))
    planted = nvars > 1 and draw(st.booleans())
    free = nvars - planted
    tails = draw(st.lists(st.tuples(*[element] * free), unique=True,
                          min_size=min(need, ctx.q**free), max_size=min(2 * need, ctx.q**free)))
    if planted:
        a = draw(st.tuples(*[element] * free))
        tails = [(sum((c * x for c, x in zip(a, t)), ctx.zero()),) + t for t in tails]
        tails += draw(st.lists(st.tuples(*[element] * nvars), max_size=2))
    return PointSet(ctx, tails), degree, slack, homogeneous, draws, draw(st.integers(0, 2**31))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(oversampled_cases())
def test_stacked_draws_match_the_per_draw_intersection(case):
    try:
        want = per_draw_basis(*case)
    except InsufficientPoints as exc:
        with pytest.raises(InsufficientPoints, match=re.escape(str(exc))):
            oversampled_system(*case)
        return
    system = oversampled_system(*case)
    assert system.basis == want
    ps, degree, _, homogeneous = case[:4]
    assert system.monomials == monomial_basis(len(ps.points[0]), degree,
                                              "exactly" if homogeneous else "at-most")


def test_oversampled_contained_in_full_system():
    rnd = random.Random(13)
    h = parse_poly("x0^2 + 3*x0*x1 + x1^2 + 5", 2).map_domain(F101)
    pts = []
    while len(pts) < 30:
        x = F101.element(rnd.randrange(101))
        for y in range(101):
            if h.eval([x, F101.element(y)]).is_zero():
                pts.append((x, F101.element(y)))
    ps = PointSet(F101, pts)
    full = vanishing_system(ps, 2)
    for s in (1, 2, 4):
        over = oversampled_system(ps, 2, slack=s, seed=3)
        for vec in over.basis:
            assert in_row_span(full.basis, vec, F101)


def test_planted_hypersurface_completeness():
    rnd = random.Random(0)
    hits = 0
    runs = 100
    monos = monomial_basis(3, 2, "at-most")
    for run in range(runs):
        seed = random.Random(run)
        coeffs = {m: seed.randint(0, 100) for m in monos}
        if all(v == 0 for v in coeffs.values()):
            coeffs[monos[1]] = 1
        h = MultiPoly(3, F101, coeffs)
        pts = []
        tries = 0
        while len(pts) < len(monos) + 2 and tries < 40000:
            pt = tuple(F101.element(seed.randrange(101)) for _ in range(3))
            tries += 1
            if h.eval(list(pt)).is_zero():
                pts.append(pt)
        if len(pts) < len(monos) + 2:
            continue
        system = vanishing_system(PointSet(F101, pts), 2)
        vec = [h.terms.get(m, 0) for m in system.monomials]
        if in_row_span(system.basis, vec, F101):
            hits += 1
    assert hits >= 99


def test_tangent_dim_examples():
    sm = parse_poly("x1 - x0^2", 2).map_domain(F7)
    origin = [F7.zero(), F7.zero()]
    assert tangent_dim([sm], origin) == 1

    node = parse_poly("x1^2 - x0^3 - x0^2", 2).map_domain(F7)
    assert tangent_dim([node], origin) == 2

    cut = [parse_poly("x0", 2).map_domain(F7), parse_poly("x1", 2).map_domain(F7)]
    assert tangent_dim(cut, origin) == 0

    with pytest.raises(NotOnVariety):
        tangent_dim([sm], [F7.one(), F7.element(2)])


def test_filter_isolated_line_union_point():
    # ideal (x0*(x0-2), x0*(x1-3)): the line x0=0 plus the point (2, 3)
    g1 = parse_poly("x0^2 - 2*x0", 2).map_domain(F7)
    g2 = parse_poly("x0*x1 - 3*x0", 2).map_domain(F7)
    line = [(F7.zero(), F7.element(y)) for y in range(7)]
    isolated = (F7.element(2), F7.element(3))
    ps = PointSet(F7, line + [isolated])
    kept = filter_isolated(ps, [g1, g2])
    assert isolated not in kept.points
    assert all(pt in kept.points for pt in line)


def test_filter_isolated_identity_on_smooth_curve():
    curve = parse_poly("x1 - x0^2", 2).map_domain(F7)
    pts = [(F7.element(x), F7.element(x * x % 7)) for x in range(7)]
    ps = PointSet(F7, pts)
    kept = filter_isolated(ps, [curve])
    assert kept.points == ps.points


def test_filter_isolated_empty_input():
    assert filter_isolated(PointSet(F7, []), []).points == []


# ---------------------------------------------------------------------------
# reading a point file: the residue-array read against the token-by-token
# parse that keeps the first occurrence of each point
# ---------------------------------------------------------------------------

def reference_points(ctx, text):
    seen, pts = set(), []
    for _, line in data_lines(text):
        pt = tuple(parse_element(ctx, tok) for tok in line.split())
        if tuple(v.coeffs for v in pt) not in seen:
            seen.add(tuple(v.coeffs for v in pt))
            pts.append(pt)
    return pts


TOKENS = st.one_of(st.integers(-300, 300).map(str),
                   st.sampled_from(["+5", "1_0", "-0", "007", "9223372036854775807", "-9223372036854775808",
                                    "9223372036854775808", str(2**70)]))


@settings(max_examples=150)
@given(st.sampled_from([2, 7, 101, 2147483629, 2**64 - 59]), st.integers(1, 3), st.data())
def test_point_files_read_as_the_token_by_token_parse(p, nvars, data):
    ctx = field_create(p)
    rows = data.draw(st.lists(st.lists(TOKENS, min_size=nvars, max_size=nvars), min_size=1, max_size=30))
    text = "# points\n" + "".join(" ".join(row) + ("  # c\n\n" if i % 4 == 1 else "\n")
                                  for i, row in enumerate(rows))
    ps = PointSet.from_text(ctx, text)
    want = reference_points(ctx, text)
    assert len(ps) == len(want) and ps.points == want
    assert ps.planes.shape == (1, len(want), nvars)
