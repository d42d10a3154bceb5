import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import lcm
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from linalg_reference import signature
from singhunt import godeaux, lattice
from singhunt.errors import DimensionMismatch, SinghuntError
from singhunt.exactla import QQ, ExactMatrix, determinant, is_negative_definite, rref, solve
from singhunt.lattice import (
    CurveSolution,
    CurveTemplate,
    DivisorClass,
    GramLattice,
    SurfaceInvariants,
    b2,
    canonical_relation,
    format_lattice,
    godeaux_fixture,
    parse_lattice,
    search_relations,
    solve_curve_intersections,
)
from singhunt.rng import below_rows, split

L9 = godeaux_fixture()
EXT = godeaux.extended_lattice()


def test_fixture_entries():
    assert L9.entry("N3", "N4") == 1
    assert L9.entry("N5", "N6") == 0
    assert L9.entry("K", "K") == 1
    assert all(L9.entry(f"N{i}", f"N{i}") == -2 for i in range(1, 9))
    assert all(L9.entry(f"N{i}", "K") == 0 for i in range(1, 9))


def test_fixture_rank_and_radical():
    assert L9.rank() == 9
    assert L9.radical() == []


@pytest.mark.parametrize("names, gram", [
    (EXT.names, EXT.gram),
    (["a", "b", "K"], [[0, 0, 0], [0, -2, 1], [0, 1, 1]]),
    (["a", "b"], [[Fraction(1, 2), 1], [1, 2]]),
])
def test_rank_and_radical_share_one_elimination(names, gram):
    """rank() is read from the cached radical: one rref per lattice, however
    often and in whatever order the two are asked for."""
    from singhunt import exactla

    L = GramLattice(names, gram)
    calls = []
    with mock.patch.object(exactla, "rref", lambda A: calls.append(A) or rref(A)):
        rank, rad, again = L.rank(), L.radical(), L.rank()
    assert len(calls) == 1
    assert rank == again == sympy.Matrix(gram).rank()
    assert len(rad) == len(names) - rank
    assert all(L.in_radical(DivisorClass(tuple(v))) for v in rad)
    rad.append([0] * len(names))  # the cache is not the caller's list
    assert L.rank() == rank and len(L.radical()) == len(names) - rank


def test_fixture_signature():
    """The Hodge index theorem: the Gram matrix of the nine classes has
    signature (1, 8), and the eight (-2)-curves span a negative definite block."""
    assert signature(L9.matrix().data) == (1, 8, 0)
    assert is_negative_definite(L9.restrict([f"N{i}" for i in range(1, 9)]).matrix())
    assert not is_negative_definite(L9.matrix())


def test_b2_examples():
    assert b2(SurfaceInvariants(1, 1, 0)) == 9
    assert b2(SurfaceInvariants(1, 8, 0)) == 2
    assert b2(SurfaceInvariants(1, 2, 0)) == 8
    assert b2(SurfaceInvariants(2, 2, 0)) == 20


def test_b2_symbolic_property():
    rnd = random.Random(44)
    for _ in range(100):
        chi = rnd.randint(-3, 5)
        K2 = rnd.randint(-10, 10)
        q = rnd.randint(0, 4)
        pg = chi - 1 + q
        inv = SurfaceInvariants(chi, K2, q, pg)
        # Noether: e = 12 chi - K^2, then b2 = e - 2 + 4q
        e = 12 * chi - K2
        assert b2(inv) == e - 2 + 4 * q


def test_surface_invariants_consistency():
    with pytest.raises(ValueError):
        SurfaceInvariants(1, 1, 0, pg=3)


def test_extend_with_curve_examples():
    ext = L9.extend_with_curve("C'", godeaux.C_PAIRINGS, godeaux.C_SELF)
    rad = ext.radical()
    assert len(rad) == 1
    rel = canonical_relation(rad[0], ext.index("K"))
    assert rel == (-2, 0, -1, -2, -3, -3, -2, -1, 8, -4)

    zero = L9.extend_with_curve("Z", [0] * 9, 0)
    assert zero.rank() == 9
    assert len(zero.radical()) == 1
    assert tuple(zero.radical()[0]) == (0,) * 9 + (1,)

    copy_k = L9.extend_with_curve("K2", [L9.entry("K", nm) for nm in L9.names], 1)
    rad = copy_k.radical()
    assert len(rad) == 1
    assert tuple(rad[0]) in {(0,) * 8 + (1, -1), (0,) * 8 + (-1, 1)}


def test_extended_lattice_radical_is_both_relations():
    rad = EXT.radical()
    assert EXT.rank() == 9 and len(rad) == 2
    relC = EXT.combo({nm: c for nm, c in zip(EXT.names, godeaux.RELATION_C)})
    relD = EXT.combo({nm: c for nm, c in zip(EXT.names, godeaux.RELATION_D)})
    assert EXT.in_radical(relC) and EXT.in_radical(relD)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=11, max_size=11), st.sampled_from([0, 1, 2]))
def test_in_radical_matches_pairing_definition(coeffs, plant):
    # plant = 1, 2: a multiple of the C' relation, which lies in the radical
    if plant:
        coeffs = [c * plant for c in godeaux.RELATION_C]
    v = EXT.combo(dict(zip(EXT.names, coeffs)))
    want = all(EXT.pairing(v, EXT.basis_class(nm)) == 0 for nm in EXT.names)
    assert EXT.in_radical(v) == want
    if plant:
        assert want


def test_in_radical_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        L9.in_radical(EXT.basis_class("K"))


def test_pairing_examples():
    K = EXT.basis_class("K")
    C = EXT.basis_class("C'")
    D = EXT.basis_class("D'")
    assert EXT.pairing(K, K) == 1
    assert EXT.pairing(C, D) == 3
    L5 = EXT.combo({"K": 2, "C'": -1})
    assert EXT.pairing(L5, L5) == -2  # 4*1 - 4*2 + 2
    assert EXT.pairing(L5, K) == 0


def test_adjunction_parity_of_fixture():
    assert L9.is_adjunction_even("K")
    assert EXT.is_adjunction_even("K")


def test_search_relations_finds_divisibility():
    bounds = {f"N{i}": (0, 1) for i in range(1, 9)}
    bounds["K"] = (0, 4)
    hits = search_relations(L9, bounds, self_bounds=(-2, 4))
    eq1 = (-2, 0, -1, -2, -3, -3, -2, -1, 8, -4)
    matching = [h for h in hits if eq1 in h.relations]
    assert len(matching) == 1
    hit = matching[0]
    assert hit.pairings == (1, 0, 0, 0, 1, 1, 0, 0, 2)
    assert hit.self_int == 2


def test_search_relations_zero_bounds():
    bounds = {nm: (0, 0) for nm in L9.names}
    hits = search_relations(L9, bounds, self_bounds=(0, 0))
    assert len(hits) == 1
    assert hits[0].relations == ((0, 0, 0, 0, 0, 0, 0, 0, 0, 1),)


def test_search_relations_matches_determinant_scan():
    """Oracle: a degenerate extension is exactly one with det = 0."""
    small = GramLattice(["a", "b", "K"], [[2, 1, 0], [1, 2, 1], [0, 1, 1]])
    bounds = {"a": (0, 1), "b": (0, 1), "K": (0, 1)}
    hits = search_relations(small, bounds, self_bounds=(-2, 2))
    expected = set()
    for va, vb, vk, s in product((0, 1), (0, 1), (0, 1), range(-2, 3)):
        ext = small.extend_with_curve("X", [va, vb, vk], s)
        if determinant(ext.matrix()) == 0:
            expected.add(((va, vb, vk), s))
    assert {(h.pairings, h.self_int) for h in hits} == expected


def scalar_sampled_boxes(ranges, seed, trials):
    """The per-trial box draw that the sampled search replaced."""
    seen = set()
    for t in range(trials):
        rng = split(seed, t)
        vec = tuple(r[rng.below(len(r))] for r in ranges)
        if vec not in seen:
            seen.add(vec)
            yield vec


DEGENERATE = GramLattice(["a", "b", "K"], [[0, 0, 0], [0, -2, 1], [0, 1, 1]])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-2, 1), st.integers(0, 3)), min_size=3, max_size=3),
    st.tuples(st.integers(-3, 0), st.integers(0, 3)),
    st.integers(0, 2**64),
    st.integers(0, 300),
)
def test_sampled_search_tests_the_scalar_boxes_in_order(spans, self_span, seed, trials):
    # a degenerate base skips the Schur-complement filter, so every drawn box
    # is extended, in draw order
    bounds = {nm: (lo, lo + w) for nm, (lo, w) in zip(DEGENERATE.names, spans)}
    self_bounds = (self_span[0], self_span[0] + self_span[1])
    ranges = [range(lo, hi + 1) for lo, hi in bounds.values()]
    ranges.append(range(self_bounds[0], self_bounds[1] + 1))
    extend = GramLattice.extend_with_curve
    with mock.patch.object(GramLattice, "extend_with_curve", autospec=True,
                           side_effect=extend) as spy:
        search_relations(DEGENERATE, bounds, self_bounds, seed=seed, trials=trials,
                         exhaustive_limit=0)
    tested = [tuple(c.args[2]) + (c.args[3],) for c in spy.call_args_list]
    assert tested == list(scalar_sampled_boxes(ranges, seed, trials))


def inverse_fractions(L):
    """M^-1 as Fraction rows, from the integer rows A = D*M^-1 of the search."""
    A, D = lattice._inverse_rows(L)
    return [[Fraction(a, D) for a in row] for row in A]


def scalar_search_relations(L, bounds, self_bounds=(-2, 8), seed=0, trials=10_000,
                            exhaustive_limit=100_000, curve_name="C", k_name="K"):
    """The per-box loop that the block search replaced: a Fraction Schur test
    for a nondegenerate base, then the radical of every surviving extension."""
    ranges = [range(lo, hi + 1) for lo, hi in (bounds.get(nm, (0, 0)) for nm in L.names)]
    ranges.append(range(self_bounds[0], self_bounds[1] + 1))
    box = 1
    for r in ranges:
        box *= len(r)
    if box <= exhaustive_limit:
        candidates = product(*ranges)
    else:
        candidates = scalar_sampled_boxes(ranges, seed, trials)
    k_index = L.index(k_name) if k_name in L.names else None
    inv_rows = inverse_fractions(L) if determinant(L.matrix()) != 0 else None
    hits = []
    for vec in candidates:
        pairings, self_int = vec[:-1], vec[-1]
        if inv_rows is not None:
            quad = Fraction(0)
            for i, vi in enumerate(pairings):
                if vi:
                    row = inv_rows[i]
                    quad += vi * sum(row[j] * pairings[j] for j in range(L.size) if pairings[j])
            if quad != self_int:
                continue
        rad = L.extend_with_curve(curve_name, pairings, self_int).radical()
        if rad:
            rels = tuple(sorted(canonical_relation(v, k_index) for v in rad))
            hits.append(lattice.RelationHit(pairings, self_int, rels))
    hits.sort(key=lambda h: (h.pairings, h.self_int))
    return hits


@st.composite
def gram_lattices(draw, max_entry=3):
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-max_entry, max_entry))
    if draw(st.booleans()):  # a repeated class makes the base degenerate
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        gram[j] = gram[i][:]
        for row in gram:
            row[j] = row[i]
    names = [f"E{i}" for i in range(n - 1)] + [draw(st.sampled_from(["K", "E9"]))]
    return GramLattice(names, gram)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    gram_lattices(),
    st.lists(st.tuples(st.integers(-3, 2), st.integers(0, 3)), min_size=4, max_size=4),
    st.tuples(st.integers(-6, 2), st.integers(0, 8)),
    st.booleans(),
    st.integers(0, 2**64),
    st.integers(0, 200),
    st.sampled_from([1, 2, 3, lattice.SEARCH_ROWS]),
)
def test_search_relations_matches_scalar_loop(L, spans, self_span, sampled, seed, trials, rows):
    bounds = {nm: (lo, lo + w) for nm, (lo, w) in zip(L.names, spans)}
    self_bounds = (self_span[0], self_span[0] + self_span[1])
    limit = 0 if sampled else 100_000
    want = scalar_search_relations(L, bounds, self_bounds, seed, trials, limit)
    with mock.patch.object(lattice, "SEARCH_ROWS", rows):
        got = search_relations(L, bounds, self_bounds, seed, trials, limit)
    assert got == want


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    gram_lattices(max_entry=2**20).filter(lambda L: determinant(L.matrix()) != 0),
    st.lists(st.integers(2**36, 2**40) | st.integers(-2**40, -2**36), min_size=4, max_size=4),
    st.booleans(),
    st.sampled_from([1, 3, lattice.SEARCH_ROWS]),
)
def test_search_relations_python_int_path(L, centre, sampled, rows):
    # pairings det*w make M^-1 v integral, so the box around (v, v^T M^-1 v)
    # holds a hit; |v|^2 >= 2^72 is past what int64 products can hold
    det = int(determinant(L.matrix()))
    v = [det * w for w in centre[:L.size]]
    inv = inverse_fractions(L)
    s = sum(v[i] * inv[i][j] * v[j] for i in range(L.size) for j in range(L.size))
    assert s.denominator == 1
    bounds = {nm: (x, x + 1) for nm, x in zip(L.names, v)}
    self_bounds = (int(s) - 1, int(s) + 1)
    limit = 0 if sampled else 100_000
    want = scalar_search_relations(L, bounds, self_bounds, trials=40, exhaustive_limit=limit)
    with mock.patch.object(lattice, "SEARCH_ROWS", rows):
        got = search_relations(L, bounds, self_bounds, trials=40, exhaustive_limit=limit)
    assert got == want
    if not sampled:
        assert (tuple(v), int(s)) in {(h.pairings, h.self_int) for h in got}


@pytest.mark.parametrize("gram, bounds, self_bounds", [
    ([[2**70 + 1]], {"K": (0, 0)}, (0, 0)),  # D alone is past int64
    ([[2**66, 1], [1, 0]], {"a": (0, 0), "K": (0, 0)}, (-1, 1)),  # so is A
])
def test_search_relations_huge_gram_entries(gram, bounds, self_bounds):
    L = GramLattice(list(bounds), gram)
    want = scalar_search_relations(L, bounds, self_bounds)
    assert want and search_relations(L, bounds, self_bounds) == want


def test_search_relations_relation_spans_the_radical():
    bounds = {f"N{i}": (0, 1) for i in range(1, 9)}
    bounds["K"] = (0, 4)
    hits = search_relations(L9, bounds, self_bounds=(-2, 4))
    assert len(hits) == 118
    for h in hits:
        ext = L9.extend_with_curve("C", h.pairings, h.self_int)
        assert h.relations == tuple(canonical_relation(v, 8) for v in ext.radical())


def test_sampled_search_memory_is_bounded_by_the_block():
    class Stop(Exception):
        pass

    seen = []

    def spy(seed, index, moduli):
        seen.append(len(index))
        if len(seen) == 5:
            raise Stop
        return lattice.below_rows(seed, index, moduli)

    bounds = {f"N{i}": (0, 2) for i in range(1, 9)}
    bounds["K"] = (0, 4)
    with mock.patch.object(lattice, "SEARCH_ROWS", 3), \
            mock.patch.object(lattice, "below_rows", side_effect=spy):
        with pytest.raises(Stop):
            search_relations(L9, bounds, (-2, 4), seed=5, trials=10**8, exhaustive_limit=10)
    assert seen == [3] * 5


def test_search_relations_seeded_sampling_deterministic():
    bounds = {f"N{i}": (0, 3) for i in range(1, 9)}
    bounds["K"] = (0, 8)
    a = search_relations(L9, bounds, self_bounds=(-2, 8), seed=7, trials=2000,
                         exhaustive_limit=10)
    b = search_relations(L9, bounds, self_bounds=(-2, 8), seed=7, trials=2000,
                         exhaustive_limit=10)
    assert a == b


class NoSolution(SinghuntError):
    pass


class MultipleSolutions(SinghuntError):
    pass


def unique_curve_solution(solutions: list[CurveSolution]) -> CurveSolution:
    """The one solution of a template, as the paper's C' and D' have; a
    reference for these tests."""
    if not solutions:
        raise NoSolution("no intersection assignment satisfies the template")
    if len(solutions) > 1:
        raise MultipleSolutions(f"{len(solutions)} assignments satisfy the template")
    return solutions[0]


def test_solve_curve_intersections_c_relation():
    sols = solve_curve_intersections(
        L9, godeaux.C_TEMPLATE, godeaux.C_CONSTRAINTS, contact=godeaux.C_CONTACTS
    )
    sol = unique_curve_solution(sols)
    assert dict(sol.multiplicities) == godeaux.C_MULTIPLICITIES
    assert sol.pairings == godeaux.C_PAIRINGS
    assert sol.self_int == 2
    assert sol.relation == (-2, 0, -1, -2, -3, -3, -2, -1, 8, -4)


def test_solve_curve_intersections_d_relation():
    sols = solve_curve_intersections(
        L9, godeaux.D_TEMPLATE, godeaux.D_CONSTRAINTS, contact=godeaux.D_CONTACTS
    )
    sol = unique_curve_solution(sols)
    assert dict(sol.multiplicities) == godeaux.D_MULTIPLICITIES
    assert sol.pairings == godeaux.D_PAIRINGS
    assert sol.self_int == 2
    assert sol.relation == (-1, -1, 0, 0, 0, -1, -2, -1, 4, -2)


def test_solve_without_orientation_pins_gives_flip_orbit():
    """The two chains can each be relabeled end-for-end; without pinning an
    end the solver must report exactly the four equivalent labelings."""
    cons = {"N1": (1,), "N2": (0,)}
    for i in range(3, 9):
        cons[f"N{i}"] = (0, 1)
    sols = solve_curve_intersections(
        L9, godeaux.C_TEMPLATE, cons, contact=godeaux.C_CONTACTS
    )
    assert len(sols) == 4
    assert all(s.self_int == 2 for s in sols)
    mults = {tuple(sorted(dict(s.multiplicities).items())) for s in sols}
    assert tuple(sorted(godeaux.C_MULTIPLICITIES.items())) in mults
    with pytest.raises(MultipleSolutions):
        unique_curve_solution(sols)


def test_solve_with_bare_pair_constraints():
    """With only C'N_i in {0,1} (positivity, integrality, parity) the
    numeric problem genuinely has 16 assignments; the relation alone does
    not determine the intersection data."""
    cons = {f"N{i}": (0, 1) for i in range(1, 9)}
    sols = solve_curve_intersections(L9, godeaux.C_TEMPLATE, cons)
    assert len(sols) == 16
    assert {s.self_int for s in sols} == {-2, 0, 2}
    best = [s for s in sols if s.pairings == godeaux.C_PAIRINGS]
    assert len(best) == 1 and dict(best[0].multiplicities) == godeaux.C_MULTIPLICITIES


def test_solve_d_with_bare_pair_constraints():
    cons = {f"N{i}": (0, 1) for i in range(1, 9)}
    sols = solve_curve_intersections(L9, godeaux.D_TEMPLATE, cons)
    assert [(dict(s.multiplicities), s.self_int) for s in sols] == [
        ({"N1": 1, "N2": 1, "N6": 1, "N7": 2, "N8": 1}, 2),
        ({"N1": 1, "N2": 1, "N6": 3, "N7": 4, "N8": 3}, -2),
    ]


def test_solve_inconsistent_template():
    bad = CurveTemplate.make({"K": 3}, 2, "D'", ["N1"])
    sols = solve_curve_intersections(L9, bad, {f"N{i}": (0, 1) for i in range(1, 9)})
    assert sols == []
    with pytest.raises(NoSolution):
        unique_curve_solution(sols)


def test_solve_without_constraints_pins_nothing():
    # no pairing is fixed, so no multiplicity is forced
    assert solve_curve_intersections(L9, godeaux.C_TEMPLATE, {}) == []


@pytest.mark.parametrize("constraints", [
    godeaux.C_CONSTRAINTS,
    {**godeaux.C_CONSTRAINTS, "N2": (5,)},  # no choice survives the filters
], ids=["solutions", "no-solution"])
def test_curve_named_like_a_class_is_rejected(constraints):
    template = dataclasses.replace(godeaux.C_TEMPLATE, curve_name="N2")
    with pytest.raises(ValueError, match="duplicate class names"):
        solve_curve_intersections(L9, template, constraints, contact=godeaux.C_CONTACTS)


def test_solutions_lie_in_extended_radical():
    sols = solve_curve_intersections(
        L9, godeaux.C_TEMPLATE, godeaux.C_CONSTRAINTS, contact=godeaux.C_CONTACTS
    )
    for sol in sols:
        ext = L9.extend_with_curve("C'", sol.pairings, sol.self_int)
        vec = ext.combo({nm: c for nm, c in zip(ext.names, sol.relation)})
        assert ext.in_radical(vec)


def test_lattice_text_round_trip():
    text = format_lattice(EXT)
    again = parse_lattice(text)
    assert again.names == EXT.names
    assert again.gram == EXT.gram


def test_combo_and_pairing_bilinear():
    rnd = random.Random(3)
    for _ in range(20):
        u = EXT.combo({nm: rnd.randint(-3, 3) for nm in EXT.names})
        v = EXT.combo({nm: rnd.randint(-3, 3) for nm in EXT.names})
        w = EXT.combo({nm: rnd.randint(-3, 3) for nm in EXT.names})
        assert EXT.pairing(u, v) == EXT.pairing(v, u)
        assert EXT.pairing(u + w, v) == EXT.pairing(u, v) + EXT.pairing(w, v)
        s = Fraction(rnd.randint(-5, 5))
        assert EXT.pairing(u.scale(s), v) == s * EXT.pairing(u, v)


# ---------------------------------------------------------------------------
# exact types: ints wherever a value is integral, Fractions only where it is
# not, and never a float
# ---------------------------------------------------------------------------

def test_integral_lattices_compute_in_ints():
    assert {type(v) for row in EXT.gram for v in row} == {int}
    data = godeaux.cover_data(EXT)
    classes = [EXT.basis_class(nm) for nm in EXT.names] + list(data.L.values())
    assert {type(c) for cls in classes for c in cls.coeffs} == {int}
    assert {type(EXT.pairing(u, v)) for u in classes for v in classes} == {int}
    for template, constraints, contacts in [
        (godeaux.C_TEMPLATE, godeaux.C_CONSTRAINTS, godeaux.C_CONTACTS),
        (godeaux.D_TEMPLATE, godeaux.D_CONSTRAINTS, godeaux.D_CONTACTS),
    ]:
        (sol,) = solve_curve_intersections(L9, template, constraints, contact=contacts)
        values = [m for _, m in sol.multiplicities] + [*sol.pairings, sol.self_int, *sol.relation]
        assert {type(v) for v in values} == {int}


def test_rational_lattices_mix_ints_and_fractions():
    L = GramLattice(["A", "B"], [[Fraction(1, 2), Fraction(2, 2)], [1, "-3/2"]])
    assert L.gram == [[Fraction(1, 2), 1], [1, Fraction(-3, 2)]]
    assert [type(v) for row in L.gram for v in row] == [Fraction, int, int, Fraction]
    u = L.combo({"A": Fraction(1, 2), "B": 2})
    assert [type(c) for c in u.coeffs] == [Fraction, int]
    assert L.pairing(u, u) == Fraction(1, 8) + 2 - 6 and type(L.pairing(u, u)) is Fraction
    A = L.basis_class("A")
    assert L.pairing(A, A.scale(2)) == 1 and type(L.pairing(A, A.scale(2))) is int
    for cls in (u.scale(2), u + u, u - u, L.combo({"A": Fraction(4, 2)})):
        assert {type(c) for c in cls.coeffs} == {int}
    assert (u + u).coeffs == (1, 4) and (u - u).coeffs == (0, 0)
    ext = L.extend_with_curve("C", [Fraction(3, 3), "1/3"], 2)
    assert [type(v) for v in ext.gram[-1]] == [int, Fraction, int]


def test_solve_rejects_a_non_integral_derived_pairing():
    """K = 2X (+ 0 N1): pairing with K asks for 2 X.K = K^2 = 1, so X.K would
    be 1/2; the assignment is rejected, not truncated and not a crash."""
    template = CurveTemplate.make({"K": 1}, 2, "X", ["N1"])
    assert solve_curve_intersections(L9, template, {"N1": (0,)}, require_positive=False) == []
    # 2K = 2X has the integral solution X.K = X^2 = 1
    template = CurveTemplate.make({"K": 2}, 2, "X", ["N1"])
    (sol,) = solve_curve_intersections(L9, template, {"N1": (0,)}, require_positive=False)
    assert sol.pairings == (0,) * 8 + (1,) and sol.self_int == 1
    assert type(sol.pairings[-1]) is int


def test_degenerate_search_on_a_lattice_with_a_class_named_like_the_curve():
    """The appended curve takes a fresh name; the result does not depend on it."""
    hits = search_relations(GramLattice(["C", "K"], [[0, 0], [0, 1]]), {"C": (0, 1)})
    assert hits == search_relations(GramLattice(["E", "K"], [[0, 0], [0, 1]]), {"E": (0, 1)})
    assert len(hits) == 11  # C.C' = 0, C'.K = 0, every C'^2 in -2..8


# ---------------------------------------------------------------------------
# the paths that one elimination per call and one product per block
# replaced: a solve per pairing choice with the relation tested on an
# extended GramLattice, and one canonical_relation per search hit
# ---------------------------------------------------------------------------

def sum_in_radical(L, coeffs):
    terms = [(c, L.gram[i]) for i, c in enumerate(coeffs) if c]
    return all(sum(c * row[j] for c, row in terms) == 0 for j in range(L.size))


def sum_pairing(L, u, v):
    acc = sum(a * b * L.gram[i][j] for i, a in enumerate(u) for j, b in enumerate(v))
    return acc.numerator if Fraction(acc).denominator == 1 else acc


def per_choice_solve_curve_intersections(L, template, constraints, contact=(), self_constraint=None,
                                         require_positive=True, k_name="K"):
    names = L.names
    assigned = [nm for nm in names if nm in constraints]
    derived = [nm for nm in names if nm not in constraints]
    support = list(template.support)
    lhs_vec = L.combo(dict(template.lhs))
    c = template.curve_mult
    parity = L.is_adjunction_even(k_name) if k_name in names else False
    k_pos = L.index(k_name) if k_name in names else None
    gram_row = {nm: L.gram[L.index(nm)] for nm in names}
    lhs_pair = {nm: sum_pairing(L, lhs_vec.coeffs, L.basis_class(nm).coeffs) for nm in names}
    choice_sets = [sorted(set(int(v) for v in constraints[nm])) for nm in assigned]
    solutions = []
    for choice in product(*choice_sets):
        pair_val = dict(zip(assigned, choice))
        if any(all(g in pair_val for g in group) and sum(pair_val[g] for g in group) != total
               for group, total in contact):
            continue
        rows = [[gram_row[nm][L.index(s)] for s in support] for nm in assigned]
        rhs = [lhs_pair[nm] - c * pair_val[nm] for nm in assigned]
        sol, kernel = solve(ExactMatrix.make(QQ, rows, len(support)), rhs)
        if sol is None or kernel:
            continue
        if any(v.denominator != 1 or v < (1 if require_positive else 0) for v in sol):
            continue
        mults = {s: int(v) for s, v in zip(support, sol)}
        ok = True
        for nm in derived:
            val = Fraction(lhs_pair[nm] - sum(mults[s] * gram_row[nm][L.index(s)] for s in support), c)
            if val.denominator != 1:
                ok = False
                break
            pair_val[nm] = int(val)
        if not ok or any(sum(pair_val[g] for g in group) != total for group, total in contact):
            continue
        num = sum(coef * pair_val[nm] for nm, coef in template.lhs) - sum(
            mults[s] * pair_val[s] for s in support)
        self_val = Fraction(num, c)
        if self_val.denominator != 1:
            continue
        self_int = int(self_val)
        if parity and k_pos is not None and (self_int + pair_val[k_name]) % 2 != 0:
            continue
        if self_constraint is not None and self_int not in set(self_constraint):
            continue
        pair_seq = [pair_val[nm] for nm in names]
        ext = L.extend_with_curve(template.curve_name, pair_seq, self_int)
        rel = [0] * ext.size
        for nm, coef in template.lhs:
            rel[ext.index(nm)] += coef
        rel[ext.index(template.curve_name)] -= c
        for s, m in mults.items():
            rel[ext.index(s)] -= m
        if not sum_in_radical(ext, rel):
            continue
        solutions.append(lattice.CurveSolution(tuple((s, mults[s]) for s in support), tuple(pair_seq),
                                               self_int, canonical_relation(rel, k_pos)))
    solutions.sort(key=lambda s: (s.pairings, s.self_int))
    return solutions


@st.composite
def planted_solve_cases(draw):
    """A lattice N1.. K (integral, or over 1/2 or 1/3) and a template
    c*X = a*K - sum m_s N_s whose curve X has the pairings p that this
    relation forces; the value sets of the constraints hold the integral
    ones among other values."""
    n = draw(st.integers(2, 5))
    names = [f"N{i}" for i in range(1, n)] + ["K"]
    scale = draw(st.sampled_from([1, 1, Fraction(1, 2), Fraction(1, 3)]))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = scale * draw(st.integers(-3, 3))
    L = GramLattice(names, gram)
    c = draw(st.sampled_from([1, 2, 3]))
    support = draw(st.lists(st.sampled_from(names[:-1]), min_size=1, max_size=n - 1, unique=True))
    mults = {s: c * draw(st.integers(1, 2)) for s in support}
    a = c * draw(st.integers(1, 4))
    template = CurveTemplate.make({"K": a}, c, "X", support)
    p = [(a * L.gram[-1][j] - sum(m * L.gram[names.index(s)][j] for s, m in mults.items())) / c
         for j in range(n)]
    assigned = set(support) | set(draw(st.lists(st.sampled_from(names), max_size=2)))
    constraints = {}
    for nm in assigned:
        planted = {int(p[names.index(nm)])} if draw(st.integers(0, 4)) else set()
        constraints[nm] = tuple(planted | set(draw(st.lists(st.integers(-1, 2), max_size=2))))
    contact = []
    for _ in range(draw(st.integers(0, 2))):
        group = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)))
        contact.append((group, draw(st.integers(-1, 3))))
    self_c = draw(st.none() | st.sets(st.integers(-6, 6), max_size=4))
    return L, template, constraints, tuple(contact), self_c, draw(st.booleans())


def test_solve_matches_the_per_choice_solve():
    """One elimination per call against a solve per pairing choice: the same
    solutions (repr, so types too), or the same exception and message."""
    seen = set()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(planted_solve_cases())
    def run(case):
        L, template, constraints, contact, self_c, positive = case
        args = (L, template, constraints, contact, self_c, positive)
        got = outcome(solve_curve_intersections, *args)
        assert repr(got) == repr(outcome(per_choice_solve_curve_intersections, *args))
        seen.add(bool(got) if isinstance(got, list) else got[0])

    run()
    assert seen == {True, False}


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, KeyError, ZeroDivisionError, DimensionMismatch) as exc:
        return type(exc), str(exc)


def per_hit_search_relations(L, bounds, self_bounds=(-2, 8), seed=0, trials=10_000,
                             exhaustive_limit=100_000, k_name="K"):
    """The nondegenerate block search with unravel_index boxes and one
    canonical_relation per hit."""
    ranges = [range(lo, hi + 1) for lo, hi in (bounds.get(nm, (0, 0)) for nm in L.names)]
    ranges.append(range(self_bounds[0], self_bounds[1] + 1))
    shape = [len(r) for r in ranges]
    total = 1
    for m in shape:
        total *= m
    draws = None if total <= exhaustive_limit else trials
    k_index = L.index(k_name) if k_name in L.names else None
    inverse = sympy.Matrix(L.gram).inv()
    D = lcm(*(sympy.fraction(x)[1] for x in inverse))
    A = np.array([[int(x * D) for x in inverse.row(i)] for i in range(L.size)], dtype=object)
    A = A.reshape(L.size, L.size)
    D = int(D)
    starts = np.array([r.start for r in ranges], dtype=object)
    found = {}
    count = total if draws is None else draws
    for lo in range(0, count, 1000):
        index = np.arange(lo, min(lo + 1000, count))
        if draws is None:
            offsets = np.stack(np.unravel_index(index, shape), axis=1)
        else:
            offsets = below_rows(seed, index, shape)
        block = offsets.astype(object) + starts
        V = block[:, :-1]
        VA = V @ A
        for r in np.flatnonzero(np.einsum("ij,ij->i", VA, V) == D * block[:, -1]).tolist():
            found[tuple(block[r].tolist())] = canonical_relation(VA[r].tolist() + [-D], k_index)
    hits = [lattice.RelationHit(vec[:-1], vec[-1], (rel,)) for vec, rel in found.items()]
    hits.sort(key=lambda h: (h.pairings, h.self_int))
    return hits


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.one_of(gram_lattices(), gram_lattices(max_entry=2**66)).filter(
        lambda L: determinant(L.matrix()) != 0),
    st.sampled_from([1, 1, Fraction(1, 2), Fraction(1, 3)]),
    st.lists(st.tuples(st.integers(-3, 2), st.integers(0, 3)), min_size=4, max_size=4),
    st.tuples(st.integers(-6, 2), st.integers(0, 8)),
    st.booleans(),
    st.integers(0, 2**64),
)
def test_search_relations_matches_the_per_hit_loop(L, scale, spans, self_span, sampled, seed):
    """Integral, rational (over 1/2 and 1/3) and huge nondegenerate lattices,
    with M^-1 from sympy."""
    L = GramLattice(L.names, [[scale * x for x in row] for row in L.gram])
    bounds = {nm: (lo, lo + w) for nm, (lo, w) in zip(L.names, spans)}
    self_bounds = (self_span[0], self_span[0] + self_span[1])
    limit = 0 if sampled else 100_000
    want = per_hit_search_relations(L, bounds, self_bounds, seed, 150, limit)
    assert search_relations(L, bounds, self_bounds, seed, 150, limit) == want


@pytest.mark.parametrize("scale", [1, Fraction(1, 2)])
@pytest.mark.parametrize("box, trials", [((0, 1), 0), ((0, 2), 2000)])
def test_fixture_search_matches_the_per_hit_loop(scale, box, trials):
    """On the fixture, whose relations have a negative first entry and a
    positive K entry, exhaustive and sampled."""
    L = GramLattice(L9.names, [[scale * x for x in row] for row in L9.gram])
    bounds = {f"N{i}": box for i in range(1, 9)}
    bounds["K"] = (0, 4)
    limit = 0 if trials else 100_000
    want = per_hit_search_relations(L, bounds, (-2, 4), 5, trials, limit)
    assert search_relations(L, bounds, (-2, 4), 5, trials, limit) == want
    assert any(h.relations[0][8] > 0 > h.relations[0][0] for h in want)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2**66, 2**66) | st.integers(-3, 3), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.sampled_from([1, Fraction(1, 2), Fraction(2, 3)]),
    st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n),
    st.lists(st.integers(-3, 3) | st.integers(2**62, 2**66), min_size=n, max_size=n),
)))
def test_pairing_and_radical_test_match_the_gram_sums(case):
    rows, scale, u, v = case
    n = len(rows)
    gram = [[scale * (rows[i][j] + rows[j][i]) for j in range(n)] for i in range(n)]
    L = GramLattice([f"E{i}" for i in range(n)], gram)
    U, V = L.combo(dict(zip(L.names, u))), L.combo(dict(zip(L.names, v)))
    assert L.pairing(U, V) == sum_pairing(L, U.coeffs, V.coeffs)
    assert type(L.pairing(U, V)) is type(sum_pairing(L, U.coeffs, V.coeffs))
    for cls in (U, V, U.scale(0)):
        assert L.in_radical(cls) == sum_in_radical(L, cls.coeffs)
