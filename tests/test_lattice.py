import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from singhunt import godeaux
from singhunt.errors import MultipleSolutions, NoSolution
from singhunt.exactla import determinant, symmetric_signature
from singhunt.lattice import (
    CurveTemplate,
    GramLattice,
    SurfaceInvariants,
    b2,
    canonical_relation,
    format_lattice,
    godeaux_fixture,
    parse_lattice,
    search_relations,
    solve_curve_intersections,
    unique_curve_solution,
)
from singhunt.rng import split

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


def test_fixture_signature():
    assert symmetric_signature(L9.matrix()) == (1, 8, 0)


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
    from itertools import product

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


def test_search_relations_seeded_sampling_deterministic():
    bounds = {f"N{i}": (0, 3) for i in range(1, 9)}
    bounds["K"] = (0, 8)
    a = search_relations(L9, bounds, self_bounds=(-2, 8), seed=7, trials=2000,
                         exhaustive_limit=10)
    b = search_relations(L9, bounds, self_bounds=(-2, 8), seed=7, trials=2000,
                         exhaustive_limit=10)
    assert a == b


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
