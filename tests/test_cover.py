from fractions import Fraction
from itertools import combinations, product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from singhunt import cover, godeaux, lattice as lattice_mod
from singhunt.cover import (
    AbelianGroup,
    BranchAssignment,
    Character,
    CoverData,
    CyclicSubgroup,
    character_group,
    chi_cover,
    coefficient_table,
    cover_canonical_square,
    cyclic_subgroups,
    char_generator_exponents,
    derive_all_L,
    epsilon,
    exponent_from_restriction,
    generate_subgroup,
    pg_cover,
    reduced_building_data,
    reduced_coeff,
)
from singhunt.errors import (
    InconsistentData,
    NegativeH0,
    NonIntegral,
    NotAGenerator,
)
from singhunt.lattice import DivisorClass, GramLattice, SurfaceInvariants, b2

G24 = AbelianGroup((2, 4))
EXT = godeaux.extended_lattice()


def fixture_branch():
    return BranchAssignment.assign(G24, godeaux.branch_divisors(EXT))


def test_cyclic_subgroups_z2_z4():
    subs = cyclic_subgroups(G24)
    assert [(H.order, H.generator) for H in subs] == [
        (2, (0, 2)),
        (2, (1, 0)),
        (2, (1, 2)),
        (4, (0, 1)),
        (4, (1, 1)),
    ]


@pytest.mark.parametrize("orders", [(2,), (6,), (2, 4), (3, 3), (2, 2, 2), (4, 6), (2, 3, 4)])
def test_cyclic_subgroups_and_elements_match_the_scans(orders):
    """elements() counts in lexicographic order, and each cyclic subgroup's
    generator is its least element of maximal order (the scan over every
    member of every subgroup that cyclic_subgroups replaced)."""
    G = AbelianGroup(orders)
    want = [()]
    for m in orders:
        want = [g + (c,) for g in want for c in range(m)]
    assert G.elements() == want
    best = {}
    for g in want[1:]:
        members = G.generated_by(g)
        best[members] = min(h for h in members if G.element_order(h) == len(members))
    assert [(H.members, H.generator) for H in cyclic_subgroups(G)] == sorted(
        best.items(), key=lambda mg: (len(mg[0]), mg[1]))


def test_cyclic_subgroups_z2():
    subs = cyclic_subgroups(AbelianGroup((2,)))
    assert len(subs) == 1 and subs[0].order == 2


def test_cyclic_subgroups_z3_z3():
    subs = cyclic_subgroups(AbelianGroup((3, 3)))
    assert len(subs) == 4  # (9 - 1) / (3 - 1)
    assert all(H.order == 3 for H in subs)


def test_seven_branch_slots():
    branch = fixture_branch()
    assert len(branch.slots) == 7
    assert [len(g) for g in branch.grouped()] == [1, 1, 1, 2, 2]


def test_exponent_from_restriction():
    subs = cyclic_subgroups(G24)
    trivial = Character(G24, (0, 0))
    for H in subs:
        for j in char_generator_exponents(H):
            assert exponent_from_restriction(trivial, H, j) == 0

    order2_sub = subs[1]  # <(1,0)>
    chi = Character(G24, (1, 0))
    assert exponent_from_restriction(chi, order2_sub, 1) == 1

    order4_sub = subs[3]  # <(0,1)>
    chi4 = Character(G24, (0, 3))  # sends (0,1) to 3/4 = psi^3
    assert exponent_from_restriction(chi4, order4_sub, 1) == 3
    assert exponent_from_restriction(chi4, order4_sub, 3) == 1

    with pytest.raises(NotAGenerator):
        exponent_from_restriction(chi4, order4_sub, 2)


def test_reduced_coeff_examples():
    subs = cyclic_subgroups(G24)
    trivial = Character(G24, (0, 0))
    assert all(
        reduced_coeff(trivial, H, j) == 0
        for H in subs
        for j in char_generator_exponents(H)
    )
    # order-4 character restricting nontrivially to an order-2 subgroup
    chi = Character(G24, (1, 1))
    H = subs[0]  # <(0,2)>
    assert chi.order() == 4 and exponent_from_restriction(chi, H, 1) == 1
    assert reduced_coeff(chi, H, 1) == 2


def test_coefficient_tables_verbatim():
    branch = fixture_branch()
    assert coefficient_table(Character(G24, godeaux.CHI_A), branch) == godeaux.TABLE_A
    assert coefficient_table(Character(G24, godeaux.CHI_B), branch) == godeaux.TABLE_B


def test_generating_pair_with_tables_exists_and_is_unique():
    branch = fixture_branch()
    matches = []
    for c1 in character_group(G24):
        for c2 in character_group(G24):
            if c1.is_trivial() or c2.is_trivial():
                continue
            if len(generate_subgroup([c1, c2])) != G24.size:
                continue
            if (
                coefficient_table(c1, branch) == godeaux.TABLE_A
                and coefficient_table(c2, branch) == godeaux.TABLE_B
            ):
                matches.append((c1.exps, c2.exps))
    assert matches == [(godeaux.CHI_A, godeaux.CHI_B)]


def test_epsilon_values():
    subs = cyclic_subgroups(G24)
    trivial = Character(G24, (0, 0))
    H2 = subs[1]
    chi2 = Character(G24, (1, 0))
    assert epsilon(trivial, trivial, H2, 1) == 0
    assert epsilon(chi2, chi2, H2, 1) == 1

    H4 = subs[3]
    chi_r1 = Character(G24, (0, 1))
    chi_r2 = Character(G24, (0, 2))
    chi_r3 = Character(G24, (0, 3))
    assert epsilon(chi_r1, chi_r3, H4, 1) == 1
    assert epsilon(chi_r1, chi_r2, H4, 1) == 0


def test_reduced_building_data_eq4():
    branch = fixture_branch()
    L2 = EXT.combo(godeaux.L_EXPECTED[godeaux.CHI_A])
    rel = reduced_building_data(Character(G24, godeaux.CHI_A), branch, L2, EXT)
    # 2*L2 - (N1 + N2 + N6 + N8)
    expected = L2.scale(2) - EXT.combo({"N1": 1, "N2": 1, "N6": 1, "N8": 1})
    assert rel.coeffs == expected.coeffs
    assert EXT.in_radical(rel)

    L5 = EXT.combo(godeaux.L_EXPECTED[godeaux.CHI_B])
    rel5 = reduced_building_data(Character(G24, godeaux.CHI_B), branch, L5, EXT)
    expected5 = L5.scale(4) - EXT.combo(
        {"N1": 2, "N3": 1, "N4": 2, "N5": 3, "N6": 3, "N7": 2, "N8": 1}
    )
    assert rel5.coeffs == expected5.coeffs
    assert EXT.in_radical(rel5)


def test_reduced_building_data_trivial_branch():
    empty = BranchAssignment.assign(G24, [None] * 7)
    zero = EXT.combo({})
    rel = reduced_building_data(Character(G24, (1, 1)), empty, zero, EXT)
    assert rel.is_zero()


def test_derive_all_L_matches_stored_table():
    data = godeaux.cover_data()
    for exps, combo in godeaux.L_EXPECTED.items():
        assert data.L[exps].coeffs == EXT.combo(combo).coeffs


def test_derived_relation_lines():
    data = godeaux.cover_data()
    L = data.L
    N = lambda i: EXT.basis_class(f"N{i}")

    def eq(lhs, rhs):
        assert EXT.equivalent(lhs, rhs)

    eq(L[(0, 1)], L[(1, 0)] + L[(1, 1)] - N(1) - N(6))            # L6 = L2+L5-N1-N6
    eq(L[(1, 3)], L[(0, 2)] + L[(1, 1)] - N(5) - N(6))            # L7 = L3+L5-N5-N6
    eq(L[(0, 3)], L[(0, 2)] + L[(0, 1)] - N(5) - N(8))            # L8 = L3+L6-N5-N8
    eq(L[(0, 2)], L[(1, 1)] + L[(1, 1)] - N(1) - N(4) - N(5) - N(6) - N(7))
    eq(L[(1, 2)], L[(1, 3)] + L[(0, 3)] - N(3) - N(4) - N(6) - N(7) - N(8))


def test_l4_two_expressions_agree():
    lhs = EXT.combo(godeaux.L_12_UNREDUCED)
    rhs = EXT.combo(godeaux.L_EXPECTED[(1, 2)])
    assert EXT.equivalent(lhs, rhs)
    assert lhs.coeffs != rhs.coeffs  # genuinely different representatives


def test_path_independence_over_all_factorizations():
    data = godeaux.cover_data()
    branch = fixture_branch()
    for e1 in data.L:
        for e2 in data.L:
            chi1, chi2 = Character(G24, e1), Character(G24, e2)
            prod = chi1 * chi2
            candidate = data.L[e1] + data.L[e2]
            for slot in branch.slots:
                if slot.divisor is None:
                    continue
                if epsilon(chi1, chi2, slot.subgroup, slot.psi):
                    candidate = candidate - slot.divisor
            assert EXT.equivalent(candidate, data.L[prod.exps]), (e1, e2)


def test_derive_all_L_rejects_non_generating_set():
    branch = fixture_branch()
    chi3 = Character(G24, (0, 2))  # order 2, generates only half the dual
    with pytest.raises(InconsistentData, match="do not generate the dual group"):
        derive_all_L(EXT, branch, {chi3: EXT.combo({})})


def test_derive_all_L_closure_is_the_generation_check():
    """No separate pass generates the subgroup: the extension of the classes
    itself finds that the characters fall short of the group.  Reducedness
    is checked first."""
    branch = fixture_branch()
    with mock.patch.object(cover, "generate_subgroup", side_effect=AssertionError("called")):
        assert derive_all_L(EXT, branch, godeaux.generator_classes(EXT)) == godeaux.cover_data().L
        with pytest.raises(InconsistentData, match="do not generate"):
            derive_all_L(EXT, branch, {Character(G24, (1, 2)): EXT.combo({})})
        with pytest.raises(InconsistentData, match=r"\(0, 6\) is not reduced"):
            derive_all_L(EXT, branch, {Character(G24, (0, 6)): EXT.combo({})})


def test_derive_all_L_detects_inconsistent_generator_data():
    branch = fixture_branch()
    gens = godeaux.generator_classes(EXT)
    (chi_a, _), (chi_b, Lb) = sorted(gens.items(), key=lambda kv: kv[0].exps)
    bad = {chi_a: EXT.combo({"K": 1}), chi_b: Lb}  # wrong L for chi_a
    with pytest.raises(InconsistentData):
        derive_all_L(EXT, branch, bad)


def test_verify_reduced_data_all_seven():
    data = godeaux.cover_data()
    verdicts = data.verify_reduced_data()
    assert len(verdicts) == 7 and all(ok for _, ok in verdicts)


def test_chi_cover_fixture():
    data = godeaux.cover_data()
    assert chi_cover(godeaux.BASE_INVARIANTS, data) == 1
    K = EXT.basis_class("K")
    terms = []
    for chi in character_group(G24):
        if chi.is_trivial():
            continue
        Lc = data.L[chi.exps]
        terms.append(Fraction(1, 2) * EXT.pairing(Lc, K + Lc))
    assert terms == [Fraction(-1)] * 7


def test_chi_cover_trivial_data():
    zero = EXT.combo({})
    Lmap = {exps: zero for exps in G24.elements()}
    branch = BranchAssignment.assign(G24, [None] * 7)
    data = CoverData(G24, branch, EXT, Lmap)
    assert chi_cover(SurfaceInvariants(3, 2, 2), data) == 8 * 3


def test_chi_cover_flags_non_integral():
    Lmap = {exps: EXT.combo({}) for exps in G24.elements()}
    Lmap[(1, 0)] = EXT.combo({"N1": Fraction(1, 2)})
    branch = BranchAssignment.assign(G24, [None] * 7)
    data = CoverData(G24, branch, EXT, Lmap)
    with pytest.raises(NonIntegral):
        chi_cover(godeaux.BASE_INVARIANTS, data)


def test_pg_cover():
    assert pg_cover(0, [0] * 7) == 0
    assert pg_cover(0, [1, 0, 0, 0, 0, 0, 0]) == 1
    assert pg_cover(2, []) == 2
    with pytest.raises(NegativeH0):
        pg_cover(0, [-1])


def test_cover_canonical_square():
    assert cover_canonical_square(8, 1) == 8
    assert cover_canonical_square(1, 5) == 5
    assert cover_canonical_square(2, 2) == 4


def test_fake_quadric_invariant_triple():
    assert b2(SurfaceInvariants(1, 8, 0)) == 2


def test_character_pairing_is_perfect_for_small_groups():
    for orders in [(2,), (5,), (8,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (4, 4), (2, 16)]:
        G = AbelianGroup(orders)
        if G.size > 64:
            continue
        chars = character_group(G)
        assert len(chars) == G.size
        # distinct characters differ somewhere; nontrivial elements are
        # separated by some character
        tables = {tuple(chi.value(g) for g in G.elements()) for chi in chars}
        assert len(tables) == G.size
        for g in G.elements():
            if g == G.identity():
                continue
            assert any(chi.value(g) != 0 for chi in chars)
        # multiplicativity: table of a product is the sum of tables mod 1
        for c1 in chars[: min(6, len(chars))]:
            for c2 in chars[: min(6, len(chars))]:
                prod = c1 * c2
                for g in G.elements():
                    lhs = prod.value(g)
                    rhs = c1.value(g) + c2.value(g)
                    assert (lhs - rhs) == int(lhs - rhs)


def test_character_orders():
    assert Character(G24, (0, 0)).order() == 1
    assert Character(G24, (1, 0)).order() == 2
    assert Character(G24, (1, 1)).order() == 4
    assert Character(G24, (0, 2)).order() == 2


# ---------------------------------------------------------------------------
# the Fraction reference path: restriction through Character.value, carries
# through a per-pair epsilon, Euler characteristic as a Fraction sum
# ---------------------------------------------------------------------------

def reference_exponent(chi, H, j):
    m = H.order
    if gcd(j, m) != 1:
        raise NotAGenerator(f"psi_{j} does not generate the characters of H")
    num = chi.value(H.generator) * m
    if num.denominator != 1:
        raise NonIntegral("character value does not restrict to the subgroup")
    return int(num) * pow(j, -1, m) % m


def reference_epsilon(chi1, chi2, H, j):
    r1 = reference_exponent(chi1, H, j)
    r2 = reference_exponent(chi2, H, j)
    return 1 if r1 + r2 >= H.order else 0


def reference_product_class(chi1, chi2, known, branch):
    acc = known[chi1.exps] + known[chi2.exps]
    for slot in branch.slots:
        if slot.divisor is not None and reference_epsilon(chi1, chi2, slot.subgroup, slot.psi):
            acc = acc - slot.divisor
    return acc


def reference_derive_all_L(lattice, branch, generators):
    gens = list(generators.items())
    if not gens:
        raise InconsistentData("no generator characters given")
    G = gens[0][0].group
    if len(generate_subgroup([chi for chi, _ in gens])) != G.size:
        raise InconsistentData("the given characters do not generate the dual group")
    known = {G.identity(): DivisorClass(tuple(Fraction(0) for _ in range(lattice.size)))}
    for chi, L in gens:
        known[chi.exps] = L
    changed = True
    while changed:
        changed = False
        for e1 in sorted(known):
            chi1 = Character(G, e1)
            for chi2, _ in gens:
                prod = chi1 * chi2
                if prod.exps not in known:
                    known[prod.exps] = reference_product_class(chi1, chi2, known, branch)
                    changed = True
    for e1 in sorted(known):
        for e2 in sorted(known):
            chi1, chi2 = Character(G, e1), Character(G, e2)
            candidate = reference_product_class(chi1, chi2, known, branch)
            if not lattice.equivalent(candidate, known[(chi1 * chi2).exps]):
                raise InconsistentData(f"factorization {e1} * {e2} disagrees with the stored class")
    return known


def reference_verify_reduced_data(data):
    out = []
    for chi in character_group(data.group):
        if chi.is_trivial():
            continue
        acc = data.L[chi.exps].scale(chi.order())
        for slot in data.branch.slots:
            if slot.divisor is None:
                continue
            num = chi.order() * reference_exponent(chi, slot.subgroup, slot.psi)
            if num % slot.subgroup.order:
                raise NonIntegral(f"{num} is not divisible by |H| = {slot.subgroup.order}")
            acc = acc - slot.divisor.scale(num // slot.subgroup.order)
        out.append((chi.exps, data.lattice.in_radical(acc)))
    return out


def reference_chi_cover(invX, data):
    K = data.lattice.basis_class("K")
    acc = Fraction(data.group.size * invX.chi)
    for chi in character_group(data.group):
        if not chi.is_trivial():
            L = data.L[chi.exps]
            acc += Fraction(1, 2) * data.lattice.pairing(L, K + L)
    if acc.denominator != 1:
        raise NonIntegral(f"holomorphic Euler characteristic {acc} is not integral")
    return acc


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (InconsistentData, NonIntegral, NotAGenerator) as exc:
        return type(exc), str(exc)


SMALL_GROUPS = [
    (2,), (3,), (4,), (5,), (6,), (8,), (12,), (24,),
    (2, 2), (2, 3), (2, 4), (3, 3), (2, 6), (4, 4), (2, 8), (3, 6), (2, 12),
    (2, 2, 2), (2, 2, 4), (2, 2, 6), (2, 3, 4),
]


def test_integer_exponent_matches_character_value_definition():
    """Every character, every element as generator of a claimed subgroup of
    order 2..8 (real subgroups and impossible ones, which must raise
    NonIntegral), every j in 0..m (j sharing a factor with m must raise
    NotAGenerator)."""
    raised = set()
    for orders in SMALL_GROUPS:
        G = AbelianGroup(orders)
        for g in G.elements():
            for m in range(2, 9):
                H = CyclicSubgroup(G, g, (G.identity(),) * m)
                for exps in G.elements():
                    chi = Character(G, exps)
                    for j in range(m + 1):
                        want = outcome(reference_exponent, chi, H, j)
                        assert outcome(exponent_from_restriction, chi, H, j) == want
                        if isinstance(want, tuple):
                            raised.add(want[0])
    assert raised == {NotAGenerator, NonIntegral}


def symmetric_grams(n):
    """Integral or half-integral symmetric n x n matrices: zero (every class
    equivalent), rank one (u ~ v iff (u - v).w = 0), or random."""

    @st.composite
    def build(draw):
        kind = draw(st.sampled_from(["zero", "rank-one", "random"]))
        if kind == "zero":
            gram = [[0] * n for _ in range(n)]
        elif kind == "rank-one":
            w = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
            gram = [[a * b for b in w] for a in w]
        else:
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
        scale = draw(st.sampled_from([1, Fraction(1, 2)]))
        return [[v * scale for v in row] for row in gram]

    return build()


@st.composite
def cover_cases(draw):
    """(lattice, branch, generators, second lattice) on a group with one or
    two cyclic factors of orders 2..6; the characters usually generate."""
    G = AbelianGroup(tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))))
    n = draw(st.integers(2, 4))
    names = ["K"] + [f"E{i}" for i in range(1, n)]
    coeffs = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    nslots = sum(len(char_generator_exponents(H)) for H in cyclic_subgroups(G))
    divisors = [
        None if c is None else DivisorClass(tuple(c))
        for c in draw(st.lists(st.none() | coeffs, min_size=nslots, max_size=nslots))
    ]
    pairs = [c for k in (1, 2) for c in combinations(G.elements()[1:], k)]
    generating = [c for c in pairs if len(generate_subgroup(Character(G, e) for e in c)) == G.size]
    chars = draw(st.sampled_from(generating if draw(st.integers(0, 5)) else pairs))
    generators = {Character(G, e): DivisorClass(tuple(draw(coeffs))) for e in chars}
    lattices = [GramLattice(names, draw(symmetric_grams(n))) for _ in range(2)]
    return lattices[0], BranchAssignment.assign(G, divisors), generators, lattices[1]


def test_cover_path_matches_fraction_reference():
    """derive_all_L against the reference on the drawn lattice (its value
    or its first failing factorization), and on the zero lattice, where
    every derivation of generating characters succeeds; then
    verify_reduced_data and chi_cover of those classes on a second integral
    or half-integral lattice.  The cases must reach every outcome: failing
    and succeeding derivations, reduced data in and out of the radical,
    integral and non-integral Euler characteristics."""
    seen = set()

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(cover_cases(), st.integers(-2, 2))
    def run(case, chi_base):
        lat, branch, generators, lat2 = case
        got = outcome(derive_all_L, lat, branch, generators)
        assert got == outcome(reference_derive_all_L, lat, branch, generators)
        seen.add(("derive", isinstance(got, dict)))
        zero = GramLattice(lat.names, [[0] * lat.size for _ in range(lat.size)])
        want = outcome(reference_derive_all_L, zero, branch, generators)
        got = outcome(derive_all_L, zero, branch, generators)
        if isinstance(want, tuple):
            assert got == want and "do not generate" in want[1]
            return
        assert {e: c.coeffs for e, c in got.items()} == {e: c.coeffs for e, c in want.items()}
        assert all(type(x) is int for c in got.values() for x in c.coeffs)
        data = CoverData(next(iter(generators)).group, branch, lat2, got)
        verdicts = data.verify_reduced_data()
        assert verdicts == reference_verify_reduced_data(data)
        seen.update(("verify", ok) for _, ok in verdicts)
        inv = SurfaceInvariants(chi_base, 1, 0)
        chi_s = outcome(chi_cover, inv, data)
        assert chi_s == outcome(reference_chi_cover, inv, data)
        assert isinstance(chi_s, tuple) or type(chi_s) is int
        seen.add(("chi", type(chi_s) is int))

    run()
    assert seen == {(kind, flag) for kind in ("derive", "verify", "chi") for flag in (True, False)}


# ---------------------------------------------------------------------------
# the DivisorClass path that the integer rows replaced: per-coefficient class
# arithmetic, one radical test (a Python sum per column of the Gram matrix)
# per factorization and per character
# ---------------------------------------------------------------------------

def sum_in_radical(lattice, v):
    terms = [(c, lattice.gram[i]) for i, c in enumerate(v.coeffs) if c]
    return all(sum(c * row[j] for c, row in terms) == 0 for j in range(lattice.size))


def divisorclass_product_class(e1, e2, known, restrict, slots):
    acc = known[e1] + known[e2]
    for slot, r1, r2 in zip(slots, restrict[e1], restrict[e2]):
        if r1 + r2 >= slot.subgroup.order:
            acc = acc - slot.divisor
    return acc


def divisorclass_derive_all_L(lattice, branch, generators):
    gens = list(generators.items())
    if not gens:
        raise InconsistentData("no generator characters given")
    G = gens[0][0].group
    if len(generate_subgroup([chi for chi, _ in gens])) != G.size:
        raise InconsistentData("the given characters do not generate the dual group")
    elements = G.elements()
    for chi, _ in gens:
        if chi.exps not in elements:
            raise InconsistentData(f"character {chi.exps} is not reduced mod the orders {G.orders}")
    slots = [s for s in branch.slots if s.divisor is not None]
    restrict = {
        e: [exponent_from_restriction(Character(G, e), s.subgroup, s.psi) for s in slots]
        for e in elements
    }
    known = {G.identity(): DivisorClass((0,) * lattice.size)}
    for chi, L in gens:
        known[chi.exps] = L
    changed = True
    while changed:
        changed = False
        for e1 in sorted(known):
            for chi2, _ in gens:
                e = G.add(e1, chi2.exps)
                if e in known:
                    continue
                known[e] = divisorclass_product_class(e1, chi2.exps, known, restrict, slots)
                changed = True
    order = sorted(known)
    for i, e1 in enumerate(order):
        for e2 in order[i:]:
            candidate = divisorclass_product_class(e1, e2, known, restrict, slots)
            if not sum_in_radical(lattice, candidate - known[G.add(e1, e2)]):
                raise InconsistentData(f"factorization {e1} * {e2} disagrees with the stored class")
    return known


def divisorclass_verify_reduced_data(data):
    out = []
    for chi in character_group(data.group):
        if chi.is_trivial():
            continue
        rel = reduced_building_data(chi, data.branch, data.L[chi.exps], data.lattice)
        out.append((chi.exps, sum_in_radical(data.lattice, rel)))
    return out


DIFFERENTIAL_GROUPS = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 2, 2)]
SMALL = st.integers(-3, 3)
HUGE = st.integers(2**62, 2**66) | st.integers(-2**66, -2**62) | st.integers(-3, 3)


def _value(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@st.composite
def consistent_covers(draw, entries=SMALL):
    """(lattice, branch, generators, moved) on a group of DIFFERENTIAL_GROUPS.

    The Gram matrix is U^T [[A, 0], [0, 0]] U for a random symmetric A, an
    elementary U = I + t E_(a,last) and a scale 1, 1/2 or 1/3, so rho =
    e_last - t e_a lies in its radical.  A generator's class is
    sum_s (r_s / |H_s|) D_s plus a multiple of rho: every factorization then
    agrees.  `moved` is the same generators with one class moved by a
    nonzero integer vector."""
    G = AbelianGroup(draw(st.sampled_from(DIFFERENTIAL_GROUPS)))
    n = draw(st.integers(2, 4))
    names = ["K"] + [f"E{i}" for i in range(1, n)]
    block = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(i, n - 1):
            block[i][j] = block[j][i] = draw(entries)
    a, t = draw(st.integers(0, n - 2)), draw(st.integers(-2, 2))
    U = [[int(i == j) + (t if (i, j) == (a, n - 1) else 0) for j in range(n)] for i in range(n)]
    scale = draw(st.sampled_from([1, Fraction(1, 2), Fraction(1, 3)]))
    gram = [[scale * sum(U[k][i] * block[k][l] * U[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]
    rho = [int(i == n - 1) - (t if i == a else 0) for i in range(n)]
    lattice = GramLattice(names, gram)
    nslots = sum(len(char_generator_exponents(H)) for H in cyclic_subgroups(G))
    vectors = st.lists(entries, min_size=n, max_size=n)
    divisors = [None if v is None else DivisorClass(tuple(v))
                for v in draw(st.lists(st.none() | vectors, min_size=nslots, max_size=nslots))]
    branch = BranchAssignment.assign(G, divisors)
    sets = [c for k in (1, 2, 3) for c in combinations(G.elements()[1:], k)]
    chars = draw(st.sampled_from([c for c in sets
                                  if len(generate_subgroup(Character(G, e) for e in c)) == G.size]))
    generators = {}
    for e in chars:
        chi = Character(G, e)
        k = draw(st.integers(-2, 2))
        vec = [Fraction(k * x) for x in rho]
        for slot in branch.slots:
            if slot.divisor is not None:
                share = Fraction(reference_exponent(chi, slot.subgroup, slot.psi), slot.subgroup.order)
                vec = [v + share * d for v, d in zip(vec, slot.divisor.coeffs)]
        generators[chi] = DivisorClass(tuple(_value(v) for v in vec))
    moved = dict(generators)
    chi = draw(st.sampled_from(sorted(moved, key=lambda c: c.exps)))
    delta = draw(vectors.filter(any))
    moved[chi] = DivisorClass(tuple(_value(x + y) for x, y in zip(moved[chi].coeffs, delta)))
    return lattice, branch, generators, moved


def check_cover_against_divisorclass_path(case, seen):
    lattice, branch, generators, moved = case
    G = next(iter(generators)).group
    for gens, kind in ((generators, "consistent"), (moved, "moved")):
        got = outcome(derive_all_L, lattice, branch, gens)
        want = outcome(divisorclass_derive_all_L, lattice, branch, gens)
        assert got == want, kind
        with mock.patch.object(cover, "PAIR_ROWS", 3):  # factorizations checked 3 at a time
            assert outcome(derive_all_L, lattice, branch, gens) == want
        if isinstance(got, tuple):
            assert kind == "moved" and got[0] is InconsistentData
            seen.add(("derive", kind, False))
            continue
        seen.add(("derive", kind, True))
        assert {e: [type(x) for x in c.coeffs] for e, c in got.items()} == \
            {e: [type(x) for x in c.coeffs] for e, c in want.items()}
        data = CoverData(G, branch, lattice, got)
        verdicts = data.verify_reduced_data()
        assert verdicts == divisorclass_verify_reduced_data(data)
        assert kind == "moved" or all(ok for _, ok in verdicts)
        # one stored class moved by K: its reduced data usually leaves the radical
        e = max(got)
        data.L = dict(got)
        data.L[e] = got[e] + DivisorClass((1,) + (0,) * (lattice.size - 1))
        verdicts = data.verify_reduced_data()
        assert verdicts == divisorclass_verify_reduced_data(data)
        seen.update(("verify", ok) for _, ok in verdicts)


def test_integer_cover_path_matches_divisorclass_path():
    """derive_all_L and verify_reduced_data against the DivisorClass path on
    consistent data and with one generator moved: the same classes (values
    and types), the same verdicts, or the same exception and message, which
    names the first failing factorization in e1 <= e2 order."""
    seen = set()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(consistent_covers())
    def run(case):
        check_cover_against_divisorclass_path(case, seen)

    run()
    assert seen >= {("derive", "consistent", True), ("derive", "moved", True),
                    ("derive", "moved", False), ("verify", True), ("verify", False)}


def test_integer_cover_path_past_int64():
    """Gram entries and classes past 2^62 and past 2^64 take the Python-int
    path and match the DivisorClass path."""
    seen = set()

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(consistent_covers(entries=HUGE))
    def run(case):
        lattice, branch, generators, _ = case
        rows = [c for c in generators.values()] + [s.divisor for s in branch.slots if s.divisor]
        top = max(abs(x) for c in rows for x in c.coeffs)
        gram_top = max(abs(x) for row in lattice.gram for x in row)
        if top >= 2**62 or gram_top >= 2**62:
            assert (lattice.class_array(rows)[0].dtype == object
                    or lattice_mod._int_array(lattice.matrix().num, lattice.size).dtype == object)
            seen.add(64 if max(top, gram_top) >= 2**64 else 62)
        check_cover_against_divisorclass_path(case, seen)

    run()
    assert {62, 64, ("derive", "moved", False), ("verify", False)} <= seen


def test_restriction_table_matches_exponent_from_restriction():
    for orders in SMALL_GROUPS:
        G = AbelianGroup(orders)
        slots = BranchAssignment.assign(G, [None] * sum(
            len(char_generator_exponents(H)) for H in cyclic_subgroups(G))).slots
        table = cover.restriction_table(G, slots)
        assert table.tolist() == [[reference_exponent(Character(G, e), s.subgroup, s.psi) for s in slots]
                                  for e in G.elements()]
