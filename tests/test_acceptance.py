"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

from singhunt import godeaux
from singhunt.cover import (
    BranchAssignment,
    Character,
    character_group,
    chi_cover,
    coefficient_table,
    cover_canonical_square,
    epsilon,
    generate_subgroup,
    pg_cover,
)
from singhunt.errors import HeldOutMismatch
from singhunt.fields import field_create
from singhunt.hunt import classify_local, hunt_members, projective_points, singular_points
from singhunt.interp import PointSet, filter_isolated, tangent_dim, vanishing_system
from singhunt.lattice import (
    SurfaceInvariants,
    b2,
    godeaux_fixture,
    solve_curve_intersections,
)
from singhunt.lift import (
    ResidueSystem,
    lift_rational,
    lift_unordered_pairs,
    reduce_rational,
)
from singhunt.poly import QQ, MultiPoly, ParametricFamily, monomial_basis, parse, parse_poly
from linalg_reference import in_row_span


class Timer:
    def __init__(self, number, limit, label):
        self.number = number
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} took {elapsed:.2f}s, limit {self.limit}s"
            )
        return False


def test_criterion_1_gram_rank_and_b2():
    with Timer(1, 1.0, "Gram matrix rank 9 and b2 formula = 9"):
        L = godeaux_fixture()
        assert L.rank() == 9
        assert b2(SurfaceInvariants(chi=1, K2=1, q=0)) == 9


def test_criterion_2_relation_recovery():
    with Timer(2, 10.0, "divisibility relations recovered uniquely with derived pairings"):
        L = godeaux_fixture()
        solsC = solve_curve_intersections(
            L, godeaux.C_TEMPLATE, godeaux.C_CONSTRAINTS, contact=godeaux.C_CONTACTS
        )
        assert len(solsC) == 1
        c = solsC[0]
        assert tuple(m for _, m in c.multiplicities) == (2, 1, 2, 3, 3, 2, 1)
        assert c.pairings == (1, 0, 0, 0, 1, 1, 0, 0, 2) and c.self_int == 2

        solsD = solve_curve_intersections(
            L, godeaux.D_TEMPLATE, godeaux.D_CONSTRAINTS, contact=godeaux.D_CONTACTS
        )
        assert len(solsD) == 1
        d = solsD[0]
        assert tuple(m for _, m in d.multiplicities) == (1, 1, 1, 2, 1)
        assert d.pairings == (1, 1, 0, 0, 0, 0, 1, 0, 2) and d.self_int == 2

        ext = godeaux.extended_lattice()
        relC = ext.combo({nm: v for nm, v in zip(ext.names, godeaux.RELATION_C)})
        relD = ext.combo({nm: v for nm, v in zip(ext.names, godeaux.RELATION_D)})
        assert ext.in_radical(relC) and ext.in_radical(relD)
        assert ext.pairing(ext.basis_class("C'"), ext.basis_class("K")) == 2
        assert ext.pairing(ext.basis_class("D'"), ext.basis_class("K")) == 2
        assert ext.pairing(ext.basis_class("C'"), ext.basis_class("C'")) == 2
        assert ext.pairing(ext.basis_class("D'"), ext.basis_class("D'")) == 2
        assert ext.pairing(ext.basis_class("C'"), ext.basis_class("D'")) == 3
        # the enumeration is exhaustive over the constraint boxes; the bare
        # {0,1} box is also fully enumerated (it has 16 numeric solutions)
        bare = solve_curve_intersections(
            L, godeaux.C_TEMPLATE, {f"N{i}": (0, 1) for i in range(1, 9)}
        )
        assert len(bare) == 16


def test_criterion_3_pardini_tables():
    with Timer(3, 1.0, "two generating characters give the coefficient tables verbatim"):
        G = godeaux.COVER_GROUP
        branch = BranchAssignment.assign(G, godeaux.branch_divisors(godeaux.extended_lattice()))
        matches = []
        for c1 in character_group(G):
            for c2 in character_group(G):
                if c1.is_trivial() or c2.is_trivial():
                    continue
                if len(generate_subgroup([c1, c2])) != G.size:
                    continue
                if (
                    coefficient_table(c1, branch) == [[0], [1], [1], [0, 0], [1, 1]]
                    and coefficient_table(c2, branch) == [[2], [2], [0], [1, 3], [3, 1]]
                ):
                    matches.append((c1.exps, c2.exps))
        assert matches  # such a generating pair exists


def test_criterion_4_cover_invariants():
    with Timer(4, 1.0, "chi = 1, p_g = 0, K^2 = 8, b2 = 2 with every term -1"):
        data = godeaux.cover_data()
        ext = data.lattice
        K = ext.basis_class("K")
        for chi in character_group(data.group):
            if chi.is_trivial():
                continue
            L = data.L[chi.exps]
            assert Fraction(1, 2) * ext.pairing(L, K + L) == -1
        assert chi_cover(godeaux.BASE_INVARIANTS, data) == 1
        assert pg_cover(godeaux.BASE_INVARIANTS.pg, godeaux.H0_INPUTS) == 0
        assert cover_canonical_square(data.group.size, godeaux.BASE_INVARIANTS.K2) == 8
        assert b2(SurfaceInvariants(chi=1, K2=8, q=0)) == 2


def test_criterion_5_l_derivation():
    with Timer(5, 1.0, "L-classes derived, relation lines and both L4 forms agree"):
        data = godeaux.cover_data()
        ext = data.lattice
        L = data.L
        N = lambda i: ext.basis_class(f"N{i}")
        assert ext.equivalent(L[(0, 1)], L[(1, 0)] + L[(1, 1)] - N(1) - N(6))
        assert ext.equivalent(L[(1, 3)], L[(0, 2)] + L[(1, 1)] - N(5) - N(6))
        assert ext.equivalent(L[(0, 3)], L[(0, 2)] + L[(0, 1)] - N(5) - N(8))
        assert ext.equivalent(
            L[(0, 2)], L[(1, 1)] + L[(1, 1)] - N(1) - N(4) - N(5) - N(6) - N(7)
        )
        assert ext.equivalent(
            L[(1, 2)], L[(1, 3)] + L[(0, 3)] - N(3) - N(4) - N(6) - N(7) - N(8)
        )
        # both expressions for the (1,2) class agree in the lattice
        assert ext.equivalent(ext.combo(godeaux.L_12_UNREDUCED), L[(1, 2)])
        # full stored table reproduced
        for exps, combo in godeaux.L_EXPECTED.items():
            assert ext.equivalent(L[exps], ext.combo(combo))
        # path independence over all factorizations
        G = data.group
        branch = data.branch
        for e1 in L:
            for e2 in L:
                chi1, chi2 = Character(G, e1), Character(G, e2)
                candidate = L[e1] + L[e2]
                for slot in branch.slots:
                    if slot.divisor is not None and epsilon(chi1, chi2, slot.subgroup, slot.psi):
                        candidate = candidate - slot.divisor
                assert ext.equivalent(candidate, L[(chi1 * chi2).exps])


PRIMES = [101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163]


def test_criterion_6_lifting():
    with Timer(6, 30.0, "1000 round trips, pair lifting, 100/100 corruption detection"):
        ok = 0
        for case in range(1000):
            rnd = random.Random(case)
            val = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**6))
            primes = [p for p in PRIMES if val.denominator % p][:10]
            assert len(primes) >= 10
            rs = ResidueSystem.make([(p, reduce_rational(val, p)) for p in primes])
            if lift_rational(rs).value == val:
                ok += 1
        assert ok == 1000

        # unordered pairs: {1/2, 1/3} under every per-prime ordering choice
        a, b = Fraction(1, 2), Fraction(1, 3)
        for mask in range(16):
            pairs = []
            for i, p in enumerate((101, 103, 107, 109)):
                ra, rb = reduce_rational(a, p), reduce_rational(b, p)
                pairs.append((p, (ra, rb) if (mask >> i) & 1 else (rb, ra)))
            res = lift_unordered_pairs(ResidueSystem.make(pairs))
            assert res.roots == (Fraction(1, 3), Fraction(1, 2))

        # conjugate pair: x^2 - 2x - 1 regardless of ordering
        def sqrt_mod(n, p):
            return next((x for x in range(p) if x * x % p == n % p), None)

        pairs = []
        flip = False
        for p in PRIMES:
            s = sqrt_mod(2, p)
            if s is None:
                continue
            r1, r2 = (1 + s) % p, (1 - s) % p
            pairs.append((p, (r1, r2) if flip else (r2, r1)))
            flip = not flip
        res = lift_unordered_pairs(ResidueSystem.make(pairs))
        assert res.quadratic_text() == "x0^2 - 2*x0 - 1" and res.roots is None

        detected = 0
        for case in range(100):
            rnd = random.Random(5000 + case)
            val = Fraction(rnd.randint(-10**6, 10**6), rnd.randint(1, 10**6))
            primes = [p for p in PRIMES if val.denominator % p][:10]
            residues = [reduce_rational(val, p) for p in primes]
            bad = rnd.randrange(len(primes))
            residues[bad] = (residues[bad] + rnd.randint(1, primes[bad] - 1)) % primes[bad]
            try:
                lift_rational(ResidueSystem(tuple(primes), tuple(residues)))
            except HeldOutMismatch as exc:
                if primes[bad] in exc.suspects:
                    detected += 1
        assert detected == 100


def _brute_singular_params(fam, ctx):
    flagged = set()
    elems = list(ctx.elements())

    def rec(prefix):
        if len(prefix) == fam.nparams:
            if singular_points(fam.specialize(list(prefix)), ctx):
                flagged.add(prefix)
            return
        for e in elems:
            rec(prefix + (e,))

    rec(())
    return flagged


def test_criterion_7_hunting_oracle_and_classification():
    with Timer(7, 60.0, "hunt matches exhaustive scans; classification 100/100"):
        F7 = field_create(7)
        F11 = field_create(11)
        hesse = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
        got = {m.params for m in hunt_members(hesse, F7, trials=7, seed=2)}
        assert got == _brute_singular_params(hesse, F7)

        famA = parse("x0^2+x1^2+x2^2+p1*x0*x1+p2*x0*x2", 3, 2)
        gotA = {m.params for m in hunt_members(famA, F11, trials=121, seed=3)}
        oracleA = _brute_singular_params(famA, F11)
        assert gotA == oracleA and oracleA

        famB = parse("x0*x1+x2^2+p1*x3^2+p2*x2*x3", 4, 2)
        gotB = {m.params for m in hunt_members(famB, F11, trials=121, seed=4)}
        oracleB = _brute_singular_params(famB, F11)
        assert gotB == oracleB and oracleB

        # classification: planted normal forms and random linear disguises
        F101 = field_create(101)
        correct = 0
        total = 0
        for case in range(100):
            rnd = random.Random(900 + case)
            want_a3 = case % 2 == 1
            over_q = case % 4 >= 2
            domain = QQ if over_q else F101
            base = parse_poly("x0^2+x1^2+x2^4" if want_a3 else "x0^2+x1^2+x2^2",
                              3, domain=domain)
            if case < 4:
                disguised = base  # the normal forms themselves
            else:
                while True:
                    rows = [[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                    det = (
                        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
                        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
                        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
                    )
                    if det != 0 and det % 101 != 0:
                        break
                images = [
                    MultiPoly(3, domain, {(1, 0, 0): rows[i][0],
                                          (0, 1, 0): rows[i][1],
                                          (0, 0, 1): rows[i][2]})
                    for i in range(3)
                ]
                disguised = base.substitute(images)
            cap = 8 if not over_q else 5
            res = classify_local(disguised, cap=cap)
            total += 1
            if res.label == ("A3" if want_a3 else "A1"):
                correct += 1
        assert total == 100 and correct == 100


def test_criterion_8_interpolation_pipeline():
    with Timer(8, 120.0, "planted discriminant recovered in >= 99/100 runs; filtering exact"):
        F101 = field_create(101)
        monos3 = monomial_basis(3, 3, "at-most")  # 20 columns
        need = len(monos3) + 4
        recovered = 0
        runs = 100
        for run in range(runs):
            rnd = random.Random(31_000 + run)
            coeffs = {m: rnd.randrange(101) for m in monos3}
            if all(v == 0 for v in coeffs.values()):
                coeffs[monos3[1]] = 1
            h = MultiPoly(3, F101, coeffs)
            # the member over p is singular exactly where h(p) = 0
            fam_poly = MultiPoly(
                5,
                F101,
                {(2, 0) + m: c for m, c in coeffs.items()} | {(0, 2, 0, 0, 0): 1},
            )
            fam = ParametricFamily(fam_poly, 2, 3)
            members = hunt_members(fam, F101, trials=5000, seed=run)
            if len(members) < need:
                continue
            pts = PointSet(F101, [m.params for m in members])
            system = vanishing_system(pts, 3)
            vec = [h.terms.get(m, 0) for m in system.monomials]
            if system.dimension == 1 and in_row_span(system.basis, vec, F101):
                recovered += 1
        assert recovered >= 99, f"only {recovered}/100 runs recovered the plant"

        # tangent filtering: isolated transversal points all dropped,
        # on-component points all kept
        for case in range(20):
            rnd = random.Random(52_000 + case)
            a = [F101.element(rnd.randint(1, 100)) for _ in range(3)]
            x0 = parse_poly("x0", 3).map_domain(F101)
            gens = []
            for i in range(3):
                shift = MultiPoly(3, F101, {
                    tuple(1 if j == i else 0 for j in range(3)): 1,
                    (0, 0, 0): -a[i],
                })
                gens.append(x0 * shift)
            line_pts = [
                (F101.zero(), F101.element(rnd.randrange(101)), F101.element(rnd.randrange(101)))
                for _ in range(10)
            ]
            ps = PointSet(F101, line_pts + [tuple(a)])
            kept = filter_isolated(ps, gens)
            assert tuple(a) not in kept.points
            assert all(pt in kept.points for pt in ps.points if pt != tuple(a))


if __name__ == "__main__":
    import pytest
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
