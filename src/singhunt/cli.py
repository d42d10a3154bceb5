"""Command-line pipeline: hunt, interpolate, lift, classify, lattice, cover,
and the built-in verification fixture.

Reports are plain structured text with stable ordering (or JSON via --json);
re-running a command with the same inputs and seed produces byte-identical
output apart from the trailing timings section.  Exit codes: 0 pass,
1 verification failure, 2 usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import cover as cover_mod
from . import exactla, godeaux, hunt, interp, lattice as lattice_mod, lift, poly
from .errors import HeldOutMismatch, SinghuntError, at_line, data_lines, signed_terms
from .fields import field_create, parse_element

EXIT_PASS = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3


class Report:
    def __init__(self, command: str):
        self.command = command
        self.inputs: list[tuple[str, str]] = []
        self.results: list[tuple[str, str]] = []
        self.verdicts: list[tuple[bool, str, str]] = []
        self.started = time.perf_counter()

    def add_input(self, key, value):
        self.inputs.append((str(key), str(value)))

    def add_result(self, key, value):
        self.results.append((str(key), str(value)))

    def verdict(self, ok: bool, name: str, detail: str):
        self.verdicts.append((bool(ok), name, detail))

    def ok(self) -> bool:
        return all(v[0] for v in self.verdicts)

    def text(self) -> str:
        lines = [f"singhunt report: {self.command}"]
        if self.inputs:
            lines.append("inputs:")
            lines += [f"  {k}: {v}" for k, v in self.inputs]
        if self.results:
            lines.append("results:")
            lines += [f"  {k}: {v}" for k, v in self.results]
        if self.verdicts:
            lines.append("verdicts:")
            for ok, name, detail in self.verdicts:
                lines.append(f"  {'pass' if ok else 'FAIL'} | {name} | {detail}")
            total = len(self.verdicts)
            good = sum(1 for v in self.verdicts if v[0])
            lines.append(f"summary: {good}/{total} verdicts pass")
        lines.append("timings:")
        lines.append(f"  total_s: {time.perf_counter() - self.started:.3f}")
        return "\n".join(lines) + "\n"

    def json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": dict(self.inputs),
            # results keep repeated keys (members, solutions, hits): list of pairs
            "results": [[k, v] for k, v in self.results],
            "verdicts": [
                {"status": "pass" if ok else "fail", "name": name, "detail": detail}
                for ok, name, detail in self.verdicts
            ],
            "timings": {"total_s": round(time.perf_counter() - self.started, 3)},
        }
        return json.dumps(payload, indent=2) + "\n"


def _emit(report: Report, args) -> int:
    out = report.json() if getattr(args, "json", False) else report.text()
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return EXIT_PASS if report.ok() else EXIT_VERIFY


def _parse_field(spec: str):
    parts = spec.split(",")
    p = int(parts[0])
    k = int(parts[1]) if len(parts) > 1 else 1
    return field_create(p, k)


def _infer_counts(text: str) -> tuple[int, int]:
    import re

    nv = -1
    npar = 0
    for m in re.finditer(r"x(\d+)", text):
        nv = max(nv, int(m.group(1)))
    for m in re.finditer(r"p(\d+)", text):
        npar = max(npar, int(m.group(1)))
    return nv + 1, npar


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, parse):
    """Parse a data file, naming the file in any error."""
    try:
        return parse(_read(path))
    except SinghuntError as exc:
        raise SinghuntError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hunt(args) -> int:
    report = Report("hunt")
    for flag, value, least in (("--nvars", args.nvars, 1), ("--nparams", args.nparams, 0)):
        if value is not None and value < least:
            raise SinghuntError(f"{flag} must be >= {least}, got {value}")

    def parse_family(text):
        nvars, nparams = _infer_counts(text)
        families = poly.parse_poly_file(text, nvars if args.nvars is None else args.nvars,
                                        nparams if args.nparams is None else args.nparams)
        if len(families) != 1:
            raise SinghuntError(f"family file must contain one polynomial, got {len(families)}")
        if families[0].nvars == 0:
            raise SinghuntError("family has no variable x0, x1, ...")
        top = max((e for exps in families[0].poly.terms for e in exps), default=0)
        if top >= 2**63:
            raise SinghuntError(f"exponent {top} does not fit in 64 bits")
        return families[0]

    fam = _load(args.family, parse_family)
    nvars, nparams = fam.nvars, fam.nparams
    ctx = _parse_field(args.field)
    report.add_input("family", args.family)
    report.add_input("field", repr(ctx))
    report.add_input("nvars/nparams", f"{nvars}/{nparams}")
    report.add_input("strategy", args.strategy)
    report.add_input("trials", args.trials)
    report.add_input("seed", args.seed)
    stats: dict = {}
    members = hunt.hunt_members(
        fam,
        ctx,
        strategy=args.strategy,
        trials=args.trials,
        seed=args.seed,
        budget=args.budget,
        classify_points=args.classify,
        cap=args.cap,
        stats=stats,
    )
    if "shortfall" in stats:
        report.add_result("shortfall", stats["shortfall"])
    report.add_result("members", len(members))
    for i, m in enumerate(members, 1):
        report.add_result(f"member {i}", m.text())
    return _emit(report, args)


def cmd_classify(args) -> int:
    report = Report("classify")
    if args.field:
        ctx = _parse_field(args.field)
        domain = ctx
    else:
        domain = poly.QQ
    text = _read(args.poly) if os.path.exists(args.poly) else args.poly
    nvars, _ = _infer_counts(text)
    f = poly.parse_poly(text.strip(), nvars, domain=domain)
    report.add_input("poly", text.strip())
    report.add_input("cap", args.cap)
    if args.point:
        pt = [
            parse_element(domain, tok) if args.field else _rational(tok)
            for tok in args.point.replace(",", " ").split()
        ]
        result = hunt.classify(f, pt, cap=args.cap)
    else:
        result = hunt.classify_local(f, cap=args.cap)
    report.add_result("label", result.label)
    report.add_result("corank", result.corank)
    report.add_result("tjurina", result.tjurina)
    if result.diagnostic:
        report.add_result("diagnostic", result.diagnostic)
    return _emit(report, args)


def _rational(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SinghuntError(f"bad rational coordinate {tok!r}") from None


def cmd_interpolate(args) -> int:
    report = Report("interpolate")
    ctx = _parse_field(args.field)
    pts = _load(args.points, lambda text: interp.PointSet.from_text(ctx, text))
    report.add_input("points", args.points)
    report.add_input("count", len(pts))
    report.add_input("field", repr(ctx))
    report.add_input("degree", args.degree)
    report.add_input("homogeneous", args.homogeneous)
    if args.slack:
        report.add_input("slack", args.slack)
        system = interp.oversampled_system(
            pts, args.degree, slack=args.slack, homogeneous=args.homogeneous,
            draws=args.draws, seed=args.seed,
        )
    else:
        system = interp.vanishing_system(pts, args.degree, args.homogeneous)
    report.add_result("dimension", system.dimension)
    for i, f in enumerate(system.polys(), 1):
        report.add_result(f"poly {i}", poly.format_poly(f))
    return _emit(report, args)


def cmd_lift(args) -> int:
    report = Report("lift")
    shape = "pair" if args.pairs else "tuple" if args.tuples else "value"
    rs = _load(args.residues, lambda text: lift.parse_residue_file(text, shape))
    report.add_input("residues", args.residues)
    report.add_input("primes", " ".join(str(p) for p in rs.primes))
    try:
        if args.pairs:
            result = lift.lift_unordered_pairs(rs)
            report.add_result("e1", result.e1)
            report.add_result("e2", result.e2)
            report.add_result("quadratic", result.quadratic_text())
            if result.roots:
                report.add_result("roots", f"{result.roots[0]}, {result.roots[1]}")
            else:
                report.add_result("roots", "no rational roots")
        elif args.tuples:
            values = lift.lift_extension_tuples(rs)
            report.add_result("tuple", "(" + ", ".join(str(v) for v in values) + ")")
        else:
            lifted = lift.lift_rational(rs)
            report.add_result("value", lifted.value)
            report.add_result("modulus_product", lifted.modulus_product)
            if len(rs.primes) < 3:
                report.add_result("verification", "unverified: no prime held out (needs 3 primes)")
            else:
                report.verdict(True, "held-out", f"verified against {lifted.verified_primes} primes")
    except HeldOutMismatch as exc:
        report.verdict(False, "held-out", str(exc))
    return _emit(report, args)


def cmd_lattice(args) -> int:
    report = Report(f"lattice {args.action}")
    L = _load(args.gram, lattice_mod.parse_lattice)
    report.add_input("gram", args.gram)
    report.add_input("classes", " ".join(L.names))
    if args.action == "rank":
        radical = L.radical()
        report.add_result("rank", L.rank())
        report.add_result("radical_dimension", len(radical))
        for v in radical:
            report.add_result("radical_vector", v)
    elif args.action == "search":
        bounds, self_bounds = _parse_bounds(args.bounds, L)
        for flag, value in (("--trials", args.trials), ("--limit", args.limit)):
            if value < 0:
                raise SinghuntError(f"{flag} must be >= 0, got {value}")
        hits = lattice_mod.search_relations(
            L, bounds, self_bounds=self_bounds, seed=args.seed, trials=args.trials
        )
        report.add_input("seed", args.seed)
        report.add_result("degenerate_extensions", len(hits))
        for h in hits[: args.limit]:
            rels = "; ".join(str(list(r)) for r in h.relations)
            report.add_result(
                "hit", f"pairings={list(h.pairings)} self={h.self_int} relations={rels}"
            )
        if len(hits) > args.limit:
            report.add_result("note", f"{len(hits) - args.limit} more hits suppressed")
    elif args.action == "solve":
        if not args.template or not args.constraints:
            raise SinghuntError("lattice solve needs --template and --constraints")
        template = _load(args.template, lambda text: _parse_template(text, L))
        constraints, contacts, self_c, positive = _load(
            args.constraints, lambda text: _parse_constraints(text, L, template.support)
        )
        sols = lattice_mod.solve_curve_intersections(
            L, template, constraints, contact=contacts,
            self_constraint=self_c, require_positive=positive,
        )
        report.add_result("solutions", len(sols))
        for s in sols:
            report.add_result(
                "solution",
                f"multiplicities={dict(s.multiplicities)} pairings={list(s.pairings)} "
                f"self={s.self_int} relation={list(s.relation)}",
            )
        report.verdict(len(sols) == 1, "unique-solution", f"{len(sols)} solution(s)")
    else:
        raise SinghuntError(f"unknown lattice action {args.action!r}")
    return _emit(report, args)


def _parse_bounds(spec: str, L) -> tuple[dict, tuple[int, int]]:
    """`NAME=lo..hi` (or `NAME=v`) chunks, comma separated; `self` bounds the
    curve's self-intersection.  Classes not named range over 0..0."""
    bounds = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, rng = (part.strip() for part in chunk.partition("="))
        lo, _, hi = rng.partition("..")
        try:
            pair = (int(lo), int(hi or lo))
        except ValueError:
            pair = None
        if not eq or pair is None:
            reason = "expected NAME=lo..hi"
        elif name != "self" and name not in L.names:
            reason = f"no class named {name!r} in the lattice"
        elif name in bounds:
            reason = f"{name} is bounded twice"
        elif pair[0] > pair[1]:
            reason = "empty range"
        else:
            bounds[name] = pair
            continue
        raise SinghuntError(f"bad --bounds chunk {chunk!r}: {reason}")
    return bounds, bounds.pop("self", (-2, 8))


def _parse_combo_text(text: str) -> dict[str, int]:
    """Parse '8*K - 4*C' style linear combinations of class names."""
    out: dict[str, int] = {}
    for sign, chunk in signed_terms(text):
        coeff, _, name = chunk.rpartition("*")
        c = int(coeff) if coeff else 1
        if not name:
            raise SinghuntError(f"bad class combination {text!r}")
        out[name] = out.get(name, 0) + sign * c
    return out


def _parse_template(text: str, L):
    found = {}
    for lineno, line in data_lines(text):
        key, _, val = line.partition(":")
        if key.strip() in ("lhs", "curve", "support"):
            found[key.strip()] = (lineno, val.strip())
    if len(found) < 3 or not found["support"][1]:
        raise SinghuntError("template file needs lhs:, curve:, and support: lines")
    lineno, lhs = found["lhs"]
    with at_line(lineno):
        lhs_map = _parse_combo_text(lhs)
        L.combo(lhs_map)
    lineno, curve = found["curve"]
    with at_line(lineno):
        coeff, _, cname = curve.rpartition("*")
        curve_mult = int(coeff) if coeff else 1
        if curve_mult == 0:
            raise SinghuntError("the curve multiplicity must be nonzero")
        if not cname or cname in L.names:
            raise SinghuntError(f"the curve needs a name that is not a class: {cname!r}")
    lineno, support = found["support"]
    with at_line(lineno):
        for name in support.split():
            L.index(name)
    return lattice_mod.CurveTemplate.make(lhs_map, curve_mult, cname, support.split())


def _head(text: str) -> tuple[str, str]:
    """The first word of text and the rest."""
    return tuple((text.split(None, 1) + ["", ""])[:2])


def _parse_constraints(text: str, L, support):
    constraints: dict[str, tuple[int, ...]] = {}
    contacts: list[tuple[tuple[str, ...], int]] = []
    self_c = None
    positive = True
    for lineno, line in data_lines(text):
        word, rest = _head(line)
        with at_line(lineno):
            if line == "nonneg":
                positive = False
            elif word == "pair":
                name, braces = _head(rest)
                L.index(name)
                constraints[name] = _parse_int_set(braces)
            elif word == "contact":
                names_part, eq, total = rest.partition("=")
                names = tuple(nm.strip() for nm in names_part.split("+"))
                for name in names:
                    L.index(name)
                if not eq:
                    raise SinghuntError("expected contact A+B+... = total")
                contacts.append((names, int(total)))
            elif word == "self":
                self_c = _parse_int_set(rest)
            else:
                raise SinghuntError(f"bad constraint line {line!r}")
    for name in support:
        if name not in constraints:
            raise SinghuntError(f"support class {name!r} has no pair line")
    return constraints, contacts, self_c, positive


def _parse_int_set(braces: str) -> tuple[int, ...]:
    body = braces.strip().lstrip("{").rstrip("}")
    return tuple(int(tok) for tok in body.replace(",", " ").split())


def cmd_cover(args) -> int:
    report = Report(f"cover {args.action}")
    L = _load(args.lattice, lattice_mod.parse_lattice)
    data = _load(args.cover, lambda text: _parse_cover_file(text, L))
    group, Lmap = data.group, data.L
    report.add_input("lattice", args.lattice)
    report.add_input("cover", args.cover)
    report.add_input("group", "x".join(f"Z/{m}" for m in group.orders))
    if args.action == "verify":
        for exps, ok in data.verify_reduced_data():
            report.verdict(ok, f"reduced-data {exps}", "relation lies in the radical")
    elif args.action == "invariants":
        if "K" not in L.names:
            raise SinghuntError(f"{args.lattice}: cover invariants needs a class named K")
        inv = lattice_mod.SurfaceInvariants(args.chi, args.k2, args.q)
        chi_s = cover_mod.chi_cover(inv, data)
        report.add_result("chi_cover", chi_s)
        report.add_result("K2_cover", cover_mod.cover_canonical_square(group.size, inv.K2))
        for exps in sorted(Lmap):
            if exps == group.identity():
                continue
            vec = Lmap[exps]
            report.add_result(f"L{exps}", _combo_str(L, vec))
    else:
        raise SinghuntError(f"unknown cover action {args.action!r}")
    return _emit(report, args)


def _combo_str(L, cls) -> str:
    parts = []
    for name, c in zip(L.names, cls.coeffs):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+{name}")
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*{name}")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[1:] if out.startswith("+") else out


def _parse_cover_file(text: str, L) -> cover_mod.CoverData:
    """The cover data of a cover file, with every L class derived from the
    generator lines."""
    group = None
    branch_line = None
    branch_divisors: list = []
    gen_lines: dict[tuple[int, ...], tuple[int, object]] = {}  # exps -> (line, class)
    for lineno, line in data_lines(text):
        key, _, val = line.partition(":")
        key = key.strip()
        with at_line(lineno):
            if key == "group":
                if not val.split():
                    raise SinghuntError("no cyclic order after group:")
                group = cover_mod.AbelianGroup(tuple(int(tok) for tok in val.split()))
            elif key == "branch":
                branch_line = lineno
                for chunk in val.split("|"):
                    chunk = chunk.strip()
                    if chunk in ("0", ""):
                        branch_divisors.append(None)
                    else:
                        branch_divisors.append(L.combo(_parse_combo_text(chunk)))
            elif key.startswith("L"):
                exps = tuple(
                    int(tok) for tok in key[1:].strip().lstrip("(").rstrip(")").replace(",", " ").split()
                )
                if exps in gen_lines:
                    raise SinghuntError(f"L {exps} repeats line {gen_lines[exps][0]}")
                gen_lines[exps] = (lineno, L.combo(_parse_combo_text(val.strip())))
            else:
                raise SinghuntError(f"bad cover file line {line!r}")
    if group is None:
        raise SinghuntError("cover file needs a group: line")
    for exps, (lineno, _) in gen_lines.items():
        reason = _character_error(exps, group.orders)
        if reason:
            raise SinghuntError(f"line {lineno}: L {exps}: {reason}")
    try:
        branch = cover_mod.BranchAssignment.assign(group, branch_divisors)
    except ValueError as exc:
        raise SinghuntError(f"line {branch_line}: {exc}" if branch_line else str(exc)) from exc
    generators = {cover_mod.Character(group, exps): cls for exps, (_, cls) in gen_lines.items()}
    return cover_mod.CoverData(group, branch, L, cover_mod.derive_all_L(L, branch, generators))


def _character_error(exps: tuple[int, ...], orders: tuple[int, ...]) -> str | None:
    """Why `exps` does not name a nontrivial character of the group, if so."""
    if len(exps) != len(orders):
        return f"needs {len(orders)} exponent(s), one per cyclic factor of the group"
    for c, m in zip(exps, orders):
        if not 0 <= c < m:
            return f"exponent {c} is outside 0..{m - 1}"
    if not any(exps):
        return "the trivial character has L = 0 and is not a generator"
    return None


# ---------------------------------------------------------------------------
# the built-in verification fixture
# ---------------------------------------------------------------------------

def fixture_godeaux() -> Report:
    report = Report("fixture godeaux-2a1-2a3")
    report.add_input("fixture", "godeaux-2a1-2a3")
    base = lattice_mod.godeaux_fixture()

    # (a) Gram rank and negative-definite exceptional block
    rank9 = base.rank()
    report.verdict(rank9 == 9, "gram-rank", f"rank of the 9x9 Gram matrix = {rank9}")
    nblock = base.restrict([f"N{i}" for i in range(1, 9)])
    report.verdict(
        exactla.is_negative_definite(nblock.matrix()),
        "n-block-negative-definite",
        "all leading principal minors of -M positive",
    )
    report.verdict(not base.radical(), "gram-radical-zero", "9x9 radical is trivial")

    # (b) b2 from the invariants
    val = lattice_mod.b2(godeaux.BASE_INVARIANTS)
    report.verdict(val == 9, "b2-base", f"12*chi - K^2 + 4q - 2 = {val}")

    # (c) divisibility relations recovered uniquely
    relations = [  # name, template, constraints, contacts, the expected solution
        ("C", godeaux.C_TEMPLATE, godeaux.C_CONSTRAINTS, godeaux.C_CONTACTS,
         (godeaux.C_MULTIPLICITIES, godeaux.C_PAIRINGS, godeaux.C_SELF)),
        ("D", godeaux.D_TEMPLATE, godeaux.D_CONSTRAINTS, godeaux.D_CONTACTS,
         (godeaux.D_MULTIPLICITIES, godeaux.D_PAIRINGS, godeaux.D_SELF)),
    ]
    for name, template, constraints, contacts, expected in relations:
        sols = lattice_mod.solve_curve_intersections(base, template, constraints, contact=contacts)
        ok = len(sols) == 1 and (
            dict(sols[0].multiplicities), sols[0].pairings, sols[0].self_int
        ) == expected
        report.verdict(ok, f"relation-{name}", f"{len(sols)} solution(s), multiplicities "
                       f"{dict(sols[0].multiplicities) if sols else '-'}")

    ext = godeaux.extended_lattice(base)
    radical = [tuple(v) for v in ext.radical()]
    relC = lattice_mod.DivisorClass(godeaux.RELATION_C)
    relD = lattice_mod.DivisorClass(godeaux.RELATION_D)
    report.verdict(
        ext.in_radical(relC) and ext.in_radical(relD) and len(radical) == 2,
        "relations-in-radical",
        "both divisibility relations span the radical of the 11x11 lattice",
    )
    cd = ext.pairing(ext.basis_class("C'"), ext.basis_class("D'"))
    report.verdict(cd == godeaux.CD_PAIRING, "pairing-C-D", f"C'.D' = {cd}")

    # (d) branch tables and reduced building data
    G = godeaux.COVER_GROUP
    data = godeaux.cover_data(ext)
    ta = cover_mod.coefficient_table(cover_mod.Character(G, godeaux.CHI_A), data.branch)
    tb = cover_mod.coefficient_table(cover_mod.Character(G, godeaux.CHI_B), data.branch)
    report.verdict(
        ta == godeaux.TABLE_A and tb == godeaux.TABLE_B,
        "coefficient-tables",
        f"{ta} and {tb}",
    )
    reduced = data.verify_reduced_data()
    report.verdict(
        all(ok for _, ok in reduced),
        "reduced-building-data",
        f"{sum(1 for _, ok in reduced if ok)}/7 congruences in the radical",
    )

    # (e) full L derivation
    all_equiv = all(
        ext.equivalent(data.L[exps], ext.combo(combo))
        for exps, combo in godeaux.L_EXPECTED.items()
    )
    report.verdict(all_equiv, "L-classes", "derived classes match the stored table")
    two_forms = ext.equivalent(
        ext.combo(godeaux.L_12_UNREDUCED), ext.combo(godeaux.L_EXPECTED[(1, 2)])
    )
    report.verdict(two_forms, "L4-two-forms", "both expressions agree in the lattice")

    # (f) invariants of the cover
    terms = []
    K = ext.basis_class("K")
    for chi in cover_mod.character_group(G):
        if chi.is_trivial():
            continue
        Lc = data.L[chi.exps]
        terms.append(Fraction(1, 2) * ext.pairing(Lc, K + Lc))
    report.verdict(
        all(t == -1 for t in terms),
        "half-L-K-plus-L",
        f"all seven terms equal -1: {[str(t) for t in terms]}",
    )
    chi_s = cover_mod.chi_cover(godeaux.BASE_INVARIANTS, data)
    pg_s = cover_mod.pg_cover(godeaux.BASE_INVARIANTS.pg, godeaux.H0_INPUTS)
    k2_s = cover_mod.cover_canonical_square(G.size, godeaux.BASE_INVARIANTS.K2)
    b2_s = lattice_mod.b2(lattice_mod.SurfaceInvariants(int(chi_s), k2_s, 0))
    report.verdict(chi_s == godeaux.COVER_CHI, "cover-chi", f"chi = {chi_s}")
    report.verdict(pg_s == godeaux.COVER_PG, "cover-pg", f"p_g = {pg_s}")
    report.verdict(k2_s == godeaux.COVER_K2, "cover-K2", f"K^2 = {k2_s}")
    report.verdict(b2_s == godeaux.COVER_B2, "cover-b2", f"b2 = {b2_s}")
    return report


def cmd_fixture(args) -> int:
    if args.name != "godeaux-2a1-2a3":
        raise SinghuntError(f"unknown fixture {args.name!r}")
    report = fixture_godeaux()
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="singhunt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--output", help="write the report to a file")

    p = sub.add_parser("hunt", help="search a family for singular members")
    p.add_argument("--family", required=True)
    p.add_argument("--field", required=True, metavar="p[,k]")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strategy", choices=["random-params", "solve-at-point"],
                   default="random-params")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--cap", type=int, default=hunt.DEFAULT_CAP)
    p.add_argument("--budget", type=int, default=hunt.DEFAULT_POINT_BUDGET)
    p.add_argument("--nvars", type=int)
    p.add_argument("--nparams", type=int)
    common(p)
    p.set_defaults(func=cmd_hunt)

    p = sub.add_parser("classify", help="classify a singular point")
    p.add_argument("--poly", required=True, help="polynomial text or file")
    p.add_argument("--field", metavar="p[,k]", help="omit for rational coefficients")
    p.add_argument("--point", help="projective point (comma separated); omit for local-at-origin")
    p.add_argument("--cap", type=int, default=hunt.DEFAULT_CAP)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("interpolate", help="vanishing systems through point sets")
    p.add_argument("--points", required=True)
    p.add_argument("--field", required=True, metavar="p[,k]")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--homogeneous", action="store_true")
    p.add_argument("--slack", type=int, default=0)
    p.add_argument("--draws", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("lift", help="multimodular lifting to the rationals")
    p.add_argument("--residues", required=True)
    p.add_argument("--pairs", action="store_true", help="payloads are unordered pairs")
    p.add_argument("--tuples", action="store_true",
                   help="payloads are basis tuples, as long as the first line's")
    common(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("lattice", help="intersection-lattice computations")
    p.add_argument("--gram", required=True)
    p.add_argument("action", choices=["rank", "search", "solve"])
    p.add_argument("--bounds", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--template")
    p.add_argument("--constraints")
    common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("cover", help="abelian-cover building data")
    p.add_argument("--lattice", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("action", choices=["verify", "invariants"])
    p.add_argument("--chi", type=int, default=1)
    p.add_argument("--k2", type=int, default=1)
    p.add_argument("--q", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("fixture", help="run the built-in verification fixture")
    p.add_argument("name", nargs="?", default="godeaux-2a1-2a3")
    common(p)
    p.set_defaults(func=cmd_fixture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileNotFoundError, SinghuntError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
