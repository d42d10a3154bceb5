"""Detect singular members in a family and classify isolated singularities.

A member is singular at a projective point when the defining polynomial and
all its geometric partials vanish there.  Members are scanned in batches over
every rational point; a family of forms first drops the members whose
Macaulay matrix of the partials has full column rank, which have no singular
point (one ``exactla.rank_stack`` per batch, where that costs less than the
scan; see the Macaulay prune below).  Classification is numeric: corank of
the Hessian plus the Tjurina number computed by truncated local-algebra
linear algebra, which separates the A_k types without any Groebner machinery.
A point whose n x n Hessian is regular is A1 by the Morse lemma; every other
classified point takes one elimination: the corank and the Tjurina numbers
at both caps are read from the pivots of a single RREF.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import exactla
from .errors import (
    BudgetExceeded,
    NotLinearInParams,
    NotSingular,
    SmallCharacteristic,
)
from .fields import (
    FieldCtx,
    FieldElement,
    _dtype,
    monomial_values,
    plane_matmul,
    plane_mul,
    to_elements,
    to_planes,
)
from .poly import QQ, ZZ, MultiPoly, ParametricFamily, coerce, monomial_basis
from .rng import below_rows, digit_rows, first_occurrences

DEFAULT_POINT_BUDGET = 2_000_000
DEFAULT_CAP = 8
MEMBER_CAP = 10_000  # parameter points of one solve-at-point solution space
UNCLASSIFIED = "?"


@dataclass(frozen=True)
class SingularPoint:
    coords: tuple
    label: str = UNCLASSIFIED
    corank: int | None = None
    tjurina: int | None = None
    diagnostic: str = ""

    def text(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


@dataclass
class SingularMember:
    params: tuple
    points: list[SingularPoint] = field(default_factory=list)

    def signature(self) -> str:
        return signature_string([pt.label for pt in self.points])

    def text(self) -> str:
        params = "(" + ",".join(str(v) for v in self.params) + ")"
        pts = " ".join(pt.text() for pt in self.points)
        return f"{params} | {self.signature()} | {pts}"


def signature_string(labels: Sequence[str]) -> str:
    """Canonical multiset string, e.g. ['A1','A3','A1','A3'] -> '2A1+2A3'."""
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1

    def key(lab: str):
        if lab.startswith("A") and lab[1:].isdigit():
            return (0, int(lab[1:]))
        return (1, lab)

    parts = [f"{counts[lab]}{lab}" for lab in sorted(counts, key=key)]
    return "+".join(parts) if parts else "smooth"


# ---------------------------------------------------------------------------
# projective point enumeration
# ---------------------------------------------------------------------------

def projective_size(q: int, nvars: int) -> int:
    return (q**nvars - 1) // (q - 1)


def projective_points(ctx: FieldCtx, nvars: int) -> Iterator[tuple[FieldElement, ...]]:
    """Canonical representatives: first nonzero coordinate equals 1.  The
    points are decoded by index, SCAN_CELLS at a time."""
    total = projective_size(ctx.q, nvars)
    for lo in range(0, total, SCAN_CELLS):
        block = _projective_planes(ctx, nvars, np.arange(lo, min(lo + SCAN_CELLS, total)))
        yield from map(tuple, to_elements(ctx, block))


def _projective_planes(ctx: FieldCtx, n: int, index) -> np.ndarray:
    """Planes (k x len(index) x n) of the points of projective_points(ctx, n)
    with the given indices.

    The points whose lead (first nonzero coordinate) is l are the block of
    q^(n-1-l) indices after those of the leads before it, in counting order
    of their last n-1-l coordinates.  Adding p^(k-1) q^(n-1-l) (the value 1
    in the lead) minus the block's start to an index gives the number whose
    n*k base-p digits, most significant first, are the point's planes.
    """
    p, q, k = ctx.p, ctx.q, ctx.k
    index = np.asarray(index, dtype=np.int64 if q**n <= 2**63 else object)
    one = p ** (k - 1)
    start = 0
    shift = one * q ** (n - 1)
    value = index + shift
    for lead in range(1, n):
        start += q ** (n - lead)
        delta = one * q ** (n - 1 - lead) - start - shift
        shift += delta
        np.add(value, delta, out=value, where=index >= start)
    digits = digit_rows(value, [p] * (n * k)).reshape(len(index), n, k)
    return digits.transpose(2, 0, 1).astype(_dtype(p), copy=False)


# ---------------------------------------------------------------------------
# singular locus of one member
# ---------------------------------------------------------------------------

def singular_points(
    f: MultiPoly, ctx: FieldCtx, budget: int = DEFAULT_POINT_BUDGET
) -> list[tuple[FieldElement, ...]]:
    """All canonical points of P^(nvars-1) where f and every partial vanish."""
    f = f.map_domain(ctx)
    params = np.zeros((ctx.k, 1, 0), dtype=_dtype(ctx.p))
    hits = _family_scan(ParametricFamily(f, f.nvars, 0), ctx, params, budget)
    return next((found for _, found in hits), [])


def _check_budget(q: int, nvars: int, budget: int) -> None:
    total = projective_size(q, nvars)
    if total > budget:
        raise BudgetExceeded(
            f"projective space has {total} points, budget is {budget}"
        )


# -- the batched scan -----------------------------------------------------------
#
# Values are digit planes (see fields): members are rows of a coefficient
# array C (k x members x monomials).  A cell is a (point, member) pair, and
# it is singular when every check (f where needed, then each partial)
# vanishes there.  On a block of points the first check is one dense plane
# product: monomial values (points x monomials) times that polynomial's
# coefficients (monomials x members).  Its zeros are the surviving cells, and
# each later check is evaluated only at the cells still surviving, as one
# gathered elementwise product summed over the check's monomials, so a cell
# costs nothing once one check is nonzero there.

SCAN_CELLS = 1 << 15  # points x members (or x monomials) per transient block


def _exponent_array(mons: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    return np.array(mons, dtype=np.int64).reshape(len(mons), width)


def _member_coefficients(
    poly: MultiPoly, nvars: int, params: np.ndarray, ctx: FieldCtx
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Specialise a family at every parameter row (planes k x rows x nparams) at once.

    Returns the x-monomials and the coefficient planes C = Pmon @ A.T
    (k x rows x monomials), where A holds the family's coefficients
    (x-monomials x p-monomials) and Pmon the p-monomials at each parameter row.
    """
    xmons = sorted({e[:nvars] for e in poly.terms})
    pmons = sorted({e[nvars:] for e in poly.terms})
    xpos = {m: i for i, m in enumerate(xmons)}
    ppos = {m: i for i, m in enumerate(pmons)}
    A = [[ctx.zero()] * len(pmons) for _ in xmons]
    for e, c in poly.terms.items():
        A[xpos[e[:nvars]]][ppos[e[nvars:]]] = c
    A = to_planes(ctx, A).reshape(ctx.k, len(xmons), len(pmons))
    pmon = monomial_values(ctx, params, _exponent_array(pmons, params.shape[2]))
    return xmons, plane_matmul(ctx, pmon, A.transpose(0, 2, 1))


def _scan(
    xmons: list[tuple[int, ...]], C: np.ndarray, ctx: FieldCtx, n: int, check_f: bool
) -> Iterator[tuple[int, list[tuple[FieldElement, ...]]]]:
    """(row, singular points) of every singular member (row of the planes C,
    coefficients of xmons), scanning P^(n-1): each monomial table's points
    are decoded from their index range, so no array of every point is made.

    A point is singular when every partial vanishes there, and f too when
    check_f (by the Euler relation, a form of degree prime to p vanishes
    wherever its partials do).  A value is zero when all its planes are.
    Each member's points come in enumeration order; over GF(p) a nonzero
    binary form's come sorted by coordinates.
    """
    p = ctx.p
    checks = []  # (coefficient columns of C, their monomials, multipliers)
    if check_f:
        checks.append((range(len(xmons)), xmons, [1] * len(xmons)))
    for i in range(n):
        cols = [j for j, e in enumerate(xmons) if e[i] % p]
        if cols:
            lowered = [xmons[j][:i] + (xmons[j][i] - 1,) + xmons[j][i + 1:] for j in cols]
            checks.append((cols, lowered, [xmons[j][i] % p for j in cols]))
    mons = sorted({m for _, ms, _ in checks for m in ms})
    where = {m: j for j, m in enumerate(mons)}
    plan = [  # (columns of the monomial values, coefficient planes members x columns)
        ([where[m] for m in ms], C[:, :, list(cols)] * np.array(mult, dtype=C.dtype) % p)
        for cols, ms, mult in checks
    ]
    exps = _exponent_array(mons, n)
    T = C.shape[1]
    step = max(1, SCAN_CELLS // max(T, len(mons)))
    chunk = step * max(1, SCAN_CELLS // (step * max(1, len(mons))))  # points per monomial table
    found_b, found_t = [], []  # the singular cells of each block, row-major
    total = projective_size(ctx.q, n)
    for start in range(0, total, step):
        if not start % chunk:
            points = _projective_planes(ctx, n, np.arange(start, min(start + chunk, total)))
            values = monomial_values(ctx, points, exps)
        block = values[:, start % chunk:start % chunk + step]
        if not plan:  # f is zero mod p: every cell is singular
            b, t = np.divmod(np.arange(block.shape[1] * T), T)
        else:
            (idx, coeffs), *rest = plan
            first = plane_matmul(ctx, block[:, :, idx], coeffs.transpose(0, 2, 1))
            b, t = np.divmod(np.flatnonzero(~first.any(axis=0)), T)
            for idx, coeffs in rest:  # the later checks, at the surviving cells only
                if not len(b):
                    break
                terms = plane_mul(ctx, block[:, b[:, None], idx], coeffs[:, t])
                keep = ~(terms.sum(axis=2) % p).any(axis=0)
                b, t = b[keep], t[keep]
        found_b.append(start + b)
        found_t.append(t)
    t = np.concatenate(found_t)
    order = np.argsort(t, kind="stable")  # by member; each member's points stay in order
    b, t = np.concatenate(found_b)[order], t[order]
    used = sorted(set(b.tolist()))
    coords = dict(zip(used, map(tuple, to_elements(ctx, _projective_planes(ctx, n, used)))))
    rows, firsts = np.unique(t, return_index=True)
    for row, found in zip(rows.tolist(), np.split(b, firsts[1:])):
        found = found.tolist()
        if ctx.k == 1 and n == 2 and len({sum(m) for m, c in zip(xmons, C[0, row].tolist()) if c}) == 1:
            found = sorted(found, key=lambda b: [c.coeffs for c in coords[b]])
        yield row, [coords[b] for b in found]


# ---------------------------------------------------------------------------
# classification: corank + Tjurina number of an isolated singularity
# ---------------------------------------------------------------------------

def classify_local(
    g: MultiPoly, cap: int = DEFAULT_CAP, point: tuple | None = None
) -> SingularPoint:
    """Classify the singularity of g at the affine origin.

    g must vanish at 0 with vanishing Jacobian.  A regular Hessian gives A1
    with corank 0 and tau 1 and builds no cap matrix.  Otherwise the label
    is A_tau when the Hessian corank is <= 1 and tau stabilized between
    caps, and the point is reported unclassified with a diagnostic when not.
    """
    if cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    domain = g.domain
    if isinstance(domain, FieldCtx):
        deg = g.total_degree()
        if domain.p <= deg:
            raise SmallCharacteristic(
                f"characteristic {domain.p} <= degree {deg}: classification unreliable"
            )
    n = g.nvars
    zero_exps = (0,) * n
    if zero_exps in g.terms:
        raise NotSingular("polynomial does not vanish at the origin")
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        if e in g.terms:
            raise NotSingular("Jacobian does not vanish at the origin")

    coords = point if point is not None else zero_exps
    if _hessian_is_regular(g):  # the Morse lemma; p > degree >= 2 makes p odd
        return SingularPoint(coords, "A1", 0, 1, "")
    corank, tau_lo, tau_hi = _corank_and_tjurina(g, cap)
    if tau_lo != tau_hi:
        return SingularPoint(
            coords, UNCLASSIFIED, corank, None,
            f"tjurina not stabilized at cap {cap} ({tau_lo} vs {tau_hi})",
        )
    if corank > 1:
        return SingularPoint(
            coords, UNCLASSIFIED, corank, tau_hi, f"corank {corank} > 1"
        )
    return SingularPoint(coords, f"A{tau_hi}", corank, tau_hi, "")


def _hessian_is_regular(g: MultiPoly) -> bool:
    """Whether the n x n Hessian of g at the origin, read from the degree-2
    part of g, has rank n: a nonzero determinant over QQ, one stack rank
    over a finite field."""
    n = g.nvars
    entries = {}
    for e, c in g.terms.items():
        if sum(e) == 2:
            i, j = (v for v in range(n) for _ in range(e[v]))
            entries[i, j] = entries[j, i] = 2 * c if i == j else c
    H = exactla.ExactMatrix.sparse(g.domain, n, n, entries)
    if H.domain == QQ:
        return exactla.determinant(H) != 0
    return exactla.rank_stack(H.planes[:, None], H.domain)[0] == n


def _corank_and_tjurina(g: MultiPoly, cap: int) -> tuple[int, int, int]:
    """(Hessian corank, tau at cap - 1, tau at cap) of g from one elimination.

    tau at a cap is dim O/(g, dg) modulo terms of degree >= cap.  The rows
    are the multiples h*m of each generator h in (g, dg), truncated at cap,
    over the monomials of degree < cap in graded order, so the rank of a
    prefix of columns is the number of pivots in it.  Truncating at cap - 1
    keeps the columns of degree < cap - 1, where the rows only the cap
    matrix has vanish.  g has no terms of degree < 2, so on the columns of
    degree <= 1 the rows dg_i * 1 are the Hessian's and all others vanish.
    """
    n = g.nvars
    lo = len(monomial_basis(n, cap - 2, "at-most"))
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
    pivots = []
    if rows:
        pivots = exactla.rref(exactla.ExactMatrix.sparse(g.domain, rows, len(basis), entries))[1]
    hessian_rank = sum(c <= n for c in pivots)  # columns 1..n are the degree-1 monomials
    return n - hessian_rank, lo - sum(c < lo for c in pivots), len(basis) - len(pivots)


def classify(
    f: MultiPoly, pt: Sequence, cap: int = DEFAULT_CAP
) -> SingularPoint:
    """Classify a singular point of a homogeneous hypersurface.

    Dehomogenizes on the chart of the first nonzero coordinate, translates
    the point to the origin, and classifies the local equation.
    """
    if not f.is_homogeneous():
        raise NotSingular("projective classification needs a homogeneous polynomial")
    if f.domain == ZZ:
        f = f.map_domain(QQ)  # chart scaling needs division
    n = f.nvars
    domain = f.domain
    pt = [coerce(domain, v) for v in pt]
    chart = next((i for i, v in enumerate(pt) if v), None)
    if chart is None:
        raise NotSingular("zero vector is not a projective point")
    if f.eval(pt):
        raise NotSingular("point does not lie on the hypersurface")
    # local coordinates: one variable per position != chart
    images = []
    local_index = 0
    m = n - 1
    inv_c = 1 / pt[chart]
    for i in range(n):
        if i == chart:
            images.append(MultiPoly.constant(m, domain, 1))
        else:
            const = MultiPoly.constant(m, domain, pt[i] * inv_c)
            var = MultiPoly.variable(m, domain, local_index)
            images.append(const + var)
            local_index += 1
    local = f.substitute(images)
    result = classify_local(local, cap, point=tuple(pt))
    return result


# ---------------------------------------------------------------------------
# hunting
# ---------------------------------------------------------------------------

def hunt_members(
    fam: ParametricFamily,
    ctx: FieldCtx,
    strategy: str = "random-params",
    trials: int = 100,
    seed: int = 0,
    budget: int = DEFAULT_POINT_BUDGET,
    classify_points: bool = False,
    cap: int = DEFAULT_CAP,
    stats: dict | None = None,
) -> list[SingularMember]:
    """Search parameter space for members with nonempty singular locus.

    random-params samples parameter points without replacement (so a trial
    count covering the whole space degenerates to an exhaustive scan);
    solve-at-point fixes a random geometric point and solves the linear
    conditions on the parameters.  The members are scanned in batches over
    every field; the result is deterministic for a fixed seed and does not
    depend on the batch size.  A stats dict receives the number of distinct
    members tested ("tested") and, when random-params tests fewer than
    trials, the reason ("shortfall").
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if classify_points and cap < 2:
        raise ValueError(f"cap must be >= 2, got {cap}")
    if strategy == "random-params":
        digits = _param_candidates(fam.nparams, ctx, trials, seed)
    elif strategy == "solve-at-point":
        digits = _solve_at_point_candidates(fam, ctx, trials, seed, MEMBER_CAP, budget)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if stats is not None:
        stats["tested"] = len(digits)
        if strategy == "random-params" and len(digits) < trials:
            stats["shortfall"] = _shortfall(fam.nparams, ctx, trials, len(digits))

    members = []
    for t, pts in _family_scan(fam, ctx, np.moveaxis(digits, 2, 0), budget):
        if not pts:
            continue
        params = _params(ctx, digits[t])
        if classify_points:
            # a family without parameters specialises to its own integer polynomial
            member_poly = fam.specialize(params).map_domain(ctx)
            spts = [_classified(member_poly, coords, cap) for coords in pts]
        else:
            spts = [SingularPoint(coords) for coords in pts]
        members.append(SingularMember(tuple(params), spts))
    return sorted(members, key=lambda m: _param_key(m.params))


def _params(ctx: FieldCtx, digits: np.ndarray) -> list[FieldElement]:
    """The parameter point whose basis digits are the rows of digits."""
    return [ctx.element(d) for d in digits.tolist()]


def _classified(member_poly: MultiPoly, coords: tuple, cap: int) -> SingularPoint:
    """The classified point, or an unclassified one with the reason where
    classification does not apply: a characteristic too small for the degree,
    or a member that is not homogeneous in x."""
    try:
        return classify(member_poly, coords, cap)
    except (SmallCharacteristic, NotSingular) as exc:
        return SingularPoint(coords, UNCLASSIFIED, None, None, str(exc))


def _family_scan(
    fam: ParametricFamily, ctx: FieldCtx, params: np.ndarray, budget: int
) -> Iterator[tuple[int, list[tuple[FieldElement, ...]]]]:
    """(row, singular points) of every singular member, one parameter row
    (planes k x rows x nparams) each.  A family of forms of degree d >= 1
    first drops the members that ``_may_be_singular`` rules out, when that
    costs less than scanning them."""
    if not params.shape[1]:
        return
    n = fam.nvars
    _check_budget(ctx.q, n, budget)
    poly = fam.poly.map_domain(ctx)
    check_f = not (fam.is_homogeneous_in_x() and fam.x_degree % ctx.p)
    prune = fam.is_homogeneous_in_x() and fam.x_degree >= 1
    # glibc's malloc maps each block above its mmap threshold (128 KiB at
    # start) afresh and unmaps it when freed, so the scan's temporaries of
    # about SCAN_CELLS cells would be new zeroed pages at every block: 40,825
    # page faults in a P^3 hunt over GF(101) instead of 449, and 10-15% of its
    # time.  Freeing one 2 MiB mapped block raises the threshold to 2 MiB (the
    # dynamic threshold of mallopt(3)), so they are reused from the heap.
    np.empty(1 << 18)
    for start in range(0, params.shape[1], SCAN_CELLS):
        xmons, C = _member_coefficients(poly, n, params[:, start:start + SCAN_CELLS], ctx)
        rows = np.arange(C.shape[1])
        if prune and _prune_pays(xmons, ctx, n, fam.x_degree):
            rows = rows[_may_be_singular(xmons, C, ctx, n, fam.x_degree)]
        if len(rows):
            for t, found in _scan(xmons, C[:, rows], ctx, n, check_f):
                yield start + int(rows[t]), found


# -- the Macaulay prune ---------------------------------------------------------
#
# A member F, a form of degree d >= 1 in n variables, with a singular point P
# over GF(q) has its partials vanish at P, so every row x^m * dF/dx_i of its
# Macaulay matrix in degree D (columns: the monomials of degree D) annihilates
# the nonzero vector (P^a) over |a| = D: the matrix is short of full column
# rank, in every characteristic.  A member of full column rank has no
# singular point and needs no scan.  In degree D = max(n(d-2)+1, d-1) the
# converse holds over the algebraic closure when p does not divide d: the
# partials then form a regular sequence exactly when F is smooth, and the
# Hilbert function of that complete intersection is zero past n(d-2).


@functools.lru_cache(maxsize=64)
def _macaulay_gather(
    xmons: tuple[tuple[int, ...], ...], n: int, d: int, p: int
) -> tuple[tuple[int, int], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The Macaulay matrix in degree D = max(n(d-2)+1, d-1) of the partials
    of a form of degree d with the monomials xmons, as one gather:
    ((rows, cols), flat cells, xmons indices, multipliers) of its entries.

    Row (i, m) is x^m * dF/dx_i for |m| = D - d + 1 and column a is x^a
    for |a| = D; x^e contributes e_i times its coefficient at a = m + e - e_i,
    where e_i is nonzero mod p."""
    D = max(n * (d - 2) + 1, d - 1)
    shifts = monomial_basis(n, D - d + 1, "exactly")
    column = {a: j for j, a in enumerate(monomial_basis(n, D, "exactly"))}
    cells, sources, mults = [], [], []
    for i in range(n):
        for r, m in enumerate(shifts, start=i * len(shifts)):
            for j, e in enumerate(xmons):
                if e[i] % p:
                    a = [u + v for u, v in zip(m, e)]
                    a[i] -= 1
                    cells.append(r * len(column) + column[tuple(a)])
                    sources.append(j)
                    mults.append(e[i] % p)
    return (n * len(shifts), len(column)), tuple(cells), tuple(sources), tuple(mults)


def _prune_pays(xmons: list[tuple[int, ...]], ctx: FieldCtx, n: int, d: int) -> bool:
    """Whether ranking a member's Macaulay matrix (rows * cols * min(rows,
    cols)) costs no more than scanning the member (points * monomials)."""
    rows, cols = _macaulay_gather(tuple(xmons), n, d, ctx.p)[0]
    return rows * cols * min(rows, cols) <= projective_size(ctx.q, n) * len(xmons)


def _may_be_singular(
    xmons: list[tuple[int, ...]], C: np.ndarray, ctx: FieldCtx, n: int, d: int
) -> np.ndarray:
    """A mask of the members (rows of the planes C, forms of degree d >= 1
    with the monomials xmons) whose Macaulay matrix is short of full column
    rank: no member outside it has a singular point.  The matrices are
    ranked by ``exactla.rank_stack``, about SCAN_CELLS cells at a time."""
    (rows, cols), cells, sources, mults = _macaulay_gather(tuple(xmons), n, d, ctx.p)
    mults = np.array(mults, dtype=C.dtype)
    members = C.shape[1]
    keep = np.empty(members, dtype=bool)
    step = max(1, SCAN_CELLS // (rows * cols))
    for lo in range(0, members, step):
        batch = C[:, lo:lo + step, sources]
        M = np.zeros((ctx.k, batch.shape[1], rows * cols), dtype=C.dtype)
        M[:, :, cells] = batch * mults % ctx.p
        keep[lo:lo + step] = exactla.rank_stack(M.reshape(*M.shape[:2], rows, cols), ctx) < cols
    return keep


def _param_key(params: tuple):
    return tuple(v.coeffs for v in params)


FULL_SCAN_POINTS = 2_000_000  # largest parameter space a hunt may scan in full


def _attempt_limit(trials: int) -> int:
    return 20 * trials + 1000


def _param_candidates(nparams: int, ctx: FieldCtx, trials: int, seed: int) -> np.ndarray:
    """Basis digits (candidates x nparams x k) of the parameter points to test.

    When trials cover the whole space it is scanned in counting order.
    Otherwise trial i draws each parameter's digits (low degree
    first) from stream split(seed, i); repeats are skipped, and at most
    _attempt_limit(trials) streams are read.
    """
    p, k = ctx.p, ctx.k
    if nparams == 0:
        return np.zeros((1, 0, k), dtype=_dtype(p))
    width = nparams * k
    space = ctx.q**nparams
    if space <= trials and space <= FULL_SCAN_POINTS:
        return digit_rows(np.arange(space), [p] * width).reshape(space, nparams, k).astype(_dtype(p))
    limit = _attempt_limit(trials)
    rows = np.empty((0, width), dtype=np.uint64)
    drawn, rounds = trials, 0
    while True:
        more = below_rows(seed, np.arange(len(rows), drawn), [p] * width)
        rows = np.concatenate([rows, more])
        first = first_occurrences(rows, p)
        short = trials - len(first)
        if short <= 0 or drawn == limit:
            break
        # the draws the shortfall needs at the distinct rate seen so far, with
        # a margin that doubles each round (so at most log2(limit) rounds)
        rounds += 1
        drawn = min(drawn + (-(-short * drawn // len(first)) << rounds), limit)
    first = first[:trials]
    return rows[first].astype(_dtype(p)).reshape(len(first), nparams, k)


def _shortfall(nparams: int, ctx: FieldCtx, trials: int, tested: int) -> str:
    space = ctx.q**nparams
    if space < trials:
        why = f"the parameter space has only {space} points"
    else:
        why = f"{_attempt_limit(trials)} draws reached the attempt limit"
    return f"tested {tested} distinct members of {trials} requested: {why}"


def _solve_at_point_candidates(
    fam: ParametricFamily, ctx: FieldCtx, trials: int, seed: int, member_cap: int, budget: int
) -> np.ndarray:
    """Basis digits (candidates x nparams x k) of the parameter points whose
    member is singular at trial t's point, drawn from stream split(seed, t);
    each is kept at its first occurrence in trial order."""
    if not fam.is_linear_in_params():
        raise NotLinearInParams(
            "solve-at-point needs a family that is linear in the parameters"
        )
    n, npar, p = fam.nvars, fam.nparams, ctx.p
    poly = fam.poly.map_domain(ctx)
    size = projective_size(ctx.q, n)
    _check_budget(ctx.q, n, budget)
    drawn = below_rows(seed, np.arange(trials), [size])[:, 0].astype(np.int64)
    points = _projective_planes(ctx, n, drawn)
    # each condition (f or a partial) at each trial's point, as an affine form
    # in the parameters: columns p1..p{npar}, then minus the constant term
    system = np.zeros((ctx.k, trials, n + 1, npar + 1), dtype=_dtype(p))
    for row, eq in enumerate([poly] + [poly.partial(i) for i in range(n)]):
        swapped = MultiPoly(npar + n, ctx, {e[n:] + e[:n]: c for e, c in eq.terms.items()})
        pmons, C = _member_coefficients(swapped, npar, points, ctx)
        for col, m in enumerate(pmons):
            if any(m):
                system[:, :, row, m.index(1)] = C[:, :, col]
            else:
                system[:, :, row, npar] = -C[:, :, col] % p
    # each trial's solutions, read from one RREF of its [A | b]
    found = [np.zeros((ctx.k, 0, npar), dtype=system.dtype)]
    for t in range(trials):
        solved = exactla.solve_augmented(exactla.ExactMatrix.from_planes(ctx, system[:, t]))
        if solved is None:
            continue  # inconsistent
        sol, kernel = solved
        dim = kernel.shape[1]
        count = ctx.q ** dim
        if count > member_cap:
            raise BudgetExceeded(
                f"solution space has {count} parameter points (cap {member_cap})"
            )
        combos = digit_rows(np.arange(count), [p] * (dim * ctx.k)).reshape(count, dim, ctx.k)
        combos = np.moveaxis(combos, 2, 0).astype(system.dtype)
        found.append((plane_matmul(ctx, combos, kernel) + sol[:, None]) % p)
    digits = np.moveaxis(np.concatenate(found, axis=1), 0, -1)  # solutions x npar x k
    flat = digits.reshape(len(digits), npar * ctx.k).astype(np.uint64)
    return digits[first_occurrences(flat, p)]
