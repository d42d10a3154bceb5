"""Detect singular members in a family and classify isolated singularities.

A member is singular at a projective point when the defining polynomial and
all its geometric partials vanish there.  Members are scanned in batches over
every rational point; a family of forms first drops the members whose
Macaulay matrix of the partials has full column rank, which have no singular
point (one ``exactla.rank_stack`` per batch, where that costs less than the
scan; see the Macaulay prune below).  The scan returns a member table: the
singular cells as arrays of member rows and point indices, in report order
after one lexsort.  One more lexsort over the parameter digits orders the
members.  Only the reported members' parameters and points become
FieldElements, and their report lines are built from the table's digits:
each distinct value used makes one FieldElement and one string
(``fields._format_t_poly`` of its digits, as the element prints), which the
members share, and an unclassified point is one SingularPoint shared by
every member singular there; ``SingularMember.text``, the one formatter,
joins those strings.  Classification is numeric:
corank of the Hessian plus the Tjurina number computed by truncated
local-algebra linear algebra, which separates the A_k types without any
Groebner machinery.
A point whose n x n Hessian is regular is A1 by the Morse lemma; every other
classified point takes one elimination: the corank and the Tjurina numbers
at both caps are read from the pivots of a single RREF.  Its cells are
counted first, and a matrix of more than TJURINA_CELLS is refused.
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
    _format_t_poly,
    monomial_values,
    plane_matmul,
    plane_mul,
    reduce_int,
    to_elements,
)
from .poly import QQ, ZZ, MultiPoly, ParametricFamily, coerce, monomial_basis, monomial_count
from .rng import below_rows, digit_rows, distinct_rows, first_occurrences

DEFAULT_POINT_BUDGET = 2_000_000
DEFAULT_CAP = 8
MEMBER_CAP = 10_000  # parameter points of one solve-at-point solution space
TJURINA_CELLS = 1_000_000  # cells of one Tjurina matrix; at the cap about 2 s over GF(101)
UNCLASSIFIED = "?"


@dataclass(frozen=True)
class SingularPoint:
    coords: tuple
    label: str = UNCLASSIFIED
    corank: int | None = None
    tjurina: int | None = None
    diagnostic: str = ""
    names: tuple[str, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.names is None:  # the coordinates as the report prints them
            object.__setattr__(self, "names", tuple(map(str, self.coords)))

    def text(self) -> str:
        return "(" + ":".join(self.names) + ")"


@dataclass
class SingularMember:
    params: tuple
    points: list[SingularPoint] = field(default_factory=list)
    names: tuple[str, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.names is None:  # the parameters as the report prints them
            self.names = tuple(map(str, self.params))

    def signature(self) -> str:
        return _signature(tuple([pt.label for pt in self.points]))

    def text(self) -> str:
        pts = " ".join([pt.text() for pt in self.points])
        return f"({','.join(self.names)}) | {self.signature()} | {pts}"


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


_signature = functools.lru_cache(maxsize=1024)(signature_string)  # of a tuple of labels


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
    _, points = _family_scan(ParametricFamily(f, f.nvars, 0), ctx, params, budget)
    return list(map(tuple, to_elements(ctx, _projective_planes(ctx, f.nvars, points))))


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
    The coefficients may lie in ctx or in ZZ (an integer c is c mod p in plane
    0); a term that vanishes in ctx is dropped, as on a family over ctx.
    """
    digits = {e: coerce(ctx, c).coeffs for e, c in poly.terms.items()}
    digits = {e: d for e, d in digits.items() if any(d)}
    xmons = sorted({e[:nvars] for e in digits})
    pmons = sorted({e[nvars:] for e in digits})
    xpos = {m: i for i, m in enumerate(xmons)}
    ppos = {m: i for i, m in enumerate(pmons)}
    A = np.zeros((ctx.k, len(xmons), len(pmons)), dtype=_dtype(ctx.p))
    A[:, [xpos[e[:nvars]] for e in digits], [ppos[e[nvars:]] for e in digits]] = (
        np.array(list(digits.values()), dtype=A.dtype).reshape(len(digits), ctx.k).T)
    pmon = monomial_values(ctx, params, _exponent_array(pmons, params.shape[2]))
    return xmons, plane_matmul(ctx, pmon, A.transpose(0, 2, 1))


def _scan(
    xmons: list[tuple[int, ...]], C: np.ndarray, ctx: FieldCtx, n: int, check_f: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, points): the singular cells of the members (rows of the planes
    C, coefficients of xmons) as member rows and point indices of
    projective_points(ctx, n), scanning P^(n-1): each monomial table's points
    are decoded from their index range, so no array of every point is made.

    A point is singular when every partial vanishes there, and f too when
    check_f (by the Euler relation, a form of degree prime to p vanishes
    wherever its partials do).  A value is zero when all its planes are.
    The cells come by member row, and each member's points in report order:
    enumeration order, but sorted by coordinates for a nonzero binary form
    over GF(p).
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
        ([where[m] for m in ms], reduce_int(C[:, :, list(cols)] * np.array(mult, dtype=C.dtype), p))
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
                keep = ~reduce_int(terms.sum(axis=2), p).any(axis=0)
                b, t = b[keep], t[keep]
        found_b.append(start + b)
        found_t.append(t)
    b, t = np.concatenate(found_b), np.concatenate(found_t)
    rank = b
    if ctx.k == 1 and n == 2 and len(t):
        # P^1 over GF(p) enumerates (1:0), ..., (1:p-1), (0:1); sorted by
        # coordinates (0:1) comes first, so point b has rank (b + 1) % (p + 1).
        # A member is a nonzero form when the lowest and highest degree of
        # its terms (as ranks among the degrees of xmons) agree.
        degrees = [sum(m) for m in xmons]
        level = {e: i for i, e in enumerate(sorted(set(degrees)))}
        levels = np.array([level[e] for e in degrees], dtype=np.int64)
        nonzero = np.asarray(C[0] != 0, dtype=bool)
        lo = np.where(nonzero, levels, len(level)).min(axis=1, initial=len(level))
        form = lo == np.where(nonzero, levels, -1).max(axis=1, initial=-1)
        rank = np.where(form[t], (b + 1) % (p + 1), b)
    order = np.lexsort((rank, t))
    return t[order], b[order]


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
    part of g, has rank n."""
    n = g.nvars
    entries = {}
    for e, c in g.terms.items():
        if sum(e) == 2:
            i, j = (v for v in range(n) for _ in range(e[v]))
            entries[i, j] = entries[j, i] = 2 * c if i == j else c
    return exactla.rank(exactla.ExactMatrix.sparse(g.domain, n, n, entries)) == n


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
    gens = []  # (h, its order) where some multiple of h survives truncation
    for h in [g] + [g.partial(i) for i in range(n)]:
        order = min((sum(e) for e in h.terms), default=cap)
        if order < cap:
            gens.append((h, order))
    cols = monomial_count(n, cap - 1)
    cells = sum(monomial_count(n, cap - 1 - order) for _, order in gens) * cols
    if cells > TJURINA_CELLS:
        raise BudgetExceeded(f"tjurina matrix at --cap {cap} has {cells} cells, more than {TJURINA_CELLS}")
    lo = monomial_count(n, cap - 2)
    index = {m: i for i, m in enumerate(monomial_basis(n, cap - 1))}
    entries = {}  # (row, column) -> coefficient
    rows = 0
    for h, order in gens:
        for m in monomial_basis(n, cap - 1 - order, "at-most"):
            for exps, c in h.terms.items():  # the lowest terms of h survive: no row is empty
                pos = index.get(tuple(a + b for a, b in zip(exps, m)))
                if pos is not None:
                    entries[rows, pos] = c
            rows += 1
    pivots = []
    if rows:
        pivots = exactla.rref(exactla.ExactMatrix.sparse(g.domain, rows, cols, entries))[1]
    hessian_rank = sum(c <= n for c in pivots)  # columns 1..n are the degree-1 monomials
    return n - hessian_rank, lo - sum(c < lo for c in pivots), cols - len(pivots)


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

    rows, points = _family_scan(fam, ctx, np.moveaxis(digits, 2, 0), budget)
    if not len(rows):  # most small hunts: skip the table's fixed numpy cost
        return []
    singular, firsts = np.unique(rows, return_index=True)
    bounds = np.append(firsts, len(rows)).tolist()
    # report order: by parameters, each parameter's digits low degree first
    flat = digits[singular].reshape(len(singular), fam.nparams * ctx.k)
    order = np.lexsort((singular, *flat.T[::-1]))
    used, cell_point = np.unique(points, return_inverse=True)
    coords, coord_names = _named_rows(ctx, _projective_planes(ctx, fam.nvars, used))
    unclassified = [SingularPoint(c, names=n) for c, n in zip(coords, coord_names)]  # shared by the members
    cell_point = cell_point.tolist()
    members = []
    for j, ps, names in zip(order.tolist(), *_named_rows(ctx, np.moveaxis(digits[singular[order]], 2, 0))):
        pts = cell_point[bounds[j]:bounds[j + 1]]
        if classify_points:
            # a family without parameters specialises to its own integer polynomial
            member_poly = fam.specialize(ps).map_domain(ctx)
            spts = [_classified(member_poly, coords[i], cap) for i in pts]
        else:
            spts = list(map(unclassified.__getitem__, pts))
        members.append(SingularMember(ps, spts, names))
    return members


def _named_rows(ctx: FieldCtx, planes: np.ndarray) -> tuple[list[tuple], list[tuple[str, ...]]]:
    """(values, names): each row of the planes (k x rows x width) as its
    FieldElements and as their strings in the report.  One element and one
    string are made per distinct value, the string by
    ``fields._format_t_poly`` on its digits, as a FieldElement prints."""
    k, rows, width = planes.shape
    digits = list(zip(*planes.reshape(k, -1).tolist()))  # each value's digits
    distinct = set(digits)
    values = list(map({d: FieldElement(ctx, d) for d in distinct}.__getitem__, digits))
    names = list(map({d: _format_t_poly(d) for d in distinct}.__getitem__, digits))
    cut = [slice(i * width, (i + 1) * width) for i in range(rows)]
    return [tuple(values[s]) for s in cut], [tuple(names[s]) for s in cut]


def _classified(member_poly: MultiPoly, coords: tuple, cap: int) -> SingularPoint:
    """The classified point, or an unclassified one with the reason where
    classification does not apply: a characteristic too small for the degree,
    a member that is not homogeneous in x, or a Tjurina matrix over the
    cell cap."""
    try:
        return classify(member_poly, coords, cap)
    except (SmallCharacteristic, NotSingular, BudgetExceeded) as exc:
        return SingularPoint(coords, UNCLASSIFIED, None, None, str(exc))


def _family_scan(
    fam: ParametricFamily, ctx: FieldCtx, params: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, points): the singular cells of the members, one parameter row
    (planes k x rows x nparams) each, as ``_scan`` gives them.  A family of
    forms of degree d >= 1 first drops the members that ``_may_be_singular``
    rules out, when that costs less than scanning them."""
    found = [(np.zeros(0, dtype=np.int64),) * 2]
    if not params.shape[1]:
        return found[0]
    n = fam.nvars
    _check_budget(ctx.q, n, budget)
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
        xmons, C = _member_coefficients(fam.poly, n, params[:, start:start + SCAN_CELLS], ctx)
        rows = np.arange(C.shape[1])
        if prune and _prune_pays(xmons, ctx, n, fam.x_degree):
            rows = rows[_may_be_singular(xmons, C, ctx, n, fam.x_degree)]
        if len(rows):
            t, b = _scan(xmons, C[:, rows], ctx, n, check_f)
            found.append((start + rows[t], b))
    return tuple(np.concatenate(cells) for cells in zip(*found))


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


def _macaulay_shape(n: int, d: int) -> tuple[int, int]:
    """(rows, cols) of ``_macaulay_gather``'s matrix, without building it:
    n shifts by each monomial of degree D - d + 1, and the monomials of
    degree D."""
    D = max(n * (d - 2) + 1, d - 1)
    return n * monomial_count(n, D - d + 1, "exactly"), monomial_count(n, D, "exactly")


def _prune_pays(xmons: list[tuple[int, ...]], ctx: FieldCtx, n: int, d: int) -> bool:
    """Whether ranking a member's Macaulay matrix (rows * cols * min(rows,
    cols)) costs no more than scanning the member (points * monomials)."""
    rows, cols = _macaulay_shape(n, d)
    return rows * cols * min(rows, cols) <= projective_size(ctx.q, n) * len(xmons)


def _may_be_singular(
    xmons: list[tuple[int, ...]], C: np.ndarray, ctx: FieldCtx, n: int, d: int
) -> np.ndarray:
    """A mask of the members (rows of the planes C, forms of degree d >= 1
    with the monomials xmons) whose Macaulay matrix is short of full column
    rank: no member outside it has a singular point.  The matrices are
    ranked by ``exactla.rank_stack``, about SCAN_CELLS cells at a time."""
    (rows, cols), cells, sources, mults = _macaulay_gather(tuple(xmons), n, d, ctx.p)
    mults = np.array(mults, dtype=C.dtype)[:, None]
    members = C.shape[1]
    keep = np.empty(members, dtype=bool)
    step = max(1, SCAN_CELLS // (rows * cols))
    for lo in range(0, members, step):
        batch = C[:, lo:lo + step].transpose(0, 2, 1)  # k x monomials x members
        M = np.zeros((ctx.k, rows * cols, batch.shape[2]), dtype=C.dtype)
        M[:, cells] = batch[:, sources] * mults
        stack = M.reshape(ctx.k, rows, cols, -1).transpose(0, 3, 1, 2)
        keep[lo:lo + step] = exactla.rank_stack(stack, ctx) < cols
    return keep


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
    kept, seen = [], None  # the distinct rows of each round, and the sorted keys of all
    # the first round also draws twice the repeats expected among trials
    # draws (trials^2 / 2 space), so that it usually needs no second
    done, drawn, rounds = 0, min(trials + trials * trials // space + 8, limit), 0
    while True:
        more = below_rows(seed, np.arange(done, drawn), [p] * width)
        first, seen = distinct_rows(more, p, seen)  # only the new rows are sorted
        kept.append(more[first])
        short = trials - len(seen)
        if short <= 0 or drawn == limit:
            break
        # the draws the shortfall needs at the distinct rate seen so far, with
        # a margin that doubles each round (so at most log2(limit) rounds)
        rounds += 1
        done, drawn = drawn, min(drawn + (-(-short * drawn // len(seen)) << rounds), limit)
    rows = np.concatenate(kept)[:trials]
    return rows.astype(_dtype(p)).reshape(len(rows), nparams, k)


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
    poly = fam.poly
    size = projective_size(ctx.q, n)
    _check_budget(ctx.q, n, budget)
    drawn = below_rows(seed, np.arange(trials), [size])[:, 0].astype(np.int64)
    points = _projective_planes(ctx, n, drawn)
    # each condition (f or a partial) at each trial's point, as an affine form
    # in the parameters: columns p1..p{npar}, then minus the constant term
    system = np.zeros((ctx.k, trials, n + 1, npar + 1), dtype=_dtype(p))
    for row, eq in enumerate([poly] + [poly.partial(i) for i in range(n)]):
        swapped = MultiPoly(npar + n, poly.domain, {e[n:] + e[:n]: c for e, c in eq.terms.items()})
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
