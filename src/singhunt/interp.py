"""Recover defining equations of loci in parameter space by interpolation.

The vanishing system of a point set at a given degree is the kernel of the
points-by-monomials evaluation matrix; oversampled draws guard against
overfitting to isolated solutions, and tangent-space dimension filters
transversally-cut isolated points out of the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exactla
from .errors import BudgetExceeded, InsufficientPoints, NotOnVariety, SinghuntError, at_line, data_lines
from .fields import FieldCtx, monomial_values, parse_element, to_planes, to_scalars
from .poly import MultiPoly, monomial_basis
from .rng import split

DEFAULT_COLUMN_CAP = 20_000


@dataclass
class PointSet:
    ctx: FieldCtx
    points: list[tuple]
    dedup: bool = True

    def __post_init__(self):
        pts = []
        seen = set()
        for pt in self.points:
            tup = tuple(self.ctx.element(v) for v in pt)
            key = tuple(v.coeffs for v in tup)
            if self.dedup:
                if key in seen:
                    continue
                seen.add(key)
            pts.append(tup)
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_text(cls, ctx: FieldCtx, text: str, dedup: bool = True) -> "PointSet":
        """One point per line; every point has as many coordinates as the first."""
        pts = []
        for lineno, line in data_lines(text):
            with at_line(lineno):
                point = tuple(parse_element(ctx, tok) for tok in line.split())
                if pts and len(point) != len(pts[0]):
                    raise SinghuntError(f"{len(point)} coordinates, the first point has {len(pts[0])}")
            pts.append(point)
        return cls(ctx, pts, dedup)


@dataclass
class VanishingSystem:
    ctx: FieldCtx
    nvars: int
    degree: int
    homogeneous: bool
    monomials: list[tuple[int, ...]]
    basis: list[list]  # coefficient vectors over the field, one per polynomial

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def polys(self) -> list[MultiPoly]:
        out = []
        for vec in self.basis:
            terms = {m: c for m, c in zip(self.monomials, vec)}
            out.append(MultiPoly(self.nvars, self.ctx, terms))
        return out


def vanishing_system(
    pts: PointSet,
    degree: int,
    homogeneous: bool = False,
    column_cap: int = DEFAULT_COLUMN_CAP,
) -> VanishingSystem:
    """Basis of degree-`degree` polynomials vanishing on every point."""
    if not pts.points:
        raise InsufficientPoints("empty point set")
    nvars = len(pts.points[0])
    monomials = monomial_basis(nvars, degree, "exactly" if homogeneous else "at-most")
    if len(monomials) > column_cap:
        raise BudgetExceeded(
            f"{len(monomials)} monomial columns exceed the cap {column_cap}"
        )
    ctx = pts.ctx
    rows = monomial_values(ctx, to_planes(ctx, pts.points), np.array(monomials, dtype=np.int64))
    kernel = exactla.nullspace(exactla.ExactMatrix.from_planes(ctx, rows))
    return VanishingSystem(pts.ctx, nvars, degree, homogeneous, monomials, kernel)


def oversampled_system(
    pts: PointSet,
    degree: int,
    slack: int = 2,
    homogeneous: bool = False,
    draws: int = 3,
    seed: int = 0,
    column_cap: int = DEFAULT_COLUMN_CAP,
) -> VanishingSystem:
    """Interpolate through several slightly-oversampled draws at once.

    Each of the draws >= 1 uses |monomials| + slack points sampled without
    replacement; the kept polynomials are the kernel of every draw's
    evaluation rows stacked, so a polynomial must vanish on every draw to
    survive.  This suppresses components that only exist because of
    repeated isolated solutions.  With two or more draws the basis is in
    RREF, the same for any spanning set of that kernel.
    """
    if slack < 1:
        raise ValueError("slack must be >= 1")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if not pts.points:
        raise InsufficientPoints("empty point set")
    nvars = len(pts.points[0])
    need = len(monomial_basis(nvars, degree, "exactly" if homogeneous else "at-most")) + slack
    if len(pts.points) < need:
        raise InsufficientPoints(
            f"need {need} points (|monomials| + slack), have {len(pts.points)}"
        )
    stacked = []
    for d in range(draws):
        order = list(range(len(pts.points)))
        split(seed, d).shuffle(order)
        stacked += [pts.points[i] for i in order[:need]]
    system = vanishing_system(PointSet(pts.ctx, stacked, dedup=False), degree, homogeneous, column_cap)
    if draws > 1 and system.basis:
        R, pivots, _ = exactla.rref(exactla.ExactMatrix.make(pts.ctx, system.basis))
        system.basis = to_scalars(pts.ctx, R.planes[:, : len(pivots)])
    return system


def tangent_dim(gens: Sequence[MultiPoly], pt: Sequence) -> int:
    """Ambient dimension minus the Jacobian rank of the generators at pt."""
    if not gens:
        raise NotOnVariety("no generators given")
    nvars = gens[0].nvars
    point = list(pt)
    rows = []
    for g in gens:
        if g.eval(point):
            raise NotOnVariety(f"generator {g} does not vanish at the point")
        rows.append([g.partial(i).eval(point) for i in range(nvars)])
    rk = exactla.rank(exactla.ExactMatrix.make(gens[0].domain, rows))
    return nvars - rk


def filter_isolated(pts: PointSet, gens: Sequence[MultiPoly]) -> PointSet:
    """Drop points with zero-dimensional tangent space; keep the rest."""
    kept = [pt for pt in pts.points if tangent_dim(gens, pt) >= 1]
    return PointSet(pts.ctx, kept, dedup=pts.dedup)
