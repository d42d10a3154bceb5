"""Recover defining equations of loci in parameter space by interpolation.

The vanishing system of a point set at a given degree is the kernel of the
points-by-monomials evaluation matrix; oversampled draws guard against
overfitting to isolated solutions, and tangent-space dimension filters
transversally-cut isolated points out of the sample.  A point set holds its
points as digit planes, so a point file over GF(p) reaches the kernel as
residue arrays, with no FieldElement per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import exactla
from .errors import BudgetExceeded, InsufficientPoints, NotOnVariety, SinghuntError, at_line, data_lines
from .fields import FieldCtx, _dtype, monomial_values, parse_element, to_elements, to_planes, to_scalars
from .poly import MultiPoly, monomial_basis, monomial_count
from .rng import first_occurrences, permutation_rows

COLUMN_CAP = 20_000  # monomial columns of one vanishing system


class PointSet:
    """Points of affine space over ctx, held as digit planes (k x points x
    coordinates).  With dedup (the default) only the first occurrence of each
    point is kept, in input order."""

    def __init__(self, ctx: FieldCtx, points: Sequence[Sequence], dedup: bool = True):
        pts = [tuple(pt) for pt in points]
        planes = to_planes(ctx, pts) if pts else np.zeros((ctx.k, 0, 0), dtype=_dtype(ctx.p))
        self._keep(ctx, planes, dedup)

    @classmethod
    def from_planes(cls, ctx: FieldCtx, planes: np.ndarray, dedup: bool = True) -> "PointSet":
        """The points whose digit planes are given, with no conversion."""
        pts = cls.__new__(cls)
        pts._keep(ctx, planes, dedup)
        return pts

    def _keep(self, ctx: FieldCtx, planes: np.ndarray, dedup: bool) -> None:
        if dedup and planes.shape[1]:
            digits = np.moveaxis(planes, 0, -1).reshape(planes.shape[1], -1)
            planes = planes[:, first_occurrences(digits.astype(np.uint64), ctx.p)]
        self.ctx, self.planes, self.dedup = ctx, planes, dedup

    @property
    def points(self) -> list[tuple]:
        """The points as tuples of FieldElements."""
        return [tuple(row) for row in to_elements(self.ctx, self.planes)]

    def __len__(self) -> int:
        return self.planes.shape[1]

    @classmethod
    def from_text(cls, ctx: FieldCtx, text: str) -> "PointSet":
        """One point per line; every point has as many coordinates as the first.

        Over GF(p) every token is read by int(), as ``parse_element`` reads
        it, into one int64 array that is reduced mod p.  A file that cannot
        be read that way (a token int() rejects, a ragged line, a value
        past int64, a prime whose residues are not int64) is parsed token
        by token, which raises the error of the first bad line."""
        lines = list(data_lines(text))
        rows = [line.split() for _, line in lines]
        rectangular = rows and all(len(r) == len(rows[0]) for r in rows)
        if ctx.k == 1 and _dtype(ctx.p) is np.int64 and rectangular:
            try:
                values = np.array(list(map(int, chain.from_iterable(rows))), dtype=np.int64)
            except (ValueError, OverflowError):
                pass
            else:
                return cls.from_planes(ctx, (values.reshape(len(rows), -1) % ctx.p)[None])
        pts = []
        for lineno, line in lines:
            with at_line(lineno):
                point = tuple(parse_element(ctx, tok) for tok in line.split())
                if pts and len(point) != len(pts[0]):
                    raise SinghuntError(f"{len(point)} coordinates, the first point has {len(pts[0])}")
            pts.append(point)
        return cls(ctx, pts)


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


def vanishing_system(pts: PointSet, degree: int, homogeneous: bool = False) -> VanishingSystem:
    """Basis of degree-`degree` polynomials vanishing on every point."""
    if not pts:
        raise InsufficientPoints("empty point set")
    nvars = pts.planes.shape[2]
    mode = "exactly" if homogeneous else "at-most"
    count = monomial_count(nvars, degree, mode)
    if count > COLUMN_CAP:
        raise BudgetExceeded(f"{count} monomial columns exceed the cap {COLUMN_CAP}")
    monomials = monomial_basis(nvars, degree, mode)
    rows = monomial_values(pts.ctx, pts.planes, np.array(monomials, dtype=np.int64))
    kernel = exactla.nullspace(exactla.ExactMatrix.from_planes(pts.ctx, rows))
    return VanishingSystem(pts.ctx, nvars, degree, homogeneous, monomials, kernel)


def oversampled_system(
    pts: PointSet,
    degree: int,
    slack: int = 2,
    homogeneous: bool = False,
    draws: int = 3,
    seed: int = 0,
) -> VanishingSystem:
    """Interpolate through several slightly-oversampled draws at once.

    Each of the draws >= 1 uses |monomials| + slack points sampled without
    replacement; the kept polynomials are the kernel of every draw's
    evaluation rows stacked, so a polynomial must vanish on every draw to
    survive.  This suppresses components that only exist because of
    repeated isolated solutions.  With two or more draws the basis is in
    RREF, the same for any spanning set of that kernel.  Draw d starts the
    Fisher-Yates shuffle of stream split(seed, d), row d of
    ``permutation_rows``.
    """
    if slack < 1:
        raise ValueError("slack must be >= 1")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    if not pts:
        raise InsufficientPoints("empty point set")
    need = monomial_count(pts.planes.shape[2], degree, "exactly" if homogeneous else "at-most") + slack
    n = len(pts)
    if n < need:
        raise InsufficientPoints(f"need {need} points (|monomials| + slack), have {n}")
    stacked = permutation_rows(seed, range(draws), n)[:, :need].ravel()
    system = vanishing_system(PointSet.from_planes(pts.ctx, pts.planes[:, stacked], dedup=False),
                              degree, homogeneous)
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
    kept = [i for i, pt in enumerate(pts.points) if tangent_dim(gens, pt) >= 1]
    return PointSet.from_planes(pts.ctx, pts.planes[:, kept], dedup=pts.dedup)
