"""Lift modular data to characteristic zero.

Residues collected modulo several good primes are combined by the Chinese
remainder theorem and turned back into rationals by balanced rational
reconstruction (|num|, den <= sqrt(M/2)).  With three or more primes one
prime is held out as a verification check, and a leave-one-out sweep
identifies bad primes when the check fails.  Unordered pairs {a, b} are
lifted through the symmetric functions a+b and a*b, whose values do not
depend on the ordering of the two roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, prod
from typing import Sequence

from .errors import (
    BadPrime,
    DuplicatePrime,
    HeldOutMismatch,
    NoReconstruction,
    SinghuntError,
    data_lines,
)
from .fields import is_prime


@dataclass(frozen=True)
class ResidueSystem:
    primes: tuple[int, ...]
    residues: tuple  # per-prime payload: int | tuple of ints | frozenset pair

    def __post_init__(self):
        if len(set(self.primes)) != len(self.primes):
            raise DuplicatePrime(f"repeated primes in {self.primes}")
        if len(self.primes) != len(self.residues):
            raise ValueError("one residue per prime required")

    @classmethod
    def make(cls, pairs: Sequence[tuple[int, object]]) -> "ResidueSystem":
        primes = tuple(p for p, _ in pairs)
        residues = tuple(r for _, r in pairs)
        return cls(primes, residues)


@dataclass(frozen=True)
class LiftedRational:
    value: Fraction
    modulus_product: int
    verified_primes: int


def reduce_rational(x: Fraction, p: int) -> int:
    """x mod p; raises BadPrime when p divides the denominator."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise BadPrime(f"{p} divides the denominator of {x}")
    return x.numerator * pow(x.denominator, p - 2, p) % p


def crt(rs: ResidueSystem) -> tuple[int, int]:
    """Unique x in [0, M) with x = r_i mod p_i, M the product of the primes."""
    M = prod(rs.primes)
    x = 0
    for p, r in zip(rs.primes, rs.residues):
        if not isinstance(r, int):
            raise ValueError("crt needs integer residues")
        other = M // p
        x = (x + (r % p) * other * pow(other % p, p - 2, p)) % M
    return x, M


def ratrec(a: int, M: int) -> Fraction:
    """The unique n/d with |n|, d <= sqrt(M/2), gcd(n,d)=1, n = a*d mod M.

    Half-extended Euclid with early stop; raises NoReconstruction when no
    such pair exists (the usual signal that more primes are needed).
    """
    if not 0 <= a < M:
        raise ValueError("need 0 <= a < M")
    bound = isqrt(M // 2)
    r0, t0 = M, 0
    r1, t1 = a, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    n, d = r1, t1
    if d < 0:
        n, d = -n, -d
    if d == 0 or d > bound or gcd(abs(n), d) != 1:
        raise NoReconstruction(
            f"no rational with height <= {bound} is congruent to {a} mod {M}"
        )
    if (n - a * d) % M != 0:
        raise NoReconstruction("reconstruction failed the congruence check")
    return Fraction(n, d)


def _lift_once(primes: Sequence[int], residues: Sequence[int]) -> Fraction:
    sub = ResidueSystem(tuple(primes), tuple(residues))
    a, M = crt(sub)
    return ratrec(a, M)


def _verifies(value: Fraction, primes: Sequence[int], residues: Sequence[int]) -> bool:
    try:
        return all(
            reduce_rational(value, p) == r % p for p, r in zip(primes, residues)
        )
    except BadPrime:
        return False


def lift_rational(rs: ResidueSystem) -> LiftedRational:
    """CRT + rational reconstruction with a held-out verification prime.

    With >= 3 primes, the largest prime is excluded from the CRT and the
    reconstructed value is checked against it (and every other prime).  On
    failure, a leave-one-out sweep over subsets of up to two primes looks
    for a consistent sub-system and reports the suspects.
    """
    if len(rs.primes) < 2:
        raise ValueError("need at least two primes")
    primes = list(rs.primes)
    residues = [int(r) % p for p, r in zip(primes, rs.residues)]
    if len(primes) >= 3:
        held = max(primes)
        idx = primes.index(held)
        crt_primes = primes[:idx] + primes[idx + 1:]
        crt_residues = residues[:idx] + residues[idx + 1:]
    else:
        crt_primes, crt_residues = primes, residues
    try:
        value = _lift_once(crt_primes, crt_residues)
        if _verifies(value, primes, residues):
            return LiftedRational(value, prod(crt_primes), len(primes))
    except NoReconstruction:
        if len(primes) < 3:
            raise
    suspects = _suspect_sets(primes, residues)
    if suspects:
        named = ", ".join(str(s) for s in suspects)
        raise HeldOutMismatch(
            f"lift inconsistent; candidate bad prime set(s): {named}",
            suspects=suspects[0],
        )
    raise NoReconstruction(
        "no consistent reconstruction found; collect more primes"
    )


def _suspect_sets(primes: list[int], residues: list[int]) -> list[tuple[int, ...]]:
    """Minimal sets (size 1 then 2) whose removal makes the lift consistent."""
    n = len(primes)
    for size in (1, 2):
        if n - size < 2:
            break
        found = []
        for cut in combinations(range(n), size):
            keep = [i for i in range(n) if i not in cut]
            try:
                value = _lift_once(
                    [primes[i] for i in keep], [residues[i] for i in keep]
                )
            except NoReconstruction:
                continue
            if _verifies(value, [primes[i] for i in keep], [residues[i] for i in keep]):
                found.append(tuple(primes[i] for i in cut))
        if found:
            return found
    return []


@dataclass(frozen=True)
class PairLift:
    """Monic quadratic x^2 - e1*x + e2 through the lifted pair."""

    e1: Fraction
    e2: Fraction
    roots: tuple[Fraction, Fraction] | None

    def quadratic_text(self) -> str:
        from .poly import MultiPoly, QQ, format_poly

        f = MultiPoly(1, QQ, {(2,): 1, (1,): -self.e1, (0,): self.e2})
        return format_poly(f)


def lift_unordered_pairs(rs: ResidueSystem) -> PairLift:
    """Lift per-prime unordered pairs {a_i, b_i} via symmetric functions."""
    e1_pairs = []
    e2_pairs = []
    for p, payload in zip(rs.primes, rs.residues):
        pair = tuple(payload)
        if len(pair) == 1:
            pair = (pair[0], pair[0])
        if len(pair) != 2:
            raise ValueError(f"payload {payload!r} is not an unordered pair")
        a, b = int(pair[0]) % p, int(pair[1]) % p
        e1_pairs.append((p, (a + b) % p))
        e2_pairs.append((p, a * b % p))
    e1 = lift_rational(ResidueSystem.make(e1_pairs)).value
    e2 = lift_rational(ResidueSystem.make(e2_pairs)).value
    disc = e1 * e1 - 4 * e2
    roots = None
    if disc >= 0:
        sq_num = isqrt(disc.numerator)
        sq_den = isqrt(disc.denominator)
        if sq_num * sq_num == disc.numerator and sq_den * sq_den == disc.denominator:
            s = Fraction(sq_num, sq_den)
            r1, r2 = (e1 - s) / 2, (e1 + s) / 2
            roots = (r1, r2)
    return PairLift(e1, e2, roots)


def lift_extension_tuples(rs: ResidueSystem) -> list[Fraction]:
    """Componentwise lift of per-prime basis tuples of equal length k."""
    lengths = {len(tuple(r)) for r in rs.residues}
    if len(lengths) != 1:
        raise ValueError("all tuples must have the same length")
    k = lengths.pop()
    out = []
    for comp in range(k):
        pairs = [(p, tuple(r)[comp]) for p, r in zip(rs.primes, rs.residues)]
        try:
            out.append(lift_rational(ResidueSystem.make(pairs)).value)
        except (NoReconstruction, HeldOutMismatch) as exc:
            exc.args = (f"component {comp}: {exc.args[0]}",) + exc.args[1:]
            raise
    return out


# ---------------------------------------------------------------------------
# residue file format: one line per prime, "p: payload"; payload is an
# integer, a pair "a,b", or a tuple "a,b,...,z" when lifting basis tuples
# ---------------------------------------------------------------------------

def parse_residue_file(text: str, shape: str | None = None) -> ResidueSystem:
    """The residues of a file; a line of one residue gives an int payload, a
    longer line a tuple.  shape, when given, is the payload every line must
    have: "value" (one residue), "pair" (two) or "tuple" (as many as on the
    first line, always a tuple)."""
    pairs = []
    width = {"value": 1, "pair": 2}.get(shape)
    for lineno, line in data_lines(text):
        head, colon, tail = line.partition(":")
        try:
            if not colon:
                raise ValueError("expected 'prime: residues'")
            p = int(head.strip())
            if not is_prime(p):
                raise ValueError(f"{p} is not a prime")
            parts = tuple(int(tok) for tok in tail.replace(",", " ").split())
            if not parts:
                raise ValueError("no residues")
            if shape == "tuple" and width is None:
                width = len(parts)
            if width not in (None, len(parts)):
                raise ValueError(f"expected {width} residue(s), got {len(parts)}")
        except ValueError as exc:
            raise SinghuntError(f"line {lineno}: bad residue line {line!r}: {exc}") from exc
        pairs.append((p, parts if len(parts) > 1 or shape == "tuple" else parts[0]))
    return ResidueSystem.make(pairs)
