"""Independent checks of CLI reports.

Nothing here imports singhunt: finite-field arithmetic, polynomial
evaluation and report parsing are re-implemented from the documented
formats, so an oracle never shares the code path it checks.  Each check
returns a problem description, or None when the output is accepted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class GF:
    """GF(p^k) on coefficient tuples (low degree first) modulo a monic modulus."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = first_irreducible(p, k) if k > 1 else (0, 1)

    def elem(self, c) -> tuple:
        if isinstance(c, tuple):
            return c
        return (c % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(len(prod) - 1, self.k - 1, -1):
            top = prod[d]
            if top:
                for i in range(self.k):
                    prod[d - self.k + i] -= top * self.modulus[i]
        return tuple(c % self.p for c in prod[: self.k])

    def power(self, a, e: int):
        out = self.elem(1)
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def inv(self, a):
        # a^(q-2) by square and multiply
        out, base, e = self.elem(1), a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_zero(self, a) -> bool:
        return not any(a)

    def parse(self, text: str) -> tuple:
        """Element syntax of the reports: '5', '3*t+1', 't^2+4*t'."""
        coeffs = [0] * self.k
        for term in text.strip().split("+"):
            head, star, tail = term.partition("*")
            if not star:
                head, tail = ("1", head) if "t" in head else (head, "")
            e = 0 if not tail else (int(tail.split("^")[1]) if "^" in tail else 1)
            coeffs[e] = (coeffs[e] + int(head)) % self.p
        return tuple(coeffs)

    def rank(self, rows) -> int:
        rows = [list(r) for r in rows]
        rank, ncols = 0, len(rows[0]) if rows else 0
        for c in range(ncols):
            piv = next((i for i in range(rank, len(rows)) if not self.is_zero(rows[i][c])), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            f = self.inv(rows[rank][c])
            rows[rank] = [self.mul(f, v) for v in rows[rank]]
            for i in range(len(rows)):
                if i != rank and not self.is_zero(rows[i][c]):
                    g = rows[i][c]
                    rows[i] = [self.add(v, self.mul(g, self.neg(w))) for v, w in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    def neg(self, a):
        return tuple((-x) % self.p for x in a)


def first_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible degree-k modulus whose (t^(k-1), ..., 1) coefficient
    vector is lexicographically smallest, as the README documents."""
    for high_first in itertools.product(range(p), repeat=k):
        f = tuple(reversed(high_first)) + (1,)
        if _irreducible(f, p):
            return f
    raise ValueError(f"no irreducible polynomial of degree {k} mod {p}")


def _irreducible(f: tuple, p: int) -> bool:
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if _divides(low + (1,), f, p):
                return False
    return True


def _divides(g: tuple, f: tuple, p: int) -> bool:
    r = list(f)
    while len(r) >= len(g):
        c = r[-1]
        shift = len(r) - len(g)
        for i, gc in enumerate(g):
            r[shift + i] = (r[shift + i] - c * gc) % p
        r.pop()
    return not any(r)


def field_repr(F: GF) -> str:
    """How reports print a field: 'GF(101)' or 'GF(7^2; t: t^2+1)'."""
    if F.k == 1:
        return f"GF({F.p})"
    parts = []
    for e in range(F.k, -1, -1):
        c = F.modulus[e]
        if c:
            mono = "" if e == 0 else ("t" if e == 1 else f"t^{e}")
            parts.append(mono if c == 1 and e else (f"{c}*{mono}" if e else str(c)))
    return f"GF({F.p}^{F.k}; t: {'+'.join(parts)})"


# ---------------------------------------------------------------------------
# report parsing
# ---------------------------------------------------------------------------

def strip_timings(text: str) -> str:
    return text.split("\ntimings:", 1)[0]


def section(text: str, name: str) -> list[tuple[str, str]]:
    """(key, value) pairs of one report section, in order."""
    out, inside = [], False
    for line in text.splitlines():
        if not line.startswith("  "):
            inside = line == f"{name}:"
            continue
        if inside:
            key, _, value = line.strip().partition(": ")
            out.append((key, value))
    return out


def first(pairs, key):
    return next((v for k, v in pairs if k == key), None)


# ---------------------------------------------------------------------------
# hunt reports
# ---------------------------------------------------------------------------

class Family:
    """A family given as terms (coefficient, x-exponents, p-exponents)."""

    def __init__(self, terms: list[tuple[int, tuple, tuple]]):
        self.terms = terms

    def member(self, F: GF, params) -> dict:
        out: dict = {}
        for c, xe, pe in self.terms:
            v = F.elem(c)
            for a, e in zip(params, pe):
                v = F.mul(v, F.power(a, e))
            out[xe] = F.add(out.get(xe, F.elem(0)), v)
        return out


def _eval(F: GF, poly: dict, pt) -> tuple:
    acc = F.elem(0)
    for xe, c in poly.items():
        v = c
        for x, e in zip(pt, xe):
            v = F.mul(v, F.power(x, e))
        acc = F.add(acc, v)
    return acc


def _partial(F: GF, poly: dict, i: int) -> dict:
    out = {}
    for xe, c in poly.items():
        if xe[i]:
            ye = xe[:i] + (xe[i] - 1,) + xe[i + 1:]
            out[ye] = F.mul(F.elem(xe[i]), c)
    return out


def singular_at(F: GF, poly: dict, pt) -> bool:
    polys = [poly] + [_partial(F, poly, i) for i in range(len(pt))]
    return all(F.is_zero(_eval(F, g, pt)) for g in polys)


def parse_members(F: GF, text: str):
    """[(params, labels signature, points)] from a hunt report."""
    results = section(text, "results")
    count = int(first(results, "members"))
    members = []
    for key, value in results:
        if key.startswith("member "):
            params, signature, points = (s.strip() for s in value.split("|"))
            params = tuple(F.parse(v) for v in params.strip("()").split(","))
            pts = [tuple(F.parse(v) for v in pt.strip("()").split(":")) for pt in points.split()]
            members.append((params, signature, pts))
    if len(members) != count:
        raise ValueError(f"members: {count} but {len(members)} member lines")
    return members


# The parameter draw of `hunt --strategy random-params`, re-implemented from
# its documentation: trial i draws each parameter's coefficients (low degree
# first) from splitmix64 stream split(seed, i), repeats are skipped, and at most
# 20 * trials + 1000 streams are read.
_MASK = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _stream(seed: int, index: int):
    state = _mix((seed & _MASK) ^ _mix(index & _MASK))
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        yield _mix(state)


def _below(stream, n: int) -> int:
    limit = (1 << 64) - ((1 << 64) % n)
    return next(u for u in stream if u < limit) % n


def param_draws(F: GF, nparams: int, trials: int, seed: int) -> list[tuple]:
    """The parameter tuples a random-params hunt tests, in order."""
    if F.q ** nparams <= trials:
        raise ValueError("a hunt whose trials cover the parameter space scans it in full")
    seen: set = set()
    out: list = []
    for i in range(20 * trials + 1000):
        if len(out) == trials:
            break
        stream = _stream(seed, i)
        params = tuple(tuple(_below(stream, F.p) for _ in range(F.k)) for _ in range(nparams))
        if params not in seen:
            seen.add(params)
            out.append(params)
    return out


def conic_gram_rank(F: GF, params) -> int:
    a, b, c = params
    two = F.elem(2)
    return F.rank([[two, a, b], [a, two, c], [b, c, two]])


def check_hunt(text: str, code, F: GF, fam: Family, conic: bool, singular: set):
    """The reported members are exactly `singular`, the drawn parameters whose
    member the caller found singular by its own test.  Every reported point is
    singular on its member; for the conic family the point count and labels
    also follow from the rank of the member's Gram matrix, computed here."""
    if code != 0:
        return f"exit code {code}"
    field = first(section(text, "inputs"), "field")
    if field != field_repr(F):
        return f"field {field!r}, expected {field_repr(F)!r}"
    try:
        members = parse_members(F, text)
    except (ValueError, IndexError, TypeError) as exc:
        return f"unparseable report: {exc}"
    seen = set()
    for params, signature, pts in members:
        if params in seen:
            return f"member {params} reported twice"
        seen.add(params)
        poly = fam.member(F, params)
        if not pts:
            return f"member {params} has no singular point"
        for pt in pts:
            lead = next((c for c in pt if not F.is_zero(c)), None)
            if lead != F.elem(1):
                return f"point {pt} is not canonical"
            if not singular_at(F, poly, pt):
                return f"point {pt} is not singular on member {params}"
        if len(set(pts)) != len(pts):
            return f"member {params} repeats a point"
        if conic:
            problem = _check_conic(F, params, signature, pts)
            if problem:
                return problem
    if seen != singular:
        missed, extra = sorted(singular - seen), sorted(seen - singular)
        return f"singular members missed: {missed[:3]}; reported but not singular: {extra[:3]}"
    return None


def _check_conic(F: GF, params, signature: str, pts):
    r = conic_gram_rank(F, params)
    expected = (F.q ** (3 - r) - 1) // (F.q - 1)
    if len(pts) != expected:
        return f"member {params}: Gram rank {r} gives {expected} points, report has {len(pts)}"
    if signature != (f"{len(pts)}A1" if r == 2 else f"{len(pts)}?"):
        return f"member {params}: signature {signature!r} for Gram rank {r}"
    return None


# ---------------------------------------------------------------------------
# polynomials over GF(p) printed by `interpolate`, and rationals mod p
# ---------------------------------------------------------------------------

def parse_poly_modp(text: str, nvars: int, p: int) -> dict:
    """'x0^2 + 5*x0*x1 + 3' -> {exponents: residue}."""
    out: dict = {}
    for sign, term in _signed_terms(text):
        coeff, exps = 1, [0] * nvars
        for factor in term.split("*"):
            if factor.startswith("x"):
                name, _, e = factor.partition("^")
                exps[int(name[1:])] += int(e) if e else 1
            else:
                coeff *= int(factor)
        key = tuple(exps)
        out[key] = (out.get(key, 0) + sign * coeff) % p
    return out


def _signed_terms(text: str):
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = -1 if tok == "-" else 1
        else:
            if tok.startswith("-"):
                sign, tok = -sign, tok[1:]
            yield sign, tok
            sign = 1


def mod_p(x: Fraction, p: int) -> int:
    return x.numerator * pow(x.denominator, -1, p) % p
