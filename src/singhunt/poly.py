"""Sparse multivariate polynomials over GF(p^k), exact integers, or rationals.

Terms are stored as a map from exponent tuples to nonzero coefficients.
The parameter/geometric-variable split lives in ParametricFamily; MultiPoly
itself is domain-generic and immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ContextMismatch,
    IndexOutOfRange,
    PolySyntaxError,
    UnknownVariable,
    data_lines,
)
from .fields import FieldCtx, FieldElement, format_element

# Coefficient domains: a FieldCtx instance, or one of the tags below.
ZZ = "ZZ"
QQ = "QQ"


def coerce(domain, value):
    """value as a scalar of domain: a FieldElement of a FieldCtx, a Fraction
    over QQ, an int over ZZ.  Raises ContextMismatch for an element of
    another field, a field element over QQ or ZZ, or a non-integer over ZZ."""
    if isinstance(domain, FieldCtx):
        if isinstance(value, FieldElement):
            if value.ctx != domain:
                raise ContextMismatch("coefficient from a different field context")
            return value
        if isinstance(value, Fraction):
            num = domain.element(value.numerator)
            den = domain.element(value.denominator)
            return num / den
        return domain.element(int(value))
    if domain == QQ:
        if isinstance(value, FieldElement):
            raise ContextMismatch("field element used as rational coefficient")
        return Fraction(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise ContextMismatch(f"{value!r} is not an exact integer")


class MultiPoly:
    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars: int, domain, terms: dict | None = None):
        self.nvars = nvars
        self.domain = domain
        clean = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise IndexOutOfRange(
                        f"exponent vector {exps} has length != {nvars}"
                    )
                c = coerce(domain, c)
                if c:
                    clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, domain) -> "MultiPoly":
        return cls(nvars, domain, {})

    @classmethod
    def constant(cls, nvars: int, domain, value) -> "MultiPoly":
        return cls(nvars, domain, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, domain, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise IndexOutOfRange(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, domain, {exps: 1})

    # -- basic queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars or self.domain != other.domain:
            raise ContextMismatch("polynomials live in different rings")

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = c if acc is None else acc + c
        return MultiPoly(self.nvars, self.domain, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(
            self.nvars, self.domain, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_compatible(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = terms.get(exps)
                terms[exps] = prod if acc is None else acc + prod
        return MultiPoly(self.nvars, self.domain, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "MultiPoly":
        scalar = coerce(self.domain, scalar)
        return MultiPoly(
            self.nvars, self.domain, {e: c * scalar for e, c in self.terms.items()}
        )

    def __pow__(self, e: int) -> "MultiPoly":
        result = MultiPoly.constant(self.nvars, self.domain, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- evaluation and substitution ----------------------------------------------

    def eval(self, point: Sequence) -> object:
        if len(point) != self.nvars:
            raise IndexOutOfRange(
                f"point of length {len(point)} for {self.nvars} variables"
            )
        values = [coerce(self.domain, v) for v in point]
        acc = coerce(self.domain, 0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(values, exps):
                if e:
                    term = term * (v**e if e > 1 else v)
            acc = acc + term
        return acc

    def partial(self, index: int) -> "MultiPoly":
        """Formal partial derivative; characteristic-p semantics apply."""
        if not 0 <= index < self.nvars:
            raise IndexOutOfRange(f"variable index {index} out of range")
        terms: dict = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            terms[tuple(new)] = c * coerce(self.domain, e)
        return MultiPoly(self.nvars, self.domain, terms)

    def substitute(self, images: Sequence["MultiPoly"]) -> "MultiPoly":
        """Ring homomorphism sending variable i to images[i]."""
        if len(images) != self.nvars:
            raise IndexOutOfRange("one image polynomial per variable required")
        target_nvars = images[0].nvars
        domain = images[0].domain
        # cache powers per variable to avoid re-expansion
        powers: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.constant(target_nvars, domain, 1)} for _ in images
        ]

        def power(i: int, e: int) -> MultiPoly:
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * images[i]
            return cache[e]

        acc = MultiPoly.zero(target_nvars, domain)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(target_nvars, domain, _convert(c, domain))
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            acc = acc + term
        return acc

    def map_domain(self, domain) -> "MultiPoly":
        """Explicit change of coefficient domain (e.g. reduce mod p)."""
        return MultiPoly(self.nvars, domain, {e: _convert(c, domain) for e, c in self.terms.items()})

    def __repr__(self) -> str:
        return format_poly(self)


def _convert(c, domain):
    if isinstance(domain, FieldCtx):
        if isinstance(c, FieldElement):
            if c.ctx != domain:
                raise ContextMismatch("cannot move elements between field contexts")
            return c
        return coerce(domain, c)
    if isinstance(c, FieldElement):
        if c.ctx.k != 1:
            raise ContextMismatch("cannot lift an extension-field coefficient directly")
        return coerce(domain, c.coeffs[0])
    return coerce(domain, c)


# ---------------------------------------------------------------------------
# monomial enumeration (graded-lex: by total degree, then lexicographically
# from the x0-heavy end)
# ---------------------------------------------------------------------------

def _monomials_exact(nvars: int, degree: int) -> Iterable[tuple[int, ...]]:
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials_exact(nvars - 1, degree - first):
            yield (first,) + rest


def monomial_basis(nvars: int, degree: int, mode: str = "at-most") -> list[tuple[int, ...]]:
    """Exponent vectors of degree exactly `degree` or at most `degree`."""
    if nvars < 1 or degree < 0:
        raise IndexOutOfRange("need nvars >= 1 and degree >= 0")
    if mode == "exactly":
        return list(_monomials_exact(nvars, degree))
    if mode == "at-most":
        out = []
        for d in range(degree + 1):
            out.extend(_monomials_exact(nvars, d))
        return out
    raise ValueError(f"unknown mode {mode!r}")


def _grlex_key(exps: tuple[int, ...]):
    # higher total degree first, then x0-heavy monomials first
    return (sum(exps), exps)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------

class ParametricFamily:
    """A polynomial in x0..x{nvars-1} whose coefficients depend on p1..p{nparams}.

    Internally one MultiPoly in nvars + nparams variables, geometric
    variables first.
    """

    __slots__ = ("poly", "nvars", "nparams", "x_degree")

    def __init__(self, poly: MultiPoly, nvars: int, nparams: int):
        if poly.nvars != nvars + nparams:
            raise IndexOutOfRange("family polynomial has the wrong variable count")
        self.poly = poly
        self.nvars = nvars
        self.nparams = nparams
        degrees = {sum(e[:nvars]) for e in poly.terms}
        self.x_degree = degrees.pop() if len(degrees) == 1 else None

    def is_homogeneous_in_x(self) -> bool:
        return self.x_degree is not None

    def is_linear_in_params(self) -> bool:
        return all(sum(e[self.nvars:]) <= 1 for e in self.poly.terms)

    def specialize(self, params: Sequence) -> MultiPoly:
        """Substitute a parameter point; the result lives in the x-variables."""
        if len(params) != self.nparams:
            raise IndexOutOfRange(
                f"{len(params)} parameter values for {self.nparams} parameters"
            )
        if self.nparams == 0:
            return self.poly
        if params and isinstance(params[0], FieldElement):
            domain = params[0].ctx
        elif any(isinstance(v, Fraction) for v in params) or self.poly.domain == QQ:
            domain = QQ
        else:
            domain = self.poly.domain
        values = [coerce(domain, v) for v in params]
        terms: dict = {}
        for exps, c in self.poly.terms.items():
            coeff = _convert(c, domain)
            for v, e in zip(values, exps[self.nvars:]):
                if e:
                    coeff = coeff * (v**e if e > 1 else v)
            if not coeff:
                continue
            key = exps[: self.nvars]
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
        return MultiPoly(self.nvars, domain, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParametricFamily)
            and self.nvars == other.nvars
            and self.nparams == other.nparams
            and self.poly == other.poly
        )

    def __repr__(self) -> str:
        return format_poly(self.poly, nvars=self.nvars, nparams=self.nparams)


# ---------------------------------------------------------------------------
# text grammar: terms joined by +/-, each an optional coefficient and
# *-separated powers x<i>^<e> / p<j>^<e>; ^1 optional; whitespace free-form
# ---------------------------------------------------------------------------

def parse(text: str, nvars: int, nparams: int = 0, domain=ZZ) -> ParametricFamily:
    poly = _parse_poly(text, nvars, nparams, domain)
    return ParametricFamily(poly, nvars, nparams)


def parse_poly(text: str, nvars: int, domain=ZZ) -> MultiPoly:
    """Parse a polynomial in the geometric variables only."""
    return _parse_poly(text, nvars, 0, domain)


def _parse_poly(text: str, nvars: int, nparams: int, domain, line: int = 1) -> MultiPoly:
    """line: the file line that text starts on, for error positions."""
    total = nvars + nparams
    terms: dict = {}
    i = 0
    n = len(text)

    def err(msg, col):
        raise PolySyntaxError(msg, line, col)

    def skip_ws():
        nonlocal i, line
        while i < n and text[i] in " \t\r\n":
            if text[i] == "\n":
                line += 1
            i += 1

    sign = 1
    expect_term = True
    first = True
    while True:
        skip_ws()
        if i >= n:
            if expect_term and not first:
                err("dangling sign at end of input", i + 1)
            break
        ch = text[i]
        if ch in "+-":
            if expect_term and not first:
                err(f"unexpected {ch!r}", i + 1)
            sign = 1 if ch == "+" else -1
            i += 1
            expect_term = True
            first = False
            continue
        if not expect_term and not first:
            err(f"expected '+' or '-' before {ch!r}", i + 1)
        coeff = Fraction(sign)
        exps = [0] * total
        saw_factor = False
        while True:
            skip_ws()
            if i < n and (text[i].isdigit()):
                start = i
                while i < n and text[i].isdigit():
                    i += 1
                num = int(text[start:i])
                if i < n and text[i] == "/":
                    i += 1
                    dstart = i
                    while i < n and text[i].isdigit():
                        i += 1
                    if dstart == i or not int(text[dstart:i]):
                        err("missing or zero denominator", i + 1)
                    coeff *= Fraction(num, int(text[dstart:i]))
                else:
                    coeff *= num
                saw_factor = True
            elif i < n and text[i] in "xp":
                kind = text[i]
                i += 1
                start = i
                while i < n and text[i].isdigit():
                    i += 1
                if start == i:
                    err(f"missing index after {kind!r}", i + 1)
                idx = int(text[start:i])
                if kind == "x":
                    if not 0 <= idx < nvars:
                        raise UnknownVariable(
                            f"x{idx} outside x0..x{nvars - 1}", line, start
                        )
                    pos = idx
                else:
                    if not 1 <= idx <= nparams:
                        raise UnknownVariable(
                            f"p{idx} outside p1..p{nparams}", line, start
                        )
                    pos = nvars + idx - 1
                e = 1
                skip_ws()
                if i < n and text[i] == "^":
                    i += 1
                    skip_ws()
                    estart = i
                    while i < n and text[i].isdigit():
                        i += 1
                    if estart == i:
                        err("missing exponent after '^'", i + 1)
                    e = int(text[estart:i])
                exps[pos] += e
                saw_factor = True
            else:
                err(
                    f"unexpected character {text[i]!r}" if i < n else "unexpected end",
                    i + 1,
                )
            skip_ws()
            if i < n and text[i] == "*":
                i += 1
                continue
            break
        if not saw_factor:
            err("empty term", i + 1)
        key = tuple(exps)
        acc = terms.get(key, Fraction(0))
        terms[key] = acc + coeff
        sign = 1
        expect_term = False
        first = False

    return MultiPoly(total, domain, terms)


def format_poly(f: MultiPoly, nvars: int | None = None, nparams: int = 0) -> str:
    """Canonical text form: graded-lex, leading term first; parse round-trips."""
    if f.is_zero():
        return "0"
    if nvars is None:
        nvars = f.nvars
    parts = []
    for exps in sorted(f.terms, key=_grlex_key, reverse=True):
        c = f.terms[exps]
        if isinstance(c, FieldElement):
            csign, cabs = 1, _field_coeff_str(c)
            is_one = c == 1
        else:
            csign = -1 if c < 0 else 1
            cc = -c if c < 0 else c
            is_one = cc == 1
            cabs = str(cc)
        factors = []
        for pos, e in enumerate(exps):
            if e == 0:
                continue
            name = f"x{pos}" if pos < nvars else f"p{pos - nvars + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            body = cabs
        elif is_one:
            body = "*".join(factors)
        else:
            body = cabs + "*" + "*".join(factors)
        parts.append(("-" if csign < 0 else "+", body))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for s, body in parts[1:]:
        out += f" {s} {body}"
    return out


def _field_coeff_str(c: FieldElement) -> str:
    text = format_element(c)
    return text if c.ctx.k == 1 else f"({text})"


def parse_poly_file(text: str, nvars: int, nparams: int = 0) -> list[ParametricFamily]:
    """One polynomial per line; '#' starts a comment; blank lines skipped."""
    return [
        ParametricFamily(_parse_poly(line, nvars, nparams, ZZ, lineno), nvars, nparams)
        for lineno, line in data_lines(text)
    ]
