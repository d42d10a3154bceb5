"""Exact arithmetic in GF(p) and GF(p^k) with a fixed basis per context.

The extension modulus is chosen deterministically (see ``field_create``),
so two runs -- or two machines -- agree on the basis {1, t, ..., t^(k-1)}
and coefficient tuples can be compared across runs when lifting.

The numpy kernels work on digit planes.  A matrix product of residues
(``_dot_mod``, reached once per plane product through ``_fold``) runs in the
cheapest exact tier its bound allows: float64 while inner * (p-1)^2 < 2^53,
int64 while the sums fit, term by term past that.  ``monomial_values``
builds its table in graded order, one plane product per monomial.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidDegree,
    NonPrime,
    PolySyntaxError,
    signed_terms,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2^64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 37 * 37:
        return True  # a composite this small has a prime factor below 37
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense univariate polynomials over GF(p), used only for modulus selection
# and extension arithmetic; coefficient lists are low-degree first
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, mod, p)


def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        factor = a[-1] * inv_lead % p
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - factor * c) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _poly_powmod(base: list[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(base, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


class FieldCtx:
    """Immutable description of GF(p^k); shareable across threads.

    For k > 1, ``modulus`` is the monic irreducible degree-k polynomial over
    GF(p) whose coefficient vector (t^(k-1), ..., t, 1) is lexicographically
    smallest; elements are coefficient tuples in the basis {1, t, ..., t^(k-1)}.
    ``fold`` holds the basis digits of t^j mod the modulus for j = k..2k-2,
    which reduce the planes of a product (see ``plane_mul``).
    """

    __slots__ = ("p", "k", "modulus", "q", "fold")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.k = k
        self.modulus = modulus  # low-degree-first coefficients, monic; None iff k == 1
        self.q = p**k
        self.fold = tuple(
            tuple(_poly_rem([0] * j + [1], modulus, p) + [0] * k)[:k] for j in range(k, 2 * k - 1)
        )

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k}; t: {format_modulus(self)})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def element(self, value) -> "FieldElement":
        """Coerce an int, coefficient sequence, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.ctx is not self and value.ctx != self:
                raise ContextMismatch(f"element of {value.ctx} used in {self}")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.k:
            raise ContextMismatch(
                f"tuple of length {len(coeffs)} for extension degree {self.k}"
            )
        return FieldElement(self, coeffs)

    def gen(self) -> "FieldElement":
        """The basis element t (only defined for k > 1)."""
        if self.k == 1:
            raise InvalidDegree("prime field has no extension generator")
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def elements(self) -> Iterator["FieldElement"]:
        """All q elements, in lexicographic order of basis tuples."""
        for coeffs in _digit_tuples(self.p, self.k):
            yield FieldElement(self, coeffs)


class FieldElement:
    """An element of a FieldCtx, stored as its basis coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers ---------------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise ContextMismatch(
                    f"cannot combine elements of {self.ctx} and {other.ctx}"
                )
            return other
        if isinstance(other, int):
            return self.ctx.element(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(
            self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.ctx.p
        return FieldElement(
            self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self.ctx
        if ctx.k == 1:
            return FieldElement(ctx, ((self.coeffs[0] * other.coeffs[0]) % ctx.p,))
        prod = _poly_mulmod(self.coeffs, other.coeffs, ctx.modulus, ctx.p)
        prod += [0] * (ctx.k - len(prod))
        return FieldElement(ctx, tuple(prod))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return inv(self) ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * inv(other)

    def __rtruediv__(self, other):
        return self.ctx.element(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ctx.element(other)
        return (
            isinstance(other, FieldElement)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.k, self.coeffs))

    def __repr__(self) -> str:
        return format_element(self)


_CTX_CACHE: dict[tuple[int, int], FieldCtx] = {}


def field_create(p: int, k: int = 1) -> FieldCtx:
    """Create (or fetch the cached) GF(p^k) context.

    The modulus search order compares candidate coefficient vectors from the
    t^(k-1) coefficient down to the constant, so e.g. GF(25) always gets
    t^2 + 2 and every run of every process agrees on the basis.
    """
    if k < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {k}")
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    key = (p, k)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        modulus = None if k == 1 else _first_irreducible(p, k)
        ctx = FieldCtx(p, k, modulus)
        _CTX_CACHE[key] = ctx
    return ctx


def _digit_tuples(p: int, k: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """The k-digit tuples base p in counting order from the start-th, most
    significant digit first: the order of itertools.product(range(p),
    repeat=k), which would first build range(p) as a tuple (p may be near
    2^64)."""
    weights = [p**i for i in range(k - 1, -1, -1)]
    for n in range(start, p**k):
        yield tuple(n // w % p for w in weights)


def _first_irreducible(p: int, k: int) -> tuple[int, ...]:
    # the monic candidates, low degree first, counting up from the top
    # coefficient; the first p are the binomials t^k + c, of which none is
    # irreducible when a prime factor of k does not divide p - 1, or when
    # 4 | k and p != 1 mod 4 (Lidl and Niederreiter, Thm 3.75): then the
    # search starts after them
    primes = [r for r in range(2, k + 1) if k % r == 0 and all(r % s for s in range(2, r))]
    no_binomial = any((p - 1) % r for r in primes) or (k % 4 == 0 and p % 4 != 1)
    for digits in _digit_tuples(p, k, p if no_binomial else 0):
        f = list(reversed(digits)) + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found (unreachable)")


def _is_irreducible(f: list[int], p: int) -> bool:
    """Monic f of degree k: no factor of degree d <= k/2 divides f, checked
    via gcd(x^(p^d) - x, f); then x^(p^k) = x mod f closes the argument."""
    k = len(f) - 1
    if k == 1:
        return True
    xp = [0, 1]
    for d in range(1, k // 2 + 1):
        xp = _poly_powmod(xp, p, f, p)
        diff = list(xp) + [0] * max(0, 2 - len(xp))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(list(f), _poly_trim(diff), p)) - 1 >= 1:
            return False
    for _ in range(k // 2 + 1, k + 1):
        xp = _poly_powmod(xp, p, f, p)
    final = list(xp) + [0] * max(0, 2 - len(xp))
    final[1] = (final[1] - 1) % p
    return not _poly_trim(final)


def inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises DivisionByZero on a = 0."""
    if a.is_zero():
        raise DivisionByZero("inverse of zero")
    ctx = a.ctx
    if ctx.k == 1:
        return FieldElement(ctx, (pow(a.coeffs[0], ctx.p - 2, ctx.p),))
    return a ** (ctx.q - 2)


# ---------------------------------------------------------------------------
# digit planes: inside a numpy kernel a GF(p^k) value is k integer arrays,
# its basis digits low degree first (the order of FieldElement.coeffs), so an
# array of values has shape (k, ...).  Over GF(p) there is one plane and a
# product has nothing to fold.
# ---------------------------------------------------------------------------

def _dtype(p: int):
    """int64 when a product of two residues fits, Python ints otherwise."""
    return np.int64 if (p - 1) ** 2 < 2**63 else object


def reduce_float(x: np.ndarray, p: int) -> np.ndarray:
    """x - floor(x / p) * p, in place, for a float64 array of integers with
    |x| < 2^53 (held exactly): returns x, now its residues in [0, p).  The
    correctly rounded quotient x / p is within half an ulp, below 1/p, of
    the true one, so its floor is the true floor and the remainder is exact
    for either sign of x."""
    quot = x / p
    np.floor(quot, out=quot)
    quot *= p
    x -= quot  # in place: the float temporaries stay two blocks
    return x


def reduce_int(x: np.ndarray, p: int) -> np.ndarray:
    """x - (x // p) * p, in place, for an int64 (or object) array: returns
    x, now its residues in [0, p), for either sign of x (in int64 the
    product may wrap, and the difference is still the residue).  numpy
    divides by a scalar several times faster than it takes % of one."""
    x -= x // p * p
    return x


def _dot_mod(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """(X @ Y) % p for residues, in the cheapest of three exact tiers.

    While every sum of products stays below 2^53 (inner * (p-1)^2 < 2^53), the
    product runs in float64, which holds those integers exactly (BLAS; an
    inner dimension of 1 is a broadcast outer product, which BLAS is slow
    on), and is reduced exactly by ``reduce_float``.  Past that bound the
    product runs in int64 while it fits, and otherwise is reduced term by
    term (or in Python ints for object planes)."""
    inner = X.shape[1]
    if X.dtype != object and inner * (p - 1) ** 2 < 2**53:
        Xf, Yf = X.astype(np.float64), Y.astype(np.float64)
        return reduce_float(Xf * Yf if inner == 1 else Xf @ Yf, p).astype(np.int64)
    if X.dtype == object or inner * (p - 1) ** 2 < 2**63:
        return reduce_int(X @ Y, p)
    out = np.zeros((X.shape[0], Y.shape[1]), dtype=X.dtype)
    for j in range(X.shape[1]):
        out = reduce_int(out + reduce_int(X[:, j, None] * Y[None, j], p), p)
    return out


def _fold(ctx: FieldCtx, product) -> np.ndarray:
    """Sum the k^2 plane products product(i, j) into planes i + j, then reduce
    planes k..2k-2 by ctx.fold; every partial sum stays below 2p."""
    p, k = ctx.p, ctx.k
    if k == 1:
        return product(0, 0)[None]
    raw = [None] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            term = product(i, j)
            raw[i + j] = term if raw[i + j] is None else reduce_int(raw[i + j] + term, p)
    for j in range(k, 2 * k - 1):
        for d, c in enumerate(ctx.fold[j - k]):
            if c:
                raw[d] = reduce_int(raw[d] + reduce_int(raw[j] * c, p), p)
    return np.stack(raw[:k])


def plane_mul(ctx: FieldCtx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Elementwise product of plane arrays; the axes after the first broadcast."""
    return _fold(ctx, lambda i, j: reduce_int(A[i] * B[j], ctx.p))


def plane_matmul(ctx: FieldCtx, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Matrix product of plane arrays X (k, m, n) and Y (k, n, r)."""
    return _fold(ctx, lambda i, j: _dot_mod(X[i], Y[j], ctx.p))


def plane_ones(ctx: FieldCtx, shape: tuple[int, ...]) -> np.ndarray:
    out = np.zeros((ctx.k,) + shape, dtype=_dtype(ctx.p))
    out[0] = 1
    return out


def monomial_values(ctx: FieldCtx, X: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Planes (k, points, monomials) of the monomials (rows of exps) at the
    points (planes X of shape (k, points, variables)).

    The table is built in graded order: degree 0 is ones, degree 1 the
    coordinate planes, and each higher monomial one already built times one
    variable, so a table of m monomials (counting any lower one that a chain
    down to a built monomial adds) costs at most m plane products.  An
    exponent e >= 1 is first reduced to (e-1) % (q-1) + 1, which is exact on
    GF(q) since x^q = x there."""
    if exps.size and int(exps.max()) > ctx.q - 1:
        exps = np.where(exps > 0, (exps - 1) % (ctx.q - 1) + 1, 0)
    rows = list(map(tuple, exps.tolist()))
    n = exps.shape[1]
    table = {(0,) * n: plane_ones(ctx, (X.shape[1],))}
    for i in range(n):
        table[(0,) * i + (1,) + (0,) * (n - i - 1)] = X[:, :, i]
    for e in sorted(set(rows), key=sum):
        chain = []  # (monomial, lower monomial, variable) down to one already built
        while e not in table:
            lowers = [(e[:i] + (e[i] - 1,) + e[i + 1:], i) for i in range(n) if e[i]]
            lower, i = next((li for li in lowers if li[0] in table), lowers[0])
            chain.append((e, lower, i))
            e = lower
        for e, lower, i in reversed(chain):
            table[e] = plane_mul(ctx, table[lower], X[:, :, i])
    if not rows:
        return plane_ones(ctx, (X.shape[1], 0))
    # each monomial's values contiguous: a view of planes k x monomials x points
    return np.stack([table[e] for e in rows], axis=1).transpose(0, 2, 1)


def to_planes(ctx: FieldCtx, values) -> np.ndarray:
    """Planes (k, *shape) of a nested list of FieldElements of ctx and ints
    (read as residues mod p)."""
    dtype = _dtype(ctx.p)
    obj = np.array(values, dtype=object)
    if any(isinstance(v, FieldElement) for v in obj.flat):
        digits = np.array([ctx.element(v).coeffs for v in obj.flat], dtype=dtype)
        return np.moveaxis(digits.reshape(obj.shape + (ctx.k,)), -1, 0)
    planes = np.zeros((ctx.k,) + obj.shape, dtype=dtype)
    planes[0] = obj % ctx.p
    return planes


def to_elements(ctx: FieldCtx, planes: np.ndarray) -> list:
    """Nested lists of the FieldElements whose digits are the planes."""
    digits = np.moveaxis(planes, 0, -1)
    out = np.empty(digits.shape[:-1], dtype=object)
    out.flat[:] = [FieldElement(ctx, tuple(d)) for d in digits.reshape(-1, ctx.k).tolist()]
    return out.tolist()


def to_scalars(ctx: FieldCtx, planes: np.ndarray) -> list:
    """Nested lists of matrix entries whose digits are the planes: ints over
    GF(p), FieldElements over GF(p^k)."""
    return planes[0].tolist() if ctx.k == 1 else to_elements(ctx, planes)


# ---------------------------------------------------------------------------
# textual element syntax: decimal integers for prime fields, polynomials in
# t (e.g. "3*t+1", "t^2+4*t") for extensions; round trip is bit-exact
# ---------------------------------------------------------------------------

def _format_t_poly(coeffs: Sequence[int]) -> str:
    """The polynomial in t with these coefficients (low degree first), highest term first."""
    if len(coeffs) == 1:
        return str(coeffs[0])
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
    return "+".join(parts) if parts else "0"


def format_element(a: FieldElement) -> str:
    return _format_t_poly(a.coeffs)


def format_modulus(ctx: FieldCtx) -> str:
    assert ctx.modulus is not None
    return _format_t_poly(ctx.modulus)


def parse_element(ctx: FieldCtx, text: str) -> FieldElement:
    """Inverse of format_element for the given context."""
    s = text.replace(" ", "")
    if not s:
        raise PolySyntaxError("empty field element")
    if ctx.k == 1:
        try:
            return ctx.element(int(s))
        except ValueError:
            raise PolySyntaxError(f"bad prime-field element {text!r}") from None
    coeffs = [0] * ctx.k
    # signed monomials: c, c*t, c*t^e, t, t^e
    for sign, body in signed_terms(s):
        head, t, tail = body.partition("t")
        try:
            if not body or (t and head and not head.endswith("*")) or (tail and not tail.startswith("^")):
                raise ValueError
            c = int(head[:-1] if t else head) if head else 1
            e = int(tail[1:]) if tail else (1 if t else 0)
        except ValueError:
            raise PolySyntaxError(f"bad field element {text!r}") from None
        if e >= ctx.k or e < 0:
            raise PolySyntaxError(f"exponent t^{e} outside basis of {ctx}")
        coeffs[e] = (coeffs[e] + sign * c) % ctx.p
    return FieldElement(ctx, tuple(coeffs))
