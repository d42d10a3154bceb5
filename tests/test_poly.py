import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poly_reference import infer_counts, parse_poly_chars
from singhunt.errors import PolySyntaxError, SinghuntError, UnknownVariable
from singhunt.fields import field_create
from singhunt.poly import (
    MAX_INFERRED,
    QQ,
    ZZ,
    MultiPoly,
    ParametricFamily,
    _parse_poly,
    format_poly,
    monomial_basis,
    parse,
    parse_poly,
    parse_poly_file,
)


def test_parse_examples():
    f = parse_poly("x0^2 + x1*x2", 3)
    assert len(f.terms) == 2 and f.nvars == 3

    fam = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
    assert fam.nvars == 3 and fam.nparams == 1
    assert len(fam.poly.terms) == 4

    z = parse_poly("x0^2 - x0^2", 3)
    assert z.is_zero() and z.terms == {}


def test_parse_errors():
    with pytest.raises(UnknownVariable):
        parse_poly("x3 + 1", 3)
    with pytest.raises(UnknownVariable):
        parse("p2*x0", 2, 1)
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x0 + + x1", 2)
    assert exc.value.column > 0
    with pytest.raises(PolySyntaxError):
        parse_poly("x0 *", 2)


def test_parse_file():
    text = "# comment\nx0^2+x1^2\n\nx0*x1  # inline\n"
    fams = parse_poly_file(text, 2)
    assert len(fams) == 2


def test_partial_examples():
    f = parse_poly("x0^2*x1", 2)
    assert f.partial(0) == parse_poly("2*x0*x1", 2)

    F7 = field_create(7)
    g = parse_poly("x0^7", 1).map_domain(F7)
    assert g.partial(0).is_zero()

    fam = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
    d1 = fam.poly.partial(1)
    expected = parse("3*x1^2 + p1*x0*x2", 3, 1).poly
    assert d1 == expected


def test_monomial_basis_counts_and_order():
    assert len(monomial_basis(3, 2, "at-most")) == 10
    assert len(monomial_basis(3, 2, "exactly")) == 6
    assert len(monomial_basis(4, 8, "exactly")) == 165
    ms = monomial_basis(3, 3, "at-most")
    assert len(ms) == len(set(ms))
    degrees = [sum(m) for m in ms]
    assert degrees == sorted(degrees)
    # within a degree block, x0-heavy monomials come first
    block = [m for m in ms if sum(m) == 2]
    assert block[0] == (2, 0, 0) and block[-1] == (0, 0, 2)


def test_specialize_examples():
    hesse = parse("x0^3+x1^3+x2^3+p1*x0*x1*x2", 3, 1)
    fermat = hesse.specialize([0])
    assert fermat == parse_poly("x0^3+x1^3+x2^3", 3)

    F7 = field_create(7)
    member = hesse.specialize([F7.element(-3)])
    one = F7.one()
    pt = [one, one, one]
    assert member.eval(pt).is_zero()
    assert all(member.partial(i).eval(pt).is_zero() for i in range(3))

    plain = ParametricFamily(parse_poly("x0^2+x1", 2), 2, 0)
    assert plain.specialize([]) == plain.poly


def test_euler_relation():
    rnd = random.Random(7)
    for _ in range(20):
        nvars, d = rnd.choice([(2, 3), (3, 4), (3, 5)])
        terms = {m: rnd.randint(-5, 5) for m in monomial_basis(nvars, d, "exactly")}
        f = MultiPoly(nvars, QQ, terms)
        if f.is_zero():
            continue
        euler = MultiPoly.zero(nvars, QQ)
        for i in range(nvars):
            euler = euler + MultiPoly.variable(nvars, QQ, i) * f.partial(i)
        assert euler == f.scale(d)
        p = 101  # characteristic prime to d
        Fp = field_create(p)
        fp = f.map_domain(Fp)
        euler_p = MultiPoly.zero(nvars, Fp)
        for i in range(nvars):
            euler_p = euler_p + MultiPoly.variable(nvars, Fp, i) * fp.partial(i)
        assert euler_p == fp.scale(d)


def test_eval_commutes_with_specialize():
    rnd = random.Random(11)
    fam = parse("x0^2*p1 + x1^2*p2 + x0*x1 + p1*p2", 2, 2, domain=QQ)
    for _ in range(25):
        xs = [Fraction(rnd.randint(-9, 9)) for _ in range(2)]
        ps = [Fraction(rnd.randint(-9, 9)) for _ in range(2)]
        lhs = fam.specialize(ps).eval(xs)
        rhs = fam.poly.eval(xs + ps)
        assert lhs == rhs


def test_eval_is_ring_homomorphism():
    rnd = random.Random(3)
    F11 = field_create(11)
    for _ in range(20):
        f = MultiPoly(2, F11, {(rnd.randrange(3), rnd.randrange(3)): rnd.randrange(11) for _ in range(3)})
        g = MultiPoly(2, F11, {(rnd.randrange(3), rnd.randrange(3)): rnd.randrange(11) for _ in range(3)})
        pt = [F11.element(rnd.randrange(11)) for _ in range(2)]
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
        assert (f + g).eval(pt) == f.eval(pt) + g.eval(pt)


def test_print_parse_round_trip_randomized():
    rnd = random.Random(23)
    for _ in range(50):
        nvars = rnd.randint(1, 3)
        nparams = rnd.randint(0, 2)
        total = nvars + nparams
        terms = {}
        for _ in range(rnd.randint(1, 6)):
            exps = tuple(rnd.randint(0, 3) for _ in range(total))
            terms[exps] = rnd.choice([-7, -2, -1, 1, 2, 3, 12])
        f = MultiPoly(total, ZZ, terms)
        text = format_poly(f, nvars=nvars, nparams=nparams)
        back = parse(text, nvars, nparams)
        assert back.poly.terms == f.terms, text


def test_substitute_is_a_homomorphism():
    F7 = field_create(7)
    f = parse_poly("x0^2+x1^2", 2).map_domain(F7)
    g = parse_poly("x0*x1", 2).map_domain(F7)
    images = [
        parse_poly("x0+x1", 2).map_domain(F7),
        parse_poly("x0-x1", 2).map_domain(F7),
    ]
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)


def test_homogeneous_tag():
    fam = parse("x0^2 + x1^2 + p1*x0*x1", 2, 1)
    assert fam.is_homogeneous_in_x() and fam.x_degree == 2
    mixed = parse("x0^2 + x1", 2, 0)
    assert not mixed.is_homogeneous_in_x()


# ---------------------------------------------------------------------------
# the token scanner against the character parser it replaced
# ---------------------------------------------------------------------------

POLY_CHARS = list("xpt0123456789^*/+-#? \n")
POLY_PIECES = ["x0", "x1^2", "x2 ^ 3", "p1", "p2^2", "p0", "3*", "1/2*", "2/0", " + ", " - ", "*", "^", "\n"]
poly_texts = st.one_of(
    st.text(st.sampled_from(POLY_CHARS), max_size=24),
    st.lists(st.sampled_from(POLY_CHARS + POLY_PIECES), max_size=10).map("".join),
)


def outcome(read):
    """The terms read() returns, in order, or its error's class, message,
    line and column."""
    try:
        return list(read().terms.items())
    except (SinghuntError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@settings(max_examples=300)
@given(poly_texts, st.integers(0, 4), st.integers(0, 3), st.integers(1, 3),
       st.sampled_from([ZZ, QQ, field_create(7)]))
def test_scanner_reads_as_the_character_parser(text, nvars, nparams, line, domain):
    """With counts given: the same terms in the same order, or the same error
    at the same line and column."""
    want = outcome(lambda: parse_poly_chars(text, nvars, nparams, domain, line))
    assert outcome(lambda: _parse_poly(text, nvars, nparams, domain, line).poly) == want


@settings(max_examples=200)
@given(poly_texts.filter(lambda text: "#" not in text))
def test_inferred_counts_are_the_regex_scan(text):
    """On text without comments the counts read off the terms are those of
    the regex scan the CLI ran over the whole text, and so is the result,
    except for p0 and indices past MAX_INFERRED, which the scanner rejects as
    it reads them."""
    got = outcome(lambda: _parse_poly(text, None, None, QQ).poly)
    if isinstance(got, list):
        fam = _parse_poly(text, None, None, QQ)
        assert (fam.nvars, fam.nparams) == infer_counts(text)
    counts = infer_counts(text)
    if not re.search(r"p0+(?![0-9])", text) and max(counts) <= MAX_INFERRED:
        assert got == outcome(lambda: parse_poly_chars(text, *counts, QQ))


def test_counts_are_read_off_the_terms():
    fam = parse("x0^2 + x5 - x5 + p2*x1", None, None)
    assert (fam.nvars, fam.nparams) == (6, 2) and len(fam.poly.terms) == 2
    assert parse_poly("x0*x2").nvars == 3 and parse_poly("").nvars == 0
    # a comment is no data line, so it counts for nothing
    [fam] = parse_poly_file("# x7 and p4\nx0^2 + p1*x1\n", None, None)
    assert (fam.nvars, fam.nparams) == (2, 1)
    # a given count is checked, not inferred
    with pytest.raises(UnknownVariable, match=r"^p2 outside p1..p1 \(line 2, column 11\)$"):
        parse_poly_file("\nx0^2 + p1*p2\n", None, 1)


@pytest.mark.parametrize("text, message", [
    ("x0 + p0*x1", "p0 outside p1..p1000 (line 1, column 6)"),
    ("x0 + p1001", "p1001 outside p1..p1000 (line 1, column 6)"),
    ("x1000^2 + ?", "x1000 outside x0..x999 (line 1, column 1)"),
])
def test_an_inferred_count_has_a_range(text, message):
    """An index is checked as it is read, against the indices an inferred
    count may cover."""
    with pytest.raises(UnknownVariable) as exc:
        parse(text, None, None)
    assert str(exc.value) == message


def test_only_ascii_whitespace_and_decimal_digits_are_read():
    """Other characters are unexpected, at their column; '²' passes str.isdigit
    but is no decimal digit, and the character parser failed on it in int()."""
    for text, message in [("x0 +\x0cx1", "unexpected character '\\x0c' (line 1, column 5)"),
                          ("x0\n+ 2²", "expected '+' or '-' before '²' (line 2, column 7)"),
                          ("x²", "missing index after 'x' (line 1, column 2)")]:
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(text, 2)
        assert str(exc.value) == message
