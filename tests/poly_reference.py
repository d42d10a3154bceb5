"""Reference polynomial reader for the tests: the character-by-character
parser and the regex count scan that ``poly._parse_poly`` replaced.

``parse_poly_chars`` walks the text one character at a time with explicit
counts and returns the MultiPoly in nvars + nparams variables; the scanner in
``poly`` must give the same terms, or raise the same error class with the
same message, line and column.  ``infer_counts`` is the scan the CLI ran over
the raw text before parsing it: the highest x index plus one and the
highest p index anywhere in the text.
"""

import re
from fractions import Fraction

from singhunt.errors import PolySyntaxError, UnknownVariable
from singhunt.poly import MultiPoly


def infer_counts(text: str) -> tuple[int, int]:
    nv = -1
    npar = 0
    for m in re.finditer(r"x(\d+)", text):
        nv = max(nv, int(m.group(1)))
    for m in re.finditer(r"p(\d+)", text):
        npar = max(npar, int(m.group(1)))
    return nv + 1, npar


def parse_poly_chars(text: str, nvars: int, nparams: int, domain, line: int = 1) -> MultiPoly:
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
