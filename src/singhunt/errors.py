"""Exception hierarchy shared by all singhunt modules, and the line reader
that every data-file parser uses to name the line of bad data."""

from typing import Iterator


class SinghuntError(Exception):
    """Base class for all errors raised by this package."""


# -- field construction and arithmetic ---------------------------------------

class NonPrime(SinghuntError):
    pass


class InvalidDegree(SinghuntError):
    pass


class DivisionByZero(SinghuntError):
    pass


class ContextMismatch(SinghuntError):
    pass


# -- polynomial parsing and manipulation -------------------------------------

class PolySyntaxError(SinghuntError):
    def __init__(self, message, line=None, column=None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownVariable(PolySyntaxError):
    pass


class IndexOutOfRange(SinghuntError):
    pass


# -- linear algebra -----------------------------------------------------------

class NotSquare(SinghuntError):
    pass


class DimensionMismatch(SinghuntError):
    pass


class MatrixSyntaxError(SinghuntError):
    pass


# -- hunting and classification ------------------------------------------------

class BudgetExceeded(SinghuntError):
    pass


class NotLinearInParams(SinghuntError):
    pass


class NotSingular(SinghuntError):
    pass


class SmallCharacteristic(SinghuntError):
    """Classification is unreliable when the characteristic is <= deg f."""


# -- interpolation --------------------------------------------------------------

class InsufficientPoints(SinghuntError):
    pass


class NotOnVariety(SinghuntError):
    pass


# -- multimodular lifting --------------------------------------------------------

class DuplicatePrime(SinghuntError):
    pass


class BadPrime(SinghuntError):
    pass


class NoReconstruction(SinghuntError):
    """No rational within the height bound matches: collect more primes."""


class HeldOutMismatch(SinghuntError):
    """A reconstructed value failed verification at one or more primes."""

    def __init__(self, message, suspects=()):
        super().__init__(message)
        self.suspects = tuple(suspects)


# -- lattices and covers -----------------------------------------------------------

class BadGram(SinghuntError):
    """A Gram matrix that is not symmetric, or repeats a class name."""


class NotAGenerator(SinghuntError):
    pass


class NonIntegral(SinghuntError):
    pass


class InconsistentData(SinghuntError):
    pass


class NegativeH0(SinghuntError):
    pass


# -- data files ------------------------------------------------------------------

def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line with content; '#' starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def signed_terms(text: str) -> list[tuple[int, str]]:
    """(sign, body) of each term of a sum such as '3*t - t^2' or '8*K+-C',
    spaces dropped.  A sign right after '+' belongs to the next term; a sign
    with no term after it, as in '8*K+', gives an empty body, which callers
    reject.  An empty text has no terms."""
    text = text.replace(" ", "")
    if not text:
        return []
    chunks, cur = [], ""
    for ch in text:
        if ch in "+-" and cur:
            chunks.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    chunks.append(cur)
    return [(-1, c[1:]) if c.startswith("-") else (1, c.removeprefix("+")) for c in chunks]


class at_line:
    """Report bad data, an unknown name (KeyError) included, with its line.
    A class rather than a generator: it wraps every line of a points file."""

    def __init__(self, lineno: int):
        self.lineno = lineno

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, KeyError):
            raise SinghuntError(f"line {self.lineno}: {exc.args[0]}") from exc
        if isinstance(exc, (ValueError, SinghuntError)):
            raise SinghuntError(f"line {self.lineno}: {exc}") from exc
