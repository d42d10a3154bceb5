import ast
import inspect
from pathlib import Path

from singhunt import errors

SRC = Path(errors.__file__).parent


def test_every_error_class_is_raised_or_subclassed():
    """An exception class that nothing under src/ raises (a name anywhere in
    a `raise` statement counts, as in `raise error(..., UnknownVariable)`)
    or derives from is dead code."""
    raised, bases = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                raised |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.ClassDef):
                bases |= {b.id for b in node.bases if isinstance(b, ast.Name)}
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.SinghuntError)}
    assert classes - raised - bases == set()
