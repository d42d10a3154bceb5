"""The traced benchmark (perfbench/spans.py) wraps named functions and
methods of the singhunt modules.  Installing and removing its wrappers here
makes a rename or deletion of any of them fail the tier-1 suite, instead of
only the traced run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

from singhunt import cover, exactla, fields, hunt, interp, lattice, lift, poly  # noqa: E402, F401


def namespaces():
    """Every singhunt module, and the classes whose methods are wrapped."""
    modules = [m for name, m in sys.modules.items() if name.startswith("singhunt")]
    return modules + [poly.ParametricFamily, poly.MultiPoly, fields.FieldElement,
                      lattice.GramLattice, cover.CoverData]


def test_traced_benchmark_instruments_and_restores_the_modules():
    before = [dict(vars(ns)) for ns in namespaces()]
    originals = (exactla.rref, fields.inv, hunt.singular_points, fields.FieldElement.__mul__)
    remove = spans.instrument(spans.Tracer())
    try:
        wrapped = (exactla.rref, fields.inv, hunt.singular_points, fields.FieldElement.__mul__)
        assert [w.__wrapped__ for w in wrapped] == list(originals)
    finally:
        remove()
    assert [dict(vars(ns)) for ns in namespaces()] == before
