"""Built-in fixture: the two-node + two-A3 configuration with K^2 = 1.

All numbers here are desk-checkable from the 9x9 Gram matrix in
``lattice.godeaux_fixture``: the pairings of the auxiliary curves C' and D'
follow from pairing the divisibility relations

    8K = 4C' + 2N1 + N3 + 2N4 + 3N5 + 3N6 + 2N7 + N8
    4K = 2D' + N1 + N2 + N6 + 2N7 + N8

with each basis class, and the cover data below reproduces the full
building-data table of a Z/2 x Z/4 cover branched on the eight (-2)-curves.
"""

from __future__ import annotations

from .cover import (
    AbelianGroup,
    BranchAssignment,
    Character,
    CoverData,
)
from .lattice import (
    CurveTemplate,
    DivisorClass,
    GramLattice,
    SurfaceInvariants,
    godeaux_fixture,
)

#: invariants of the base surface (minimal resolution): chi = 1, K^2 = 1, q = 0
BASE_INVARIANTS = SurfaceInvariants(chi=1, K2=1, q=0)

#: group of the cover
COVER_GROUP = AbelianGroup((2, 4))

#: intersection data of the auxiliary curves, derived from the relations
C_PAIRINGS = (1, 0, 0, 0, 1, 1, 0, 0, 2)  # with N1..N8, K
C_SELF = 2
D_PAIRINGS = (1, 1, 0, 0, 0, 0, 1, 0, 2)
D_SELF = 2
CD_PAIRING = 3

#: multiplicities in the two divisibility relations
C_MULTIPLICITIES = {"N1": 2, "N3": 1, "N4": 2, "N5": 3, "N6": 3, "N7": 2, "N8": 1}
D_MULTIPLICITIES = {"N1": 1, "N2": 1, "N6": 1, "N7": 2, "N8": 1}

#: templates and search constraints used to re-derive the relations; the
#: contact totals say that each curve meets a chain it passes through in a
#: single transverse point (pairing 1 with the chain's fundamental cycle),
#: and the two zero-pins fix which chain end carries the contact, a pure
#: relabeling freedom of the chains that the Gram matrix cannot see
C_TEMPLATE = CurveTemplate.make({"K": 8}, 4, "C'", ["N1", "N3", "N4", "N5", "N6", "N7", "N8"])
C_CONSTRAINTS = {
    "N1": (1,), "N2": (0,), "N3": (0,), "N4": (0, 1), "N5": (0, 1),
    "N6": (0, 1), "N7": (0, 1), "N8": (0,),
}
C_CONTACTS = ((("N3", "N4", "N5"), 1), (("N6", "N7", "N8"), 1))

D_TEMPLATE = CurveTemplate.make({"K": 4}, 2, "D'", ["N1", "N2", "N6", "N7", "N8"])
D_CONSTRAINTS = {
    "N1": (1,), "N2": (1,), "N3": (0,), "N4": (0,), "N5": (0,),
    "N6": (0, 1), "N7": (0, 1), "N8": (0, 1),
}
D_CONTACTS = ((("N3", "N4", "N5"), 0), (("N6", "N7", "N8"), 1))

#: canonical relation vectors in the 11-class basis N1..N8, K, C', D'
RELATION_C = (-2, 0, -1, -2, -3, -3, -2, -1, 8, -4, 0)
RELATION_D = (-1, -1, 0, 0, 0, -1, -2, -1, 4, 0, -2)

#: the two generating characters and the cover's reduced-coefficient tables
CHI_A = (1, 0)  # order 2
CHI_B = (1, 1)  # order 4
TABLE_A = [[0], [1], [1], [0, 0], [1, 1]]
TABLE_B = [[2], [2], [0], [1, 3], [3, 1]]

#: expected line-bundle classes, keyed by character exponents, as
#: coefficient dicts over the 11-class basis
L_EXPECTED = {
    (1, 0): {"K": 2, "D'": -1, "N7": -1},
    (0, 2): {"K": 4, "C'": -2, "N1": -1, "N4": -1, "N5": -1, "N6": -1, "N7": -1},
    (1, 2): {"K": 6, "C'": -2, "D'": -1, "N1": -1, "N4": -1, "N5": -1,
             "N6": -2, "N7": -2, "N8": -1},
    (1, 1): {"K": 2, "C'": -1},
    (0, 1): {"K": 4, "C'": -1, "D'": -1, "N1": -1, "N6": -1, "N7": -1},
    (1, 3): {"K": 6, "C'": -3, "N1": -1, "N4": -1, "N5": -2, "N6": -2, "N7": -1},
    (0, 3): {"K": 8, "C'": -3, "D'": -1, "N1": -2, "N4": -1, "N5": -2,
             "N6": -2, "N7": -2, "N8": -1},
}

#: the alternative expression for the (1,2) class before substituting the
#: C'-relation: 14K - 6C' - D' - 3N1 - N3 - 3N4 - 4N5 - 5N6 - 4N7 - 2N8
L_12_UNREDUCED = {"K": 14, "C'": -6, "D'": -1, "N1": -3, "N3": -1, "N4": -3,
                  "N5": -4, "N6": -5, "N7": -4, "N8": -2}

#: h^0(K + L_chi) inputs for the geometric-genus formula (established on the
#: explicit surface; data here, never computed)
H0_INPUTS = [0] * 7

#: expected invariants of the cover
COVER_CHI = 1
COVER_PG = 0
COVER_K2 = 8
COVER_B2 = 2


def extended_lattice(base: GramLattice | None = None) -> GramLattice:
    """The 11x11 lattice {N1..N8, K, C', D'} with the derived pairings, built
    on `base` (the 9x9 `godeaux_fixture()` unless given)."""
    L = godeaux_fixture() if base is None else base
    L = L.extend_with_curve("C'", C_PAIRINGS, C_SELF)
    L = L.extend_with_curve("D'", list(D_PAIRINGS) + [CD_PAIRING], D_SELF)
    return L


def branch_divisors(L: GramLattice) -> list[DivisorClass]:
    """Branch divisor per canonical slot: subgroups of order 2 first
    (generators (0,2), (1,0), (1,2)), then the two order-4 subgroups with
    their two generator characters each."""
    def cls(*names):
        return L.combo({nm: 1 for nm in names})

    return [
        cls("N4", "N7"),  # subgroup <(0,2)>
        cls("N1"),        # subgroup <(1,0)>
        cls("N2"),        # subgroup <(1,2)>
        cls("N3"),        # subgroup <(0,1)>, psi
        cls("N5"),        # subgroup <(0,1)>, psi^3
        cls("N6"),        # subgroup <(1,1)>, psi
        cls("N8"),        # subgroup <(1,1)>, psi^3
    ]


def generator_classes(L: GramLattice) -> dict[Character, DivisorClass]:
    chi_a = Character(COVER_GROUP, CHI_A)
    chi_b = Character(COVER_GROUP, CHI_B)
    return {
        chi_a: L.combo(L_EXPECTED[CHI_A]),
        chi_b: L.combo(L_EXPECTED[CHI_B]),
    }


def cover_data(ext: GramLattice | None = None) -> CoverData:
    """The full numerical building data of the fixture cover on `ext` (the
    `extended_lattice()` unless given)."""
    from .cover import derive_all_L

    L = extended_lattice() if ext is None else ext
    branch = BranchAssignment.assign(COVER_GROUP, branch_divisors(L))
    Lmap = derive_all_L(L, branch, generator_classes(L))
    return CoverData(COVER_GROUP, branch, L, Lmap)
