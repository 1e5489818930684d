"""Heisenberg representations of finite groups: transfer maps and exact
determinant characters.

The library computes with finite groups given as Cayley tables, holds
roots of unity as integer residues mod N = lcm(exp(G), 2) and reports them
as reduced rational exponents, and verifies the closed form
det(rho)(g) = eps(g) * chi(g^d) against induced monomial determinants and
Gallagher's transfer formula.
"""

from .char_theory import LinearCharacter, QmodZ
from .group_core import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_group,
    central_product,
    construct,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3_exp_p2,
    from_cayley_table,
    from_name,
    heisenberg_mod,
    quaternion8,
)
from .heisenberg import HeisenbergPair, enumerate_pairs, quotient_by_kernel, validate_pair
from .induced_det import build_det_report, direct_table, gallagher_table

__version__ = "0.1.0"

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "HeisenbergPair",
    "LinearCharacter",
    "QmodZ",
    "Subgroup",
    "abelian_group",
    "build_det_report",
    "central_product",
    "construct",
    "cyclic",
    "dihedral",
    "direct_product",
    "direct_table",
    "enumerate_pairs",
    "extraspecial_p3_exp_p2",
    "from_cayley_table",
    "from_name",
    "gallagher_table",
    "heisenberg_mod",
    "quaternion8",
    "quotient_by_kernel",
    "validate_pair",
]
