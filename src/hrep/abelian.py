"""Structure theory of finite abelian groups.

Invariant factors are produced in ascending divisibility order
m_1 | m_2 | ... | m_s, with explicit generators realizing the
decomposition as an internal direct product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import NotAbelian, math_check as _math_check
from .group_core import FiniteGroup

# Exhaustive unique-expression verification is performed up to this order.
DECOMPOSE_VERIFY_BOUND = 4096


@dataclass(frozen=True)
class AbelianDecomposition:
    """An abelian group as Z/m_1 x ... x Z/m_s with m_1 | ... | m_s.

    ``generators[i]`` has order ``factors[i]`` and every element is a
    unique product of generator powers.
    """

    group: FiniteGroup
    factors: tuple[int, ...]
    generators: tuple[int, ...]

    @cached_property
    def exponent_coordinates(self) -> dict[int, tuple[int, ...]]:
        """element id -> exponent tuple (a_1, ..., a_s); bijective by construction."""
        g = self.group
        coords: dict[int, tuple[int, ...]] = {}
        for tup in product(*[range(m) for m in self.factors]):
            x = g.identity_id
            for t, a in zip(self.generators, tup):
                x = g.mul(x, g.pow(t, a))
            coords[x] = tup
        return coords

    def as_dict(self) -> dict:
        return {"factors": list(self.factors), "generators": list(self.generators)}


def _require_abelian(group: FiniteGroup) -> None:
    if not group.is_abelian:
        raise NotAbelian(f"{group.label} is not abelian")


def decompose(group: FiniteGroup) -> AbelianDecomposition:
    """Invariant-factor decomposition with explicit generators.

    Repeatedly split off a cyclic subgroup generated by an element of
    maximal order; the complement is the first member of the group's
    subgroup lattice, listed once, that lies in the current complement,
    meets the cyclic part trivially and has complementary order. Every
    order in the complement divides the maximal order, so the loop yields
    the ascending chain directly.
    """
    _require_abelian(group)
    lattice = group.all_subgroups(max_order=DECOMPOSE_VERIFY_BOUND)
    factors_desc: list[int] = []
    generators_desc: list[int] = []

    current = lattice[-1]
    while len(current) > 1:
        orders = [group.element_order(x) for x in current.members]
        m = max(orders)
        t = current.members[orders.index(m)]
        factors_desc.append(m)
        generators_desc.append(t)
        cyc = set(group.subgroup_generated([t]).members)
        want = len(current) // m
        current = next(
            (
                sub
                for sub in lattice
                if len(sub) == want
                and current.contains_subgroup(sub)
                and cyc.intersection(sub.members) == {group.identity_id}
            ),
            None,
        )
        _math_check(current is not None, "maximal-order cyclic factor must split off")

    factors = tuple(reversed(factors_desc))
    generators = tuple(reversed(generators_desc))
    dec = AbelianDecomposition(group, factors, generators)

    prod_order = 1
    for m in factors:
        prod_order *= m
    _math_check(prod_order == group.order, "invariant factors must multiply to the order")
    for m, t in zip(factors, generators):
        _math_check(group.element_order(t) == m, f"generator {t} must have order {m}")
    if group.order <= DECOMPOSE_VERIFY_BOUND:
        coords = dec.exponent_coordinates
        _math_check(len(coords) == group.order, "expression by generator powers is not unique")
    return dec


def two_rank(group: FiniteGroup) -> int:
    """Number of even invariant factors."""
    return sum(1 for m in decompose(group).factors if m % 2 == 0)


def involution_set(group: FiniteGroup) -> set[int]:
    """All x with x^2 = e, identity included (any group)."""
    return set(np.flatnonzero(group.powers(2) == group.identity_id).tolist())


def subgroup_product(group: FiniteGroup, members) -> int:
    """Product over an explicit subset of an abelian group (order irrelevant).

    Over the whole group this is the Miller product: the unique involution
    when there is exactly one, and the identity otherwise.
    """
    _require_abelian(group)
    result = group.identity_id
    for x in members:
        result = group.mul(result, x)
    return result
