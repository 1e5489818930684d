"""Structure theory of finite abelian groups.

Invariant factors are produced in ascending divisibility order
m_1 | m_2 | ... | m_s, with explicit generators realizing the
decomposition as an internal direct product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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
    maximal order; the complement is found by exhaustive search over
    subgroups that meet the cyclic part trivially and have complementary
    order. Every order in the complement divides the maximal order, so
    recursion yields the ascending chain directly.
    """
    _require_abelian(group)
    factors_desc: list[int] = []
    generators_desc: list[int] = []

    current = group
    to_ambient = tuple(range(group.order))
    while current.order > 1:
        orders = [current.element_order(x) for x in current.elements()]
        m = max(orders)
        t = orders.index(m)
        factors_desc.append(m)
        generators_desc.append(to_ambient[t])
        cyc = set(current.subgroup_generated([t]).members)
        want = current.order // m
        complement = None
        for sub in current.all_subgroups(max_order=DECOMPOSE_VERIFY_BOUND):
            if len(sub) == want and len(cyc & set(sub.members)) == 1:
                complement = sub
                break
        _math_check(complement is not None, "maximal-order cyclic factor must split off")
        grp, local_to_parent = complement.as_group
        to_ambient = tuple(to_ambient[p] for p in local_to_parent)
        current = grp

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
        coords = dec.exponent_coordinates()
        _math_check(len(coords) == group.order, "expression by generator powers is not unique")
    return dec


def two_rank(group: FiniteGroup) -> int:
    """Number of even invariant factors."""
    return sum(1 for m in decompose(group).factors if m % 2 == 0)


def involution_set(group: FiniteGroup) -> set[int]:
    """All x with x^2 = e, identity included (any group)."""
    return {x for x in group.elements() if group.mul(x, x) == group.identity_id}


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
