"""Structure theory of finite abelian groups.

Invariant factors are produced in ascending divisibility order
m_1 | m_2 | ... | m_s, with explicit generators realizing the
decomposition as an internal direct product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnumerationBoundExceeded, NotAbelian, math_check as _math_check
from .group_core import FiniteGroup

# The decomposition bound: decompose refuses larger groups, and up to it
# decomposes and checks that every element is a unique product of
# generator powers.
DECOMPOSE_VERIFY_BOUND = 4096


@dataclass(frozen=True)
class AbelianDecomposition:
    """An abelian group as Z/m_1 x ... x Z/m_s with m_1 | ... | m_s.

    ``generators[i]`` has order ``factors[i]`` and every element is a
    unique product of generator powers (``exponent_coordinates`` checks it).
    """

    group: FiniteGroup
    factors: tuple[int, ...]
    generators: tuple[int, ...]

    @cached_property
    def exponent_coordinates(self) -> np.ndarray:
        """Read-only n x s: row x holds the exponents (a_1, ..., a_s) with
        x = t_1^a_1 ... t_s^a_s. Raises IdentityFailed unless every element
        is reached exactly once."""
        g, s = self.group, len(self.factors)
        # ids[i] = t_1^a_1 ... t_s^a_s for the i-th tuple in product order
        ids = np.array([g.identity_id])
        for t, m in zip(self.generators, self.factors):
            ids = g.table[ids[:, None], [g.pow(t, a) for a in range(m)]].reshape(-1)
        unique = np.array_equal(np.sort(ids), np.arange(g.order))
        _math_check(unique, "expression by generator powers is not unique")
        coords = np.empty((g.order, s), dtype=np.int64)
        coords[ids] = np.indices(self.factors).reshape(s, g.order).T
        coords.flags.writeable = False
        return coords

    def as_dict(self) -> dict:
        return {"factors": list(self.factors), "generators": list(self.generators)}


def _require_abelian(group: FiniteGroup) -> None:
    if not group.is_abelian:
        raise NotAbelian(f"{group.label} is not abelian")


def decompose(group: FiniteGroup) -> AbelianDecomposition:
    """Invariant-factor decomposition with explicit generators.

    Repeatedly split off the cyclic subgroup <t> generated by the least id
    t of maximal order m in the current complement C, and replace C by the
    lexicographically least complement of <t> in C. A cyclic subgroup of
    maximal order is a direct summand, and so is its image in C/K for
    any subgroup K of C meeting <t> trivially; so every such K extends to
    a complement. The least complement is therefore built greedily: walk
    C in id order, adjoining x whenever <K, x> still meets <t> trivially,
    until K has order |C|/m. Every order in the complement divides m, so
    the loop yields the ascending chain directly.
    """
    _require_abelian(group)
    if group.order > DECOMPOSE_VERIFY_BOUND:
        raise EnumerationBoundExceeded(
            f"|G|={group.order} exceeds decomposition bound {DECOMPOSE_VERIFY_BOUND}"
        )
    factors_desc: list[int] = []
    generators_desc: list[int] = []

    current = np.arange(group.order)
    while current.size > 1:
        orders = group.element_orders[current]
        m = int(orders.max())
        t = int(current[np.argmax(orders)])
        factors_desc.append(m)
        generators_desc.append(t)
        current = _least_complement(group, current, t, current.size // m)

    factors = tuple(reversed(factors_desc))
    generators = tuple(reversed(generators_desc))
    dec = AbelianDecomposition(group, factors, generators)

    _math_check(math.prod(factors) == group.order, "invariant factors must multiply to the order")
    for m, t in zip(factors, generators):
        _math_check(group.element_order(t) == m, f"generator {t} must have order {m}")
    dec.exponent_coordinates  # raises unless each element is reached exactly once
    return dec


def _least_complement(group: FiniteGroup, current: np.ndarray, t: int, want: int) -> np.ndarray:
    """The lexicographically least subgroup of order ``want`` in the
    subgroup ``current`` (sorted ids) that meets <t> trivially, as sorted
    ids; ``want`` is |current| / |<t>| and <t> is a direct summand."""
    table, e = group.table, group.identity_id
    in_cyclic = np.zeros(group.order, dtype=bool)
    in_cyclic[list(group.subgroup_generated([t]).members)] = True
    span = np.array([e])
    in_span = np.zeros(group.order, dtype=bool)
    in_span[e] = True
    for x in current.tolist():
        if span.size == want:
            break
        if in_span[x]:
            continue
        # <K, x> is the union of the cosets K x^k up to the first x^k in K
        cosets, y = [], x
        while not in_span[y]:
            cosets.append(table[span, y])
            y = table[y, x]
        grown = np.concatenate(cosets)
        if not in_cyclic[grown].any():
            span = np.concatenate([span, grown])
            in_span[grown] = True
    _math_check(span.size == want, "maximal-order cyclic factor must split off")
    return np.sort(span)


def two_rank(group: FiniteGroup) -> int:
    """Number of even invariant factors."""
    return sum(1 for m in decompose(group).factors if m % 2 == 0)


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
