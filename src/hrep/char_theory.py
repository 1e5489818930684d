"""Exact root-of-unity arithmetic, linear characters of subgroups, and
their extension to overgroups.

A root of unity e^(2*pi*i*q) is stored as the reduced rational exponent
q = num/den in [0, 1); adding exponents multiplies roots, so the whole
determinant pipeline stays in one exact value domain (-1 is 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import (
    EnumerationBoundExceeded,
    NoExtension,
    NotAbelian,
    NotACharacter,
)
from .group_core import FiniteGroup, Subgroup

CHARACTER_ENUM_BOUND = 4096


@dataclass(frozen=True)
class QmodZ:
    """A reduced rational exponent in [0, 1); the value domain of all
    characters and determinants."""

    num: int = 0
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            raise ZeroDivisionError("QmodZ denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __add__(self, other: "QmodZ") -> "QmodZ":
        return QmodZ(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "QmodZ":
        return QmodZ(-self.num, self.den)

    def __sub__(self, other: "QmodZ") -> "QmodZ":
        return self + (-other)

    def scale(self, k: int) -> "QmodZ":
        """k-th power of the root of unity: q -> k*q mod 1."""
        return QmodZ(k * self.num, self.den)

    @property
    def order(self) -> int:
        """Multiplicative order of the root of unity."""
        return self.den

    def is_zero(self) -> bool:
        return self.num == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "QmodZ":
        num, den = text.split("/")
        return cls(int(num), int(den))


ZERO = QmodZ(0, 1)
HALF = QmodZ(1, 2)


def residues(values) -> tuple[int, np.ndarray]:
    """(N, r) with ``values[i] = r[i]/N`` over the least common denominator N."""
    common = math.lcm(*(q.den for q in values))
    return common, np.array([q.num * (common // q.den) for q in values], dtype=np.int64)


@dataclass(frozen=True)
class LinearCharacter:
    """A multiplicative map from a subgroup's elements into QmodZ.

    Values are stored as a total tuple aligned with ``domain.members``;
    equality is structural.
    """

    domain: Subgroup
    exps: tuple[QmodZ, ...]

    def __post_init__(self):
        if len(self.exps) != len(self.domain.members):
            raise NotACharacter("value tuple length must match the domain")

    @cached_property
    def _index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.domain.members)}

    def __call__(self, x: int) -> QmodZ:
        return self.exps[self._index[x]]

    @classmethod
    def from_values(cls, domain: Subgroup, values: dict[int, QmodZ]) -> "LinearCharacter":
        return cls(domain, tuple(values[m] for m in domain.members))

    def validate(self) -> None:
        """Exhaustive multiplicativity check over the whole domain.

        Runs on residues over a common denominator, against the parent's
        table restricted to the domain, so the n^2 comparisons stay in
        integer arrays. A failure carries its first witness (x, y) in
        row-major order.
        """
        g = self.domain.parent
        e = g.identity_id
        if not self(e).is_zero():
            raise NotACharacter("character must send the identity to 0/1", witness=(e, e))
        members = np.asarray(self.domain.members)
        common, ints = residues(self.exps)
        on_parent = np.full(g.order, -1, dtype=np.int64)
        on_parent[members] = ints
        # a full domain reads the parent's table as is, without an n^2 copy
        table = g._np_table if len(members) == g.order else g._np_table[np.ix_(members, members)]
        products = on_parent[table]
        if products.min() < 0:
            raise NotACharacter("domain is not closed under the product")
        ok = (ints[:, None] + ints[None, :]) % common == products
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            x, y = self.domain.members[int(i)], self.domain.members[int(j)]
            raise NotACharacter(f"multiplicativity fails at ({x},{y})", witness=(x, y))

    def kernel(self) -> Subgroup:
        return Subgroup(
            self.domain.parent,
            tuple(m for m in self.domain.members if self(m).is_zero()),
        )

    def restrict(self, sub: Subgroup) -> "LinearCharacter":
        return LinearCharacter(sub, tuple(self(m) for m in sub.members))

    def __mul__(self, other: "LinearCharacter") -> "LinearCharacter":
        """Pointwise product of two characters on the same domain."""
        if other.domain.members != self.domain.members:
            raise NotACharacter("can only multiply characters on the same domain")
        return LinearCharacter(self.domain, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def as_dict(self) -> dict:
        return {
            "domain": list(self.domain.members),
            "values": {str(m): str(self(m)) for m in self.domain.members},
        }


def trivial_character(domain: Subgroup) -> LinearCharacter:
    return LinearCharacter(domain, tuple(ZERO for _ in domain.members))


def characters_of_abelian(group: FiniteGroup) -> list[LinearCharacter]:
    """All |A| characters of an abelian group, ordered by index tuple.

    The character indexed by (c_1, ..., c_s) sends the i-th invariant
    generator t_i to c_i/m_i.
    """
    from .abelian import decompose

    if not group.is_abelian:
        raise NotAbelian(f"{group.label} is not abelian")
    if group.order > CHARACTER_ENUM_BOUND:
        raise EnumerationBoundExceeded(
            f"|A|={group.order} exceeds character enumeration bound {CHARACTER_ENUM_BOUND}"
        )
    dec = decompose(group)
    coords = dec.exponent_coordinates
    domain = group.full_subgroup()
    chars = []
    for idx in product(*[range(m) for m in dec.factors]):
        exps = []
        for x in group.elements():
            value = ZERO
            for c, a, m in zip(idx, coords[x], dec.factors):
                value = value + QmodZ(c * a, m)
            exps.append(value)
        chars.append(LinearCharacter(domain, tuple(exps)))
    return chars


def characters_of_subgroup(sub: Subgroup) -> list[LinearCharacter]:
    """All linear characters of a subgroup (through its abelianization)."""
    grp, _ = sub.as_group
    quot, proj = grp.abelianization
    return [
        LinearCharacter(sub, tuple(chi(proj(x)) for x in grp.elements()))
        for chi in characters_of_abelian(quot)
    ]


def linear_characters(group: FiniteGroup) -> list[LinearCharacter]:
    """All linear characters of a group, trivial character first."""
    return characters_of_subgroup(group.full_subgroup())


def extend_character(
    group: FiniteGroup, chi: LinearCharacter, over: Subgroup
) -> LinearCharacter:
    """Extend chi from its domain Z to an overgroup H, deterministically.

    Repeatedly adjoins the smallest-id element t of H not yet covered;
    with m minimal such that t^m lands in the covered part, the value
    chi(t^m) = num/den is lifted to num/(den*m), the smallest of the m
    branch choices. ``extend_character_all`` enumerates every branch.
    """
    return _extend(group, chi, over, all_branches=False)[0]


def extend_character_all(
    group: FiniteGroup, chi: LinearCharacter, over: Subgroup
) -> list[LinearCharacter]:
    """Every extension of chi to the overgroup, in branch-lexicographic order."""
    return _extend(group, chi, over, all_branches=True)


def _extend(group, chi, over, *, all_branches):
    z_members = chi.domain.members
    if over.members == z_members:
        return [chi]
    if not over.contains_subgroup(chi.domain):
        raise NoExtension("overgroup does not contain the character's domain")
    over_set = set(over.members)
    # commutators of the overgroup must die in chi (first witness in
    # row-major order); as Z lies in H, that makes chi H-invariant too:
    # chi(h z h^-1) = chi([h, z] z) = chi(z)
    _, values = residues(chi.exps)
    on_parent = np.full(group.order, -1, dtype=np.int64)
    on_parent[list(z_members)] = values
    h = np.asarray(over.members)
    bad = np.argwhere(on_parent[group.commutator_table(h, h)] != 0)
    if bad.size:
        h1, h2 = h[bad[0]].tolist()
        raise NoExtension(f"character is not trivial on [H,H] (witness [{h1},{h2}])")

    def grow(values: dict[int, QmodZ]) -> list[dict[int, QmodZ]]:
        if len(values) == len(over_set):
            return [values]
        t = min(over_set - values.keys())
        m, p = 1, t
        while p not in values:
            p = group.mul(p, t)
            m += 1
        base = values[p]
        branches = range(m) if all_branches else range(1)
        results = []
        for j in branches:
            w = QmodZ(base.num + j * base.den, base.den * m)
            # the covered part contains [H,H], hence is normal with cyclic
            # quotient <t>: every new element is c*t^k uniquely
            extended = dict(values)
            power = group.identity_id
            for k in range(1, m):
                power = group.mul(power, t)
                shift = w.scale(k)
                for c, vc in values.items():
                    extended[group.mul(c, power)] = vc + shift
            results.extend(grow(extended))
        return results

    start = {z: chi(z) for z in z_members}
    tables = grow(start)
    out = []
    for values in tables:
        result = LinearCharacter.from_values(over, values)
        try:
            result.validate()
        except NotACharacter as exc:
            raise NoExtension(f"branch assignment is inconsistent: {exc}") from exc
        out.append(result)
    return out
