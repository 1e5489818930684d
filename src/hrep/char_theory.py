"""Exact root-of-unity arithmetic, linear characters of subgroups, and
their extension to overgroups.

A root of unity e^(2*pi*i*q) is written as the reduced rational exponent
q = num/den in [0, 1) (``QmodZ``); adding exponents multiplies roots. Every
character value and every determinant of a group G has an order dividing
N = lcm(exp(G), 2) (``residue_modulus``), so inside the pipeline a value is
the integer residue r = q*N mod N, and -1 is N/2. ``residues`` is the one
conversion from exponents to residues; a ``LinearCharacter`` converts its
values once (``LinearCharacter.residues``), and ``QmodZ`` is built again
only where a report prints a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
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


def residue_modulus(group: FiniteGroup) -> int:
    """N = lcm(exp(G), 2): every character value and determinant of G is
    an N-th root of unity, the sign -1 included."""
    return math.lcm(group.exponent, 2)


def residues(values, modulus: int) -> np.ndarray:
    """r with ``values[i] = r[i]/modulus``; a value whose order does not
    divide the modulus is not a residue and raises NotACharacter."""
    out = np.empty(len(values), dtype=np.int64)
    for i, q in enumerate(values):
        step, rest = divmod(modulus, q.den)
        if rest:
            raise NotACharacter(f"value {q} has order {q.den}, which does not divide N={modulus}")
        out[i] = q.num * step
    return out


@cache
def _exponents(modulus: int) -> tuple[QmodZ, ...]:
    """QmodZ(r, modulus) for every residue r, built once per modulus."""
    return tuple(QmodZ(r, modulus) for r in range(modulus))


def multiplicativity_witness(values: np.ndarray, products: np.ndarray, modulus: int):
    """The first (i, j) in row-major order with products[i, j] !=
    values[i] + values[j] mod modulus, or None. The n^2 sums run in int32,
    which holds the sum of any two residues."""
    values = values.astype(np.int32, copy=False)
    products = products.astype(np.int32, copy=False)
    bad = (values[:, None] + values[None, :]) % modulus != products
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


@dataclass(frozen=True)
class LinearCharacter:
    """A multiplicative map from a subgroup's elements into QmodZ.

    Values are stored as a total tuple aligned with ``domain.members``;
    equality is structural. ``residues`` is the same map as integers mod
    the parent's N, the form every table computation reads.
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

    @cached_property
    def residues(self) -> np.ndarray:
        """The values as residues mod the parent's N, indexed by parent
        element id; -1 off the domain. Read-only."""
        parent = self.domain.parent
        on_parent = np.full(parent.order, -1, dtype=np.int64)
        on_parent[list(self.domain.members)] = residues(self.exps, residue_modulus(parent))
        on_parent.flags.writeable = False
        return on_parent

    @classmethod
    def from_values(cls, domain: Subgroup, values: dict[int, QmodZ]) -> "LinearCharacter":
        return cls(domain, tuple(values[m] for m in domain.members))

    def validate(self) -> None:
        """Exhaustive multiplicativity check over the whole domain.

        Runs on the residues mod the parent's N, against the parent's
        table restricted to the domain, so the n^2 comparisons stay in
        integer arrays. A value whose order does not divide N fails first;
        a multiplicativity failure carries its first witness (x, y) in
        row-major order. The character is immutable, so a check that
        passed is not run again.
        """
        self._multiplicative

    @cached_property
    def _multiplicative(self) -> bool:
        g = self.domain.parent
        e = g.identity_id
        on_parent = self.residues.astype(np.int32)
        if on_parent[e] != 0:
            raise NotACharacter("character must send the identity to 0/1", witness=(e, e))
        members = np.asarray(self.domain.members)
        # a full domain reads the parent's table as is, without an n^2 copy,
        # and is closed under the product
        if len(members) == g.order:
            products = on_parent[g.table]
        else:
            products = on_parent[g.table[np.ix_(members, members)]]
            if products.min() < 0:
                raise NotACharacter("domain is not closed under the product")
        witness = multiplicativity_witness(on_parent[members], products, residue_modulus(g))
        if witness is not None:
            x, y = (self.domain.members[i] for i in witness)
            raise NotACharacter(f"multiplicativity fails at ({x},{y})", witness=(x, y))
        return True

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain.parent, tuple(np.flatnonzero(self.residues == 0).tolist()))

    def restrict(self, sub: Subgroup) -> "LinearCharacter":
        members = list(sub.members)
        on_parent = np.full(len(self.residues), -1, dtype=np.int64)
        on_parent[members] = self.residues[members]
        if on_parent[members].min() < 0:
            raise NotACharacter("can only restrict to a subgroup of the domain")
        return LinearCharacter._from_residues(sub, on_parent)

    def __mul__(self, other: "LinearCharacter") -> "LinearCharacter":
        """Pointwise product of two characters on the same domain."""
        if other.domain.members != self.domain.members:
            raise NotACharacter("can only multiply characters on the same domain")
        modulus = residue_modulus(self.domain.parent)
        on_domain = self.residues >= 0
        on_parent = np.where(on_domain, (self.residues + other.residues) % modulus, -1)
        return LinearCharacter._from_residues(self.domain, on_parent)

    @classmethod
    def _from_residues(cls, domain: Subgroup, on_parent: np.ndarray) -> "LinearCharacter":
        """The character with these residues (indexed by parent id, -1 off
        the domain), its exponents read from one shared table rather than
        built, and its residues kept rather than converted back."""
        table = _exponents(residue_modulus(domain.parent))
        chi = cls(domain, tuple(map(table.__getitem__, on_parent[domain.mask].tolist())))
        on_parent.flags.writeable = False
        chi.__dict__["residues"] = on_parent
        return chi

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
    modulus = residue_modulus(group)
    coords = dec.exponent_coordinates
    # row x: the coordinates (a_i) of x, each scaled by N/m_i, so that
    # chi_c(x) = sum_i c_i a_i / m_i is the residue (scaled @ c) mod N
    scaled = np.array(
        [coords[x] for x in group.elements()], dtype=np.int64
    ).reshape(group.order, len(dec.factors)) * np.array(
        [modulus // m for m in dec.factors], dtype=np.int64
    )
    domain = group.full_subgroup()
    return [
        LinearCharacter._from_residues(domain, scaled @ np.array(idx, dtype=np.int64) % modulus)
        for idx in product(*[range(m) for m in dec.factors])
    ]


def characters_of_subgroup(sub: Subgroup) -> list[LinearCharacter]:
    """All linear characters of a subgroup (through its abelianization).

    Each is one gather of a character of H/[H,H] through the projection,
    its residues scaled from that quotient's modulus to the parent's N
    (a multiple of it, as exp(H/[H,H]) divides exp(G)).
    """
    grp, _ = sub.as_group
    quot, proj = grp.abelianization
    scale = residue_modulus(sub.parent) // residue_modulus(quot)
    members, local = list(sub.members), np.asarray(proj.map)
    characters = []
    for chi in characters_of_abelian(quot):
        on_parent = np.full(sub.parent.order, -1, dtype=np.int64)
        on_parent[members] = chi.residues[local] * scale
        characters.append(LinearCharacter._from_residues(sub, on_parent))
    return characters


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
    h = np.asarray(over.members)
    bad = np.argwhere(chi.residues[group.commutator_table(h, h)] != 0)
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
