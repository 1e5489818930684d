"""Exact root-of-unity arithmetic, linear characters of subgroups, and
their extension to overgroups.

A root of unity e^(2*pi*i*q) is written as the reduced rational exponent
q = num/den in [0, 1) (``QmodZ``); adding exponents multiplies roots. Every
character value and every determinant of a group G has an order dividing
N = lcm(exp(G), 2) (``residue_modulus``), so inside the pipeline a value is
the integer residue r = q*N mod N, and -1 is N/2. A ``LinearCharacter`` is
its domain and one read-only residue array, and extension grows that array
layer by layer; on a maximal isotropic, its conjugates are the other
extensions. The characters of a subgroup H are those of H/[H,H],
built by ``FiniteGroup.abelianize`` from the least-id encoding of
H/[H,H] that the transfer reads too, one expression mod N per character.
``QmodZ`` values appear only where a report prints one, read from one
shared table per N (``_exponents``), and their printed strings from one
more (``_exponent_texts``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

import numpy as np

from .errors import EnumerationBoundExceeded, NoExtension, NotACharacter, PreconditionFailed
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

    @property
    def order(self) -> int:
        """Multiplicative order of the root of unity."""
        return self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def residue_modulus(group: FiniteGroup) -> int:
    """N = lcm(exp(G), 2): every character value and determinant of G is
    an N-th root of unity, the sign -1 included."""
    return math.lcm(group.exponent, 2)


@cache
def _exponents(modulus: int) -> tuple[QmodZ, ...]:
    """QmodZ(r, modulus) for every residue r, built once per modulus: the
    one lookup from residues to the exponents a report prints."""
    return tuple(QmodZ(r, modulus) for r in range(modulus))


@cache
def _exponent_texts(modulus: int) -> tuple[str, ...]:
    """The printed form of ``_exponents(modulus)``, one string per residue."""
    return tuple(map(str, _exponents(modulus)))


def multiplicativity_witness(values: np.ndarray, products: np.ndarray, modulus: int):
    """The first (i, j) in row-major order with products[i, j] !=
    values[i] + values[j] mod modulus, or None. The n^2 sums run in int32,
    which holds the sum of any two residues."""
    values = values.astype(np.int32, copy=False)
    products = products.astype(np.int32, copy=False)
    bad = (values[:, None] + values[None, :]) % modulus != products
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def whole_group_witness(group: FiniteGroup, values: np.ndarray):
    """``multiplicativity_witness`` of residues mod G's N over all of G,
    with values[e] = 0, against G's table: the first failing (x, y) in
    row-major order, or None.

    The identity is certified on G x S, S = ``group.generators``, which
    by the lemma on ``FiniteGroup`` proves it on G x G; only when that
    certificate fails does the full n^2 scan run, to name the first
    witness, which then exists."""
    modulus, gens = residue_modulus(group), group.generators
    if np.array_equal((values[:, None] + values[gens]) % modulus, values[group.table[:, gens]]):
        return None
    return multiplicativity_witness(values, values[group.table], modulus)


@dataclass(frozen=True, eq=False)
class LinearCharacter:
    """A multiplicative map from a subgroup's elements into the N-th roots
    of unity, N the parent's residue modulus.

    ``residues`` is the whole map: the value at each parent element id as
    an integer residue mod N, and -1 off the domain; it is read-only.
    Equality is structural: the same domain and the same residues.
    """

    domain: Subgroup
    residues: np.ndarray

    def __post_init__(self):
        parent = self.domain.parent
        on_parent = np.array(self.residues, dtype=np.int64)
        if on_parent.shape != (parent.order,):
            raise NotACharacter("residue array length must match the parent's order")
        mask, modulus = self.domain.mask, residue_modulus(parent)
        if (on_parent[~mask] != -1).any():
            raise NotACharacter("a residue off the domain must be -1")
        inside = on_parent[mask]
        if inside.size and (inside.min() < 0 or inside.max() >= modulus):
            raise NotACharacter(f"residues on the domain must lie in [0, {modulus})")
        on_parent.flags.writeable = False
        object.__setattr__(self, "residues", on_parent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCharacter):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.residues, other.residues)

    def __hash__(self) -> int:
        return hash((self.domain, self.residues.tobytes()))

    def __call__(self, x: int) -> QmodZ:
        if x not in self.domain:
            raise KeyError(x)
        return _exponents(residue_modulus(self.domain.parent))[self.residues.item(x)]

    def validate(self) -> None:
        """Exhaustive multiplicativity check over the whole domain.

        Runs on the residues mod the parent's N, against the parent's
        table restricted to the domain, so the comparisons stay in integer
        arrays: n |S| of them on all of G (``whole_group_witness``), and
        m^2 on a subgroup of order m. A multiplicativity failure carries
        its first witness (x, y) in row-major order. The character is
        immutable, so a check that passed is not run again.
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
        # a full domain is closed under the product, and its ids are its
        # positions
        if len(members) == g.order:
            witness = whole_group_witness(g, on_parent)
        else:
            products = on_parent[g.table[np.ix_(members, members)]]
            if products.min() < 0:
                raise NotACharacter("domain is not closed under the product")
            witness = multiplicativity_witness(on_parent[members], products, residue_modulus(g))
        if witness is not None:
            x, y = (self.domain.members[i] for i in witness)
            raise NotACharacter(f"multiplicativity fails at ({x},{y})", witness=(x, y))
        return True

    @cached_property
    def _commutator_witness(self) -> int | None:
        """For a character of all of G: the least id in [G,G] at which it is
        not trivial, or None. It depends on the character alone, so it is
        found once per character, however many pairs it twists."""
        moved = np.flatnonzero(self.domain.parent.commutator_subgroup().mask & (self.residues != 0))
        return int(moved[0]) if moved.size else None

    def kernel(self) -> Subgroup:
        return Subgroup(self.domain.parent, tuple(np.flatnonzero(self.residues == 0).tolist()))

    def as_dict(self) -> dict:
        texts = _exponent_texts(residue_modulus(self.domain.parent))
        values = self.residues[self.domain.mask].tolist()
        return {
            "domain": list(self.domain.members),
            "values": dict(zip(map(str, self.domain.members), map(texts.__getitem__, values))),
        }


def characters_of_subgroup(sub: Subgroup) -> list[LinearCharacter]:
    """All linear characters of a subgroup H, ordered by index tuple.

    They are the characters of A = H/[H,H] (``FiniteGroup.abelianize``;
    G's own ``abelianization`` when H = G): the one indexed by (c_1, ...,
    c_s) sends the i-th invariant generator t_i of A to c_i/m_i. Row x of
    the coordinates of x's image in A, each scaled by N/m_i for the
    parent's N (exp(A) divides exp(G)), gives chi_c(x) as the residue
    (scaled @ c) mod N, one expression per character.
    """
    from .abelian import decompose

    group = sub.parent
    if len(sub) == group.order:
        quot, proj = group.abelianization
        image = proj.map
    else:
        quot, image = group.abelianize(sub)
    if quot.order > CHARACTER_ENUM_BOUND:
        raise EnumerationBoundExceeded(
            f"|A|={quot.order} exceeds character enumeration bound {CHARACTER_ENUM_BOUND}"
        )
    dec = decompose(quot)
    modulus = residue_modulus(group)
    scaled = dec.exponent_coordinates[image] * np.array(
        [modulus // m for m in dec.factors], dtype=np.int64
    )
    members = list(sub.members)
    characters = []
    for idx in product(*[range(m) for m in dec.factors]):
        on_parent = np.full(group.order, -1, dtype=np.int64)
        on_parent[members] = scaled @ np.array(idx, dtype=np.int64) % modulus
        characters.append(LinearCharacter(sub, on_parent))
    return characters


def linear_characters(group: FiniteGroup) -> list[LinearCharacter]:
    """All linear characters of a group, trivial character first."""
    return characters_of_subgroup(group.full_subgroup())


def extend_character(
    group: FiniteGroup, chi: LinearCharacter, over: Subgroup
) -> LinearCharacter:
    """Extend chi from its domain Z to an overgroup H, deterministically.

    Repeatedly adjoins the smallest-id element t of H not yet covered;
    with m minimal such that t^m lands in the covered part, the residue
    r of chi(t^m) is lifted to r/m, the smallest of the m branch choices
    (r + j*N)/m, and the result is validated once. ``extend_character_all``
    conjugates it into every extension to a maximal isotropic.
    """
    if over.members == chi.domain.members:
        return chi
    if not over.contains_subgroup(chi.domain):
        raise NoExtension("overgroup does not contain the character's domain")
    # commutators of the overgroup must die in chi (first witness in
    # row-major order); as Z lies in H, that makes chi H-invariant too:
    # chi(h z h^-1) = chi([h, z] z) = chi(z)
    h = np.asarray(over.members)
    bad = np.argwhere(chi.residues[group.commutator_table(h, h)] != 0)
    if bad.size:
        h1, h2 = h[bad[0]].tolist()
        raise NoExtension(f"character is not trivial on [H,H] (witness [{h1},{h2}])")

    n = residue_modulus(group)
    covered = chi.domain.mask.copy()
    values = chi.residues.copy()
    while (missing := np.flatnonzero(over.mask & ~covered)).size:
        t = int(missing[0])
        # the covered part contains [H,H], hence is normal with cyclic
        # quotient <t>: every new element is c*t^k uniquely, 0 < k < m
        powers = [t]
        while not covered[powers[-1]]:
            powers.append(group.mul(powers[-1], t))
        inside = np.flatnonzero(covered)
        # the branch r/m of chi(t), scaled by N
        w, rest = divmod(int(values[powers[-1]]), len(powers))
        if rest:
            raise NoExtension(f"branch assignment is inconsistent: branch 0 at {t} is no residue")
        for k, p in enumerate(powers[:-1], 1):
            layer = group.table[inside, p]
            values[layer] = (values[inside] + k * w) % n
            covered[layer] = True

    result = LinearCharacter(over, values)
    try:
        result.validate()
    except NotACharacter as exc:
        raise NoExtension(f"branch assignment is inconsistent: {exc}") from exc
    return result


def extend_character_all(group: FiniteGroup, chi: LinearCharacter, over: Subgroup) -> np.ndarray:
    """Every extension of a pair's chi from Z to a maximal isotropic H: a
    read-only (d, n) int64 stack of residues by parent id, -1 off H.

    Row i is chi_H^t(h) = chi_H(t h t^-1) for ``extend_character``'s chi_H
    and the i-th representative t of G/H, in ``coset_positions`` order
    rotated to start at H, so row 0 is chi_H. These are all the extensions
    (Clifford theory, fully ramified case). H contains Z, which contains
    [G,G], so H is normal and chi_H^t is a character of H. As t h t^-1 =
    [t, h] h, chi_H^t = chi_H + X(t, .) on H, which agrees with the
    G-invariant chi on Z. t -> X(t, .)|_H is a homomorphism with kernel
    H^perp = H, so the d = [G:H] conjugates are distinct; and two
    extensions differ by one of the [H:Z] = d characters of H/Z.

    Elsewhere the stack could miss extensions, so ``PreconditionFailed``
    refuses it when conjugation leaves H, a row differs from chi on Z,
    [G:H] != [H:Z] or two rows coincide. Only chi_H is validated.
    """
    first = extend_character(group, chi, over).residues
    reps, pos = group.coset_positions(over)
    if len(reps) * len(chi.domain) != len(over):
        raise PreconditionFailed(f"[G:H] = {len(reps)} is not [H:Z] = {len(over) // len(chi.domain)}")
    k = pos[group.identity_id]
    t = np.concatenate((reps[k:], reps[:k]))
    h = np.flatnonzero(over.mask)
    conjugates = group.table[group.table[t[:, None], h], group.inverse[t][:, None]]
    if not over.mask[conjugates].all():
        raise PreconditionFailed("H is not normal")
    rows = np.full((len(t), group.order), -1, dtype=np.int64)
    rows[:, h] = first[conjugates]
    if ((rows != chi.residues) & chi.domain.mask).any():
        raise PreconditionFailed("chi is not G-invariant")
    # conjugation is an action of G: a repeated row means a later row is chi_H
    if (rows[1:] == first).all(axis=1).any():
        raise PreconditionFailed("two conjugates coincide: H is not maximal isotropic")
    rows.flags.writeable = False
    return rows
