"""Per-element references for the package's array code, used only by the
tests.

The package computes every determinant, pairing and transfer check as a
whole-group array of residues. The definitions here compute the same
objects one element at a time, in ``QmodZ`` exponents where a value is a
root of unity: monomial matrices and their determinants, the closed form
at one element, the pairing at one pair of elements, the correcting
ratio, the symplectic basis and a few constructors. The tests compare the
arrays against them. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hrep import transfer as tr
from hrep.char_theory import LinearCharacter, QmodZ, residue_modulus
from hrep.errors import (
    Degenerate,
    HrepError,
    NotACharacter,
    NotAbelian,
    NotAGroup,
    PreconditionFailed,
    math_check as _math_check,
)
from hrep.group_core import FiniteGroup, GroupHom, Subgroup, _subgroup_of_mask
from hrep.heisenberg import HeisenbergPair
from hrep.induced_det import _require_extension, _require_reduced
from hrep.transfer import MAX_COUNTEREXAMPLES, CheckReport

ZERO = QmodZ(0, 1)
HALF = QmodZ(1, 2)


# -- exponents, subgroups and characters -------------------------------------------


def parse(text: str) -> QmodZ:
    """The inverse of the report format ``num/den``."""
    num, den = text.split("/")
    return QmodZ(int(num), int(den))


def scale(q: QmodZ, k: int) -> QmodZ:
    """The k-th power of the root of unity: q -> k*q mod 1."""
    return QmodZ(k * q.num, q.den)


def is_zero(q: QmodZ) -> bool:
    return q.num == 0


def validate_subgroup(sub: Subgroup) -> None:
    g = sub.parent
    if not sub.mask[g.identity_id]:
        raise NotAGroup("subgroup must contain the identity")
    members = np.asarray(sub.members)
    # row x: x^-1, then x y for each member y; the first witness in
    # row-major order is the one a loop over x, then y, would meet
    inside = sub.mask[np.column_stack([g.inverse[members], g.table[np.ix_(members, members)]])]
    if not inside.all():
        row, col = np.argwhere(~inside)[0].tolist()
        x = sub.members[row]
        if col == 0:
            raise NotAGroup(f"subgroup not closed under inverse at {x}")
        raise NotAGroup(f"subgroup not closed under product at ({x},{sub.members[col - 1]})")


def subgroup(group: FiniteGroup, members) -> Subgroup:
    """Build a subgroup from an explicit member set, validating closure."""
    sub = Subgroup(group, tuple(sorted(set(int(m) for m in members))))
    validate_subgroup(sub)
    return sub


def subgroup_product(group: FiniteGroup, members) -> int:
    """Product over an explicit subset of an abelian group (order irrelevant).

    Over the whole group this is the Miller product: the unique involution
    when there is exactly one, and the identity otherwise.
    """
    if not group.is_abelian:
        raise NotAbelian(f"{group.label} is not abelian")
    result = group.identity_id
    for x in members:
        result = group.mul(result, x)
    return result


def involution_set(group: FiniteGroup) -> set[int]:
    """All x with x^2 = e, identity included (any group)."""
    return set(np.flatnonzero(group.powers(2) == group.identity_id).tolist())


def central_involutions(group: FiniteGroup) -> set[int]:
    """Central elements of order at most 2, as a set; the checks read the
    same elements from ``FiniteGroup.central_involution_mask``."""
    return involution_set(group) & set(group.center().members)


def validate_hom(hom: GroupHom) -> None:
    """The homomorphism test on all |G|^2 pairs, naming the first failing
    pair in row-major order."""
    m = hom.map
    lhs = m[hom.source.table]
    rhs = hom.target.table[np.ix_(m, m)]
    if not np.array_equal(lhs, rhs):
        i, j = np.argwhere(lhs != rhs)[0]
        raise NotAGroup(f"map is not multiplicative at ({int(i)},{int(j)})")


def as_group(sub: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The subgroup relabelled as a standalone group: (group, to_parent)
    where to_parent[i] is the parent id of local element i; local ids
    follow ascending parent ids. The full subgroup returns the parent."""
    g = sub.parent
    if len(sub) == g.order:
        return g, sub.members
    members = np.asarray(sub.members)
    # local id of each member; -1 elsewhere, which validation refuses
    local = np.full(g.order, -1, dtype=np.int64)
    local[members] = np.arange(members.size)
    table = local[g.table[np.ix_(members, members)]]
    return FiniteGroup(table, label=f"{g.label}<{members.size}>"), sub.members


def image(hom: GroupHom) -> Subgroup:
    return _subgroup_of_mask(hom.target, np.bincount(hom.map, minlength=hom.target.order))


def kernel(hom: GroupHom) -> Subgroup:
    return _subgroup_of_mask(hom.source, hom.map == hom.target.identity_id)


def trivial_character(domain: Subgroup) -> LinearCharacter:
    return LinearCharacter(domain, np.where(domain.mask, 0, -1))


def multiply(chi: LinearCharacter, other: LinearCharacter) -> LinearCharacter:
    """Pointwise product of two characters on the same domain."""
    if other.domain.members != chi.domain.members:
        raise NotACharacter("can only multiply characters on the same domain")
    modulus = residue_modulus(chi.domain.parent)
    on_parent = np.where(chi.domain.mask, (chi.residues + other.residues) % modulus, -1)
    return LinearCharacter(chi.domain, on_parent)


def restrict(chi: LinearCharacter, sub: Subgroup) -> LinearCharacter:
    on_parent = np.where(sub.mask, chi.residues, -1)
    if on_parent[sub.mask].min() < 0:
        raise NotACharacter("can only restrict to a subgroup of the domain")
    return LinearCharacter(sub, on_parent)


def x_value(pair: HeisenbergPair, g1: int, g2: int) -> QmodZ:
    """The commutator pairing X(g1, g2) = chi([g1, g2])."""
    return pair.chi(pair.group.commutator(g1, g2))


# -- monomial matrices --------------------------------------------------------------


class DimMismatch(HrepError):
    """Monomial matrices of different sizes cannot be combined."""


def _perm_is_odd(perm: tuple[int, ...]) -> bool:
    """Parity of a permutation of 0..d-1, from its cycle count."""
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return (len(perm) - cycles) % 2 == 1


@dataclass(frozen=True)
class MonomialMatrix:
    """A d x d matrix with one root-of-unity entry per row and column.

    ``perm[j]`` is the row of the nonzero entry in column j and
    ``exps[j]`` its exponent, so the matrix is P * diag(exps) for the
    permutation matrix P.
    """

    dim: int
    perm: tuple[int, ...]
    exps: tuple[QmodZ, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(self.dim)) or len(self.exps) != self.dim:
            raise DimMismatch("perm must be a permutation of 0..d-1 with one exponent per column")

    @classmethod
    def identity(cls, dim: int) -> "MonomialMatrix":
        return cls(dim, tuple(range(dim)), tuple(ZERO for _ in range(dim)))

    def __str__(self) -> str:
        perm = ",".join(str(i) for i in self.perm)
        exps = ",".join(str(q) for q in self.exps)
        return f"perm=({perm}) exps=({exps})"


def monomial_mul(a: MonomialMatrix, b: MonomialMatrix) -> MonomialMatrix:
    if a.dim != b.dim:
        raise DimMismatch(f"dimension mismatch {a.dim} != {b.dim}")
    perm = tuple(a.perm[b.perm[j]] for j in range(b.dim))
    exps = tuple(a.exps[b.perm[j]] + b.exps[j] for j in range(b.dim))
    return MonomialMatrix(a.dim, perm, exps)


def monomial_det(matrix: MonomialMatrix) -> QmodZ:
    """Permutation sign (as 0 or 1/2) plus the sum of the exponents."""
    total = HALF if _perm_is_odd(matrix.perm) else ZERO
    for q in matrix.exps:
        total = total + q
    return total


def induced_matrices(
    pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter
) -> list[MonomialMatrix]:
    """The monomial matrix of every g in the representation induced from chi_H.

    Columns are indexed by the canonical left transversal; the column of
    t carries chi_H(s^-1 g t) in the row of s, where g t lands in s H.
    """
    _require_extension(pair, sub, chi_h.residues)
    skeleton = pair.group.coset_skeleton(sub)
    dim = len(skeleton.transversal)
    return [
        MonomialMatrix(dim, tuple(perm), tuple(chi_h(f) for f in factors))
        for perm, factors in zip(skeleton.perm.tolist(), skeleton.factors.tolist())
    ]


def check_homomorphism(
    pair: HeisenbergPair, sub: Subgroup, chi_h: LinearCharacter
) -> CheckReport:
    """Certify Ind(g1) Ind(g2) = Ind(g1 g2) on every pair of elements."""
    group = pair.group
    matrices = induced_matrices(pair, sub, chi_h)
    report = CheckReport(
        "induced_representation_homomorphism",
        True,
        stats={"group": group.label, "pairs": group.order**2},
    )
    for x in group.elements():
        for y in group.elements():
            product = monomial_mul(matrices[x], matrices[y])
            image = matrices[group.mul(x, y)]
            if product != image:
                report.fail(g=[x, y], lhs=str(product), rhs=str(image))
    return report


def det_formula(pair: HeisenbergPair, g: int) -> tuple[QmodZ, QmodZ]:
    """(det(rho)(g), eps(g)) from the closed form eps(g) * chi(g^d).

    eps is trivial when rk_2(G/Z) is 0 or at least 4; when it is 2, eps
    is - exactly off the subgroup G^2 Z.
    """
    _require_reduced(pair)
    group = pair.group
    gd = group.pow(g, pair.dim)
    _math_check(gd in pair.Z, f"g^d must be central, failed at g={g}")
    if pair.two_rank == 2 and g not in pair.squares_times_z:
        eps = HALF
    else:
        eps = ZERO
    return eps + pair.chi(gd), eps


# -- the correcting ratio and the symplectic basis ----------------------------------


def check_correcting_ratio(
    group: FiniteGroup, sub1: Subgroup, sub2: Subgroup
) -> CheckReport:
    """phi_{G/H'} / phi_{G/H} is a homomorphism into the central involutions."""
    cf1 = tr.correcting_function(group, sub1)
    cf2 = tr.correcting_function(group, sub2)
    if cf1.index != cf2.index:
        raise PreconditionFailed(
            f"subgroups have different indices {cf1.index} != {cf2.index}"
        )
    table, inv = group.table, group.inverse
    values = table[cf2.values, inv[cf1.values]]
    report = CheckReport(
        "correcting_function_ratio",
        True,
        stats={"group": group.label, "index": cf1.index},
    )
    # the loop and the comparison share one identity key, which keeps at
    # most MAX_COUNTEREXAMPLES witnesses in all
    off = np.flatnonzero(~group.central_involution_mask[values])
    for g in off[:MAX_COUNTEREXAMPLES].tolist():
        v = int(values[g])
        report.fail(g=g, lhs=v, rhs=int(table[v, v]))
    report.compare(values[table], table[np.ix_(values, values)])
    return report


def check_correcting_cocycle(group: FiniteGroup, sub: Subgroup) -> CheckReport:
    """The cocycle report of ``tr.transfer_checks`` on one subgroup, with
    phi read through ``tr.correcting_function``, which a test may replace."""
    cf = tr.correcting_function(group, sub)
    d = cf.index
    everything = group.elements()
    rhs = group.powers(d * (d - 1) // 2)[group.commutator_table(everything, everything)]
    (report,) = tr._cocycle_reports(group, [cf], rhs)
    return report


@dataclass(frozen=True)
class SymplecticBasis:
    """Hyperbolic pairs (t_i, t_i', m_i) with m_1 | ... | m_s splitting G/Z,
    plus the two transverse maximal isotropics they span."""

    pairs: tuple[tuple[int, int, int], ...]
    H: Subgroup
    H_prime: Subgroup


def symplectic_basis(pair: HeisenbergPair) -> SymplecticBasis:
    """Split A = G/Z into hyperbolic planes.

    Picks the smallest element of maximal order m, pairs it with the
    smallest partner where X has exact order m, and recurses on the
    orthogonal complement of the plane they span.
    """
    quot, proj = pair.ambient
    x = pair.x_on_quotient
    n = residue_modulus(pair.group)
    # ascending ids, so the first of a kind is the smallest
    current = np.arange(quot.order)
    pairs_desc: list[tuple[int, int, int]] = []
    while current.size > 1:
        orders = quot.element_orders[current]
        m = int(orders.max())
        t = int(current[np.argmax(orders)])
        partners = current[n // np.gcd(x[t, current], n) == m]
        if not partners.size:
            raise Degenerate(f"no hyperbolic partner of exact order {m} for {t}")
        tp = int(partners[0])
        plane = quot.subgroup_generated([t, tp])
        _math_check(len(plane) == m * m, "hyperbolic plane must have order m^2")
        remaining = current[(x[current, t] == 0) & (x[current, tp] == 0)]
        _math_check(
            remaining.size * m * m == current.size,
            "orthogonal complement of a hyperbolic plane has complementary order",
        )
        pairs_desc.append((t, tp, m))
        current = remaining

    ordered = tuple(reversed(pairs_desc))
    reps = quot.coset_reps
    h_side = quot.subgroup_generated([t for t, _, _ in ordered])
    hp_side = quot.subgroup_generated([tp for _, tp, _ in ordered])
    h_sub = proj.preimage(h_side.members)
    hp_sub = proj.preimage(hp_side.members)

    _math_check(
        math.prod(m for _, _, m in ordered) == pair.dim, "hyperbolic orders must multiply to dim"
    )
    meet = h_sub.mask & hp_sub.mask
    _math_check(np.array_equal(meet, pair.Z.mask), "transverse isotropics must meet exactly in Z")
    products = pair.group.table[np.ix_(h_sub.members, hp_sub.members)].ravel()
    _math_check(np.bincount(products, minlength=len(meet)).all(), "G must factor as H * H'")
    lifted = tuple((reps.item(t), reps.item(tp), m) for t, tp, m in ordered)
    return SymplecticBasis(lifted, h_sub, hp_sub)
