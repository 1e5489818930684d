"""Heisenberg pairs (Z, chi): validation, enumeration, kernel reduction
and maximal isotropic subgroups.

A pair consists of a coabelian normal subgroup Z and an invariant linear
character chi of Z whose commutator pairing X(g1, g2) = chi([g1, g2]) is
nondegenerate on G/Z. Linear characters of G appear as the degenerate
dim-1 case Z = G and flow through the same pipeline.

The pairing has one implementation: ``HeisenbergPair.x_on_quotient``, its
residue matrix on G/Z. ``validate_pair`` screens the invariance of chi
and the nondegeneracy of X. The maximal isotropic subgroups are
enumerated once per pair (``maximal_isotropics``), and every caller that
needs an isotropic, or one containing a given element, reads that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import abelian
from .char_theory import (
    LinearCharacter,
    characters_of_subgroup,
    extend_character,
    residue_modulus,
)
from .errors import (
    Degenerate,
    EnumerationBoundExceeded,
    InvalidSpec,
    NotCoabelian,
    NotInvariant,
    NotNormal,
    math_check as _math_check,
)
from .group_core import FiniteGroup, GroupHom, Subgroup
from .transfer import coabelian_subgroups, is_two_step_nilpotent, squares_times

PAIR_ENUM_BOUND = 256
ISOTROPIC_ENUM_BOUND = 4096


@dataclass(frozen=True)
class HeisenbergPair:
    """A validated pair (Z, chi) with dim^2 = [G:Z]."""

    group: FiniteGroup
    Z: Subgroup
    chi: LinearCharacter
    dim: int

    @cached_property
    def ambient(self) -> tuple[FiniteGroup, GroupHom]:
        """The abelian quotient A = G/Z with its projection."""
        return self.group.quotient(self.Z)

    @cached_property
    def x_on_quotient(self) -> np.ndarray:
        """Read-only: X on A x A as residues mod N, ``x[a, b] = chi([r_a, r_b])``
        for the minimal coset representatives r."""
        reps = self.ambient[0].coset_reps
        x = self.chi.residues[self.group.commutator_table(reps, reps)]
        x.flags.writeable = False
        return x

    @cached_property
    def is_reduced(self) -> bool:
        """True iff chi is faithful on Z (the pair equals its kernel reduction)."""
        return len(self.chi.kernel()) == 1

    @cached_property
    def squares_times_z(self) -> Subgroup:
        """The subgroup G^2 Z controlling the sign character's cosets."""
        return squares_times(self.group, self.Z)

    @cached_property
    def maximal_isotropics(self) -> list[Subgroup]:
        return all_maximal_isotropics(self)

    @cached_property
    def default_extension(self) -> LinearCharacter:
        """The deterministic extension of chi to the first maximal isotropic."""
        return extend_character(self.group, self.chi, self.maximal_isotropics[0])

    @cached_property
    def reduction(self) -> tuple["HeisenbergPair", GroupHom]:
        """The kernel reduction with its projection, computed once per pair so
        the reduced group's caches are shared by every check."""
        return quotient_by_kernel(self)

    @cached_property
    def two_rank(self) -> int:
        """rk_2(G/Z); always even because the quotient splits as B x B."""
        quot, _ = self.ambient
        rank = abelian.two_rank(quot)
        _math_check(rank % 2 == 0, "two-rank of a symplectic quotient must be even")
        return rank


def validate_pair(group: FiniteGroup, scalar: Subgroup, chi: LinearCharacter) -> HeisenbergPair:
    """Check the three pair conditions and return the validated pair.

    Both screens are array tests on chi's residues: invariance over
    conjugacy classes, nondegeneracy as ``chi[commutator_table(reps, reps)]``
    along rows. Screening coset representatives is equivalent to the full
    radical computation once invariance holds (the pairing is then
    constant on cosets of Z in both arguments).
    """
    if chi.domain.members != scalar.members or chi.domain.parent is not group:
        raise InvalidSpec("character domain must be exactly the scalar subgroup")
    chi.validate()
    if not group.is_normal(scalar):
        raise NotNormal(f"scalar subgroup {scalar.members} is not normal")
    derived = group.commutator_subgroup()
    if not scalar.contains_subgroup(derived):
        witness = next(m for m in derived.members if m not in scalar)
        raise NotCoabelian(f"G/Z is not abelian: commutator {witness} escapes Z")
    # chi is invariant iff it is constant on each class, named by its
    # minimal member; the first witness is the least z of a broken class
    values, class_reps = chi.residues, group.class_reps
    z = np.asarray(scalar.members)
    broken = class_reps[z[values[z] != values[class_reps[z]]]]
    if broken.size:
        raise NotInvariant(f"chi is not invariant on the class of {int(broken.min())}")

    reps, _ = group.coset_positions(scalar)
    # the one representative inside Z is that coset's minimal member
    in_radical = (values[group.commutator_table(reps, reps)] == 0).all(axis=1) & (reps != z[0])
    if in_radical.any():
        raise Degenerate(f"coset of {int(reps[in_radical.argmax()])} lies in the radical")

    index = group.order // len(scalar)
    dim = math.isqrt(index)
    _math_check(dim * dim == index, "nondegenerate pairing forces a square index")
    return HeisenbergPair(group, scalar, chi, dim)


def enumerate_pairs(group: FiniteGroup, *, max_order: int = PAIR_ENUM_BOUND) -> list[HeisenbergPair]:
    """All valid pairs, ordered by (|Z| descending, Z members, chi index).

    Candidate scalar subgroups are the subgroups between Z(G)[G,G] and G
    of square index; candidate characters run through each Z's linear
    characters, and ``validate_pair`` checks every one.

    A subgroup Z that misses a central element c holds no pair: chi([c, g])
    = chi(e) = 0 for every g, so for an invariant chi the coset cZ != Z
    lies in the radical and ``validate_pair`` would raise Degenerate (a chi
    that is not invariant fails earlier, with NotInvariant). The result is
    checked against the census sum(dim^2) = [G : gamma_3(G)]: the
    Heisenberg representations are exactly the irreducibles of G/gamma_3(G).
    """
    if group.order > max_order:
        raise EnumerationBoundExceeded(
            f"|G|={group.order} exceeds pair enumeration bound {max_order}"
        )
    pairs = []
    center = group.center()
    candidates = sorted(coabelian_subgroups(group), key=lambda s: (-len(s), s.members))
    for scalar in candidates:
        index = group.order // len(scalar)
        if math.isqrt(index) ** 2 != index or not scalar.contains_subgroup(center):
            continue
        for chi in characters_of_subgroup(scalar):
            try:
                pairs.append(validate_pair(group, scalar, chi))
            except (NotInvariant, Degenerate):
                continue
    # gamma_3 is the series' third term, or its last when it stabilises sooner
    series = group.lower_central_series()
    gamma3 = series[min(2, len(series) - 1)]
    _math_check(
        sum(pair.dim**2 for pair in pairs) == group.order // len(gamma3),
        "pair census: the squared dimensions must sum to [G : gamma_3(G)]",
    )
    return pairs


def quotient_by_kernel(pair: HeisenbergPair) -> tuple[HeisenbergPair, GroupHom]:
    """Push the pair to G/Ker(chi), where the group is two-step nilpotent
    and chi becomes faithful; the dimension is unchanged."""
    group = pair.group
    kernel = pair.chi.kernel()
    quot, proj = group.quotient(kernel, label=f"{group.label}~red")
    # K lies in Z, so a coset of K lies in Z iff its representative does
    scalar = Subgroup(quot, tuple(np.flatnonzero(pair.Z.mask[quot.coset_reps]).tolist()))
    # chi_bar(zK) = chi(z) for K = Ker(chi), read at each coset's minimal
    # representative and rescaled from G's N to that of G/K, which divides it
    lifted = pair.chi.residues[quot.coset_reps]
    step = residue_modulus(group) // residue_modulus(quot)
    _math_check(not (lifted[scalar.mask] % step).any(), "chi_bar must be a residue mod N of G/K")
    chi_bar = LinearCharacter(scalar, np.where(scalar.mask, lifted // step, -1))
    reduced = validate_pair(quot, scalar, chi_bar)
    _math_check(reduced.dim == pair.dim, "kernel reduction must preserve the dimension")
    _math_check(is_two_step_nilpotent(quot), "reduced group must be two-step nilpotent")
    _math_check(reduced.is_reduced, "reduced character must be faithful")
    return reduced, proj


def all_maximal_isotropics(pair: HeisenbergPair) -> list[Subgroup]:
    """All subgroups H between Z and G with X trivial on H and [G:H] = dim."""
    index = pair.group.order // len(pair.Z)
    if index > ISOTROPIC_ENUM_BOUND:
        raise EnumerationBoundExceeded(
            f"[G:Z]={index} exceeds isotropic enumeration bound {ISOTROPIC_ENUM_BOUND}"
        )
    quot, proj = pair.ambient
    x = pair.x_on_quotient
    found = []
    for sub in quot.all_subgroups(max_order=ISOTROPIC_ENUM_BOUND):
        if len(sub) != pair.dim:
            continue
        if not x[np.ix_(sub.members, sub.members)].any():
            found.append(proj.preimage(sub.members))
    found.sort(key=lambda s: s.members)
    return found
