"""The commutator pairing, pair validation, enumeration, kernel reduction,
isotropic subgroups, and symplectic bases."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrep import abelian, char_theory as ct, group_core, heisenberg as hb, transfer as tr
from hrep.char_theory import QmodZ
from hrep.errors import (
    Degenerate,
    EnumerationBoundExceeded,
    HrepError,
    IdentityFailed,
    InvalidSpec,
    NotCoabelian,
    NotInvariant,
    NotNormal,
    math_check,
)
from hrep.group_core import (
    from_name,
    abelian_group,
    central_product,
    cyclic,
    dihedral,
    heisenberg_mod,
    quaternion8,
)
from hrep.induced_det import twist
from reference import HALF, is_zero, subgroup, symplectic_basis, trivial_character, x_value

E, B, A, AB, A2, A2B, A3, A3B = range(8)


def d8_pair():
    d8 = dihedral(8)
    return [p for p in hb.enumerate_pairs(d8) if p.dim == 2][0]


def heis3_pair():
    h3 = heisenberg_mod(3)
    return [p for p in hb.enumerate_pairs(h3) if p.dim == 3][0]


def brute_radical(group, chi):
    """{g : chi([g, h]) = 0 for every h in G}, by a full scan of G x G."""
    return tuple(
        g
        for g in group.elements()
        if all(is_zero(chi(group.commutator(g, h))) for h in group.elements())
    )


def is_class_invariant(group, chi):
    """chi(g z g^-1) == chi(z) for every g in G and z in chi's domain."""
    return all(
        chi(group.conjugate(g, z)) == chi(z) for g in group.elements() for z in chi.domain.members
    )


def d8_center_character():
    d8 = dihedral(8)
    trivial = trivial_character(d8.center())
    chi = [c for c in ct.characters_of_subgroup(d8.center()) if c != trivial][0]
    return d8, chi


def d8_quarter_character_on_rotations():
    d8 = dihedral(8)
    rot = subgroup(d8, [E, A, A2, A3])
    chi = [c for c in ct.characters_of_subgroup(rot) if c(A) == QmodZ(1, 4)][0]
    return d8, rot, chi


# -- validation ----------------------------------------------------------------


def test_abelian_pair_is_dim_one():
    g = abelian_group([2, 3])
    chi = ct.linear_characters(g)[1]
    pair = hb.validate_pair(g, g.full_subgroup(), chi)
    assert pair.dim == 1


def test_d8_pair_valid():
    d8 = dihedral(8)
    trivial = trivial_character(d8.center())
    chi = [c for c in ct.characters_of_subgroup(d8.center()) if c != trivial][0]
    pair = hb.validate_pair(d8, d8.center(), chi)
    assert pair.dim == 2
    assert pair.is_reduced


def test_d8_trivial_character_degenerate():
    d8 = dihedral(8)
    chi = trivial_character(d8.center())
    assert brute_radical(d8, chi) == tuple(d8.elements())
    with pytest.raises(Degenerate):
        hb.validate_pair(d8, d8.center(), chi)


def test_validate_rejects_non_normal():
    d8 = dihedral(8)
    sub = subgroup(d8, [E, B])
    with pytest.raises(NotNormal):
        hb.validate_pair(d8, sub, trivial_character(sub))


def test_validate_rejects_non_coabelian():
    d8 = dihedral(8)
    sub = subgroup(d8, [d8.identity_id])
    with pytest.raises(NotCoabelian):
        hb.validate_pair(d8, sub, trivial_character(sub))


def test_validate_rejects_non_invariant():
    d8 = dihedral(8)
    rot = subgroup(d8, [E, A, A2, A3])
    chi = [c for c in ct.characters_of_subgroup(rot) if c(A) == QmodZ(1, 4)][0]
    with pytest.raises(NotInvariant):
        hb.validate_pair(d8, rot, chi)


def test_validated_radical_matches_brute_force():
    """The screened nondegeneracy check agrees with the full radical scan."""
    for pair in (d8_pair(), heis3_pair()):
        assert brute_radical(pair.group, pair.chi) == pair.Z.members


def reference_validate_pair(group, scalar, chi):
    """validate_pair with its invariance and nondegeneracy screens as
    per-element loops over QmodZ values: the reference for the array
    screens."""
    if chi.domain.members != scalar.members or chi.domain.parent is not group:
        raise InvalidSpec("character domain must be exactly the scalar subgroup")
    chi.validate()
    if not group.is_normal(scalar):
        raise NotNormal(f"scalar subgroup {scalar.members} is not normal")
    derived = group.commutator_subgroup()
    if not scalar.contains_subgroup(derived):
        witness = next(m for m in derived.members if m not in scalar)
        raise NotCoabelian(f"G/Z is not abelian: commutator {witness} escapes Z")
    for z in scalar.members:
        base = chi(z)
        for w in sorted({group.conjugate(g, z) for g in group.elements()}):
            if chi(w) != base:
                raise NotInvariant(f"chi is not invariant on the class of {z}")
    reps, _ = group.coset_positions(scalar)
    for t in reps:
        if t in scalar:
            continue
        if all(is_zero(chi(group.commutator(t, u))) for u in reps):
            raise Degenerate(f"coset of {t} lies in the radical")
    index = group.order // len(scalar)
    dim = math.isqrt(index)
    math_check(dim * dim == index, "nondegenerate pairing forces a square index")
    return hb.HeisenbergPair(group, scalar, chi, dim)


def screen_outcome(validate, group, scalar, chi):
    try:
        pair = validate(group, scalar, chi)
    except HrepError as exc:
        return type(exc), str(exc)
    return pair.dim, pair.Z.members, pair.chi


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_array_screens_match_the_per_element_loops(relabel, name, data):
    """On every normal subgroup and each of its linear characters, the array screens of validate_pair raise the same
    exception with the same first witness as the per-element loops, or
    return the same pair; on the builtin labelling and a relabelling."""
    group = from_name(name)
    if data.draw(st.booleans()):
        group = relabel(group, data.draw(st.permutations(range(group.order))))
    outcomes = set()
    for scalar in group.all_subgroups():
        if not group.is_normal(scalar):
            continue
        for chi in ct.characters_of_subgroup(scalar):
            want = screen_outcome(reference_validate_pair, group, scalar, chi)
            assert screen_outcome(hb.validate_pair, group, scalar, chi) == want
            outcomes.add(want[0])
    if name in ("d8", "cp:d8,q8"):
        assert {NotInvariant, Degenerate, 1} <= outcomes


# -- the commutator pairing and invariance ------------------------------------------


def test_pairing_vanishes_on_abelian_groups():
    g = abelian_group([2, 4])
    chi = ct.linear_characters(g)[3]
    pair = hb.validate_pair(g, g.full_subgroup(), chi)
    assert all(is_zero(x_value(pair, a, b)) for a in g.elements() for b in g.elements())
    assert not pair.x_on_quotient.any()
    assert brute_radical(g, chi) == tuple(g.elements())


def test_d8_pairing_value_and_radical():
    d8, chi = d8_center_character()
    pair = hb.validate_pair(d8, d8.center(), chi)
    assert x_value(pair, A, B) == HALF
    assert brute_radical(d8, chi) == (E, A2) == pair.Z.members


def test_heisenberg3_pairing_hits_all_cube_roots():
    pair = heis3_pair()
    h3 = pair.group
    values = {str(x_value(pair, a, b)) for a in h3.elements() for b in h3.elements()}
    assert values == {"0/1", "1/3", "2/3"}


def test_pairing_requires_commutators_in_domain():
    d8 = dihedral(8)
    sub = subgroup(d8, [d8.identity_id])
    with pytest.raises(NotCoabelian):
        hb.validate_pair(d8, sub, trivial_character(sub))


def test_pairing_is_alternating_and_bimultiplicative():
    pair = d8_pair()
    d8 = pair.group
    x = partial(x_value, pair)
    for g1 in d8.elements():
        assert is_zero(x(g1, g1))
        for g2 in d8.elements():
            assert x(g1, g2) == -x(g2, g1)
            for g3 in d8.elements():
                assert x(d8.mul(g1, g2), g3) == x(g1, g3) + x(g2, g3)


def test_pairing_table_is_total():
    pair = d8_pair()
    quot, proj = pair.ambient
    table = pair.x_on_quotient
    n = ct.residue_modulus(pair.group)
    assert table.size == quot.order**2 == 16 and not table.flags.writeable
    assert QmodZ(int(table[proj.map[A], proj.map[B]]), n) == HALF
    for a in pair.group.elements():
        for b in pair.group.elements():
            assert QmodZ(int(table[proj.map[a], proj.map[b]]), n) == x_value(pair, a, b)


def test_pairing_coset_check_rejects_non_invariant_character():
    d8, rot, chi = d8_quarter_character_on_rotations()
    # the pairing is not constant on cosets of Z: [B, A] = A2 but [B, A*A] = E
    assert chi(d8.commutator(B, A)) != chi(d8.commutator(B, d8.mul(A, A)))
    with pytest.raises(NotInvariant):
        hb.validate_pair(d8, rot, chi)


def test_trivial_character_is_invariant():
    d8 = dihedral(8)
    rot = subgroup(d8, [E, A, A2, A3])
    chi = trivial_character(rot)
    assert is_class_invariant(d8, chi)
    # past the invariance screen, the pairing on G/Z of order 2 is degenerate
    with pytest.raises(Degenerate):
        hb.validate_pair(d8, rot, chi)


def test_center_characters_are_invariant():
    d8 = dihedral(8)
    for chi in ct.characters_of_subgroup(d8.center()):
        assert is_class_invariant(d8, chi)
        if chi == trivial_character(chi.domain):
            with pytest.raises(Degenerate):
                hb.validate_pair(d8, d8.center(), chi)
        else:
            assert hb.validate_pair(d8, d8.center(), chi).dim == 2


def test_quarter_character_on_rotations_not_invariant():
    d8, rot, chi = d8_quarter_character_on_rotations()
    assert not is_class_invariant(d8, chi)
    with pytest.raises(NotInvariant):
        hb.validate_pair(d8, rot, chi)


def test_invariance_requires_normal_domain():
    d8 = dihedral(8)
    sub = subgroup(d8, [E, B])
    assert any(d8.conjugate(g, B) not in sub for g in d8.elements())
    with pytest.raises(NotNormal):
        hb.validate_pair(d8, sub, trivial_character(sub))


# -- enumeration -----------------------------------------------------------------


def test_abelian_groups_have_only_linear_pairs():
    g = abelian_group([2, 4])
    pairs = hb.enumerate_pairs(g)
    assert len(pairs) == g.order
    assert all(p.dim == 1 for p in pairs)


def test_d8_pair_census():
    pairs = hb.enumerate_pairs(dihedral(8))
    assert sum(1 for p in pairs if p.dim == 2) == 1
    assert sum(1 for p in pairs if p.dim == 1) == 4


def test_q8_pair_census():
    pairs = hb.enumerate_pairs(quaternion8())
    assert sum(1 for p in pairs if p.dim == 2) == 1
    assert sum(1 for p in pairs if p.dim == 1) == 4


def test_heisenberg3_pair_census():
    pairs = hb.enumerate_pairs(heisenberg_mod(3))
    assert sum(1 for p in pairs if p.dim == 3) == 2
    assert sum(1 for p in pairs if p.dim == 1) == 9


def test_dimension_squared_is_the_index():
    for g in (dihedral(8), quaternion8(), heisenberg_mod(3), dihedral(16)):
        for pair in hb.enumerate_pairs(g):
            assert pair.dim**2 == g.order // len(pair.Z)


def test_enumeration_is_deterministic():
    g = dihedral(16)
    first = [(p.Z.members, p.chi.residues.tolist()) for p in hb.enumerate_pairs(g)]
    second = [(p.Z.members, p.chi.residues.tolist()) for p in hb.enumerate_pairs(g)]
    assert first == second


def test_enumeration_bound():
    with pytest.raises(EnumerationBoundExceeded):
        hb.enumerate_pairs(cyclic(300))


# The golden zoo, abelian groups of several shapes, and groups whose center
# escapes [G,G] (so the center screen skips candidates) or whose lower
# central series is longer than two steps or stabilises above {e}.
SCREEN_ZOO = (
    "d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "ab:2,2,2,2", "d16", "d128",
    "c1", "c12", "ab:4,4", "ab:3,3,3", "ab:2,6,12", "ab:2,2,2,2,2",
    "prod:q8,c16", "prod:heis3,c4", "prod:d6,c4", "d6", "d24",
)


def reference_enumerate_pairs(group):
    """The unscreened enumeration: every coabelian subgroup of square index,
    with validate_pair on each of its characters."""
    pairs = []
    for scalar in sorted(tr.coabelian_subgroups(group), key=lambda s: (-len(s), s.members)):
        index = group.order // len(scalar)
        if math.isqrt(index) ** 2 != index:
            continue
        for chi in ct.characters_of_subgroup(scalar):
            try:
                pairs.append(hb.validate_pair(group, scalar, chi))
            except (NotInvariant, Degenerate):
                continue
    return pairs


def pair_keys(pairs):
    return [(p.Z.members, [p.chi(z) for z in p.Z], p.chi.residues.tolist(), p.dim) for p in pairs]


def gamma3_index(group):
    """[G : gamma_3(G)] from the per-element reference series."""
    series = [group.full_subgroup()]
    while len(series) < 3:
        term = group.subgroup_generated(
            {group.commutator(x, g) for x in series[-1].members for g in group.elements()}
        )
        series.append(term)
    return group.order // len(series[2])


def screened_candidates(group):
    """The scalar subgroups the screen keeps, listed independently: square
    index, containing every element that commutes with all of G."""
    everything = group.elements()
    central = {x for x in everything if all(group.mul(x, g) == group.mul(g, x) for g in everything)}
    return [
        s.members
        for s in tr.coabelian_subgroups(group)
        if math.isqrt(len(group) // len(s)) ** 2 == len(group) // len(s) and central <= set(s.members)
    ]


@pytest.mark.parametrize("name", SCREEN_ZOO)
def test_center_screen_matches_the_unscreened_enumeration(monkeypatch, name):
    """The screened enumeration returns the reference's pairs in its order,
    runs validate_pair only on the candidates that contain Z(G), and meets
    the census sum(dim^2) = [G : gamma_3(G)]."""
    group = from_name(name)
    want = pair_keys(reference_enumerate_pairs(group))
    screened = []
    real_validate = hb.validate_pair

    def recording_validate(g, scalar, chi):
        screened.append(scalar.members)
        return real_validate(g, scalar, chi)

    monkeypatch.setattr(hb, "validate_pair", recording_validate)
    pairs = hb.enumerate_pairs(group)
    assert pair_keys(pairs) == want
    assert sorted(set(screened)) == sorted(screened_candidates(group))
    assert sum(p.dim**2 for p in pairs) == gamma3_index(group)


@pytest.mark.parametrize("name", ("d8", "heis3", "cp:d8,q8", "ab:2,4", "prod:d6,c4", "c12"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_center_screen_survives_relabelling(relabel, name, data):
    group = from_name(name)
    group = relabel(group, data.draw(st.permutations(range(group.order))))
    assert pair_keys(hb.enumerate_pairs(group)) == pair_keys(reference_enumerate_pairs(group))


@pytest.mark.parametrize("name", ("ab:2,2,2,2", "prod:q8,c16", "prod:heis3,c4", "prod:d6,c4", "c12"))
def test_every_skipped_candidate_holds_no_pair(name):
    """A square-index candidate that misses a central element fails every
    character: Degenerate when the character is invariant (the central
    coset lies in the radical), NotInvariant otherwise."""
    group = from_name(name)
    center = group.center()
    skipped = [
        s
        for s in tr.coabelian_subgroups(group)
        if math.isqrt(s.index()) ** 2 == s.index() and not s.contains_subgroup(center)
    ]
    assert skipped
    outcomes = set()
    for scalar in skipped:
        for chi in ct.characters_of_subgroup(scalar):
            want = Degenerate if is_class_invariant(group, chi) else NotInvariant
            with pytest.raises(want):
                hb.validate_pair(group, scalar, chi)
            outcomes.add(want)
    assert Degenerate in outcomes


def test_screen_skips_the_candidates_that_miss_the_center():
    """prod:q8,c16 screens 2 of its 24 square-index candidates, and an
    elementary abelian group only G itself."""
    for name, kept, total in (("prod:q8,c16", 2, 24), ("ab:2,2,2,2,2", 1, 187)):
        group = from_name(name)
        square = [s for s in tr.coabelian_subgroups(group) if math.isqrt(s.index()) ** 2 == s.index()]
        assert len(square) == total
        assert len(screened_candidates(group)) == kept


def test_census_catches_a_dropped_pair(monkeypatch):
    """A pair lost by the enumeration fails the census."""
    real_validate = hb.validate_pair
    d8 = dihedral(8)

    def dropping_validate(group, scalar, chi):
        if scalar.members == d8.center().members:
            raise Degenerate("dropped")
        return real_validate(group, scalar, chi)

    monkeypatch.setattr(hb, "validate_pair", dropping_validate)
    with pytest.raises(IdentityFailed, match="census"):
        hb.enumerate_pairs(d8)


@pytest.mark.parametrize(
    "name,tables", (("cp:d8,q8", 37), ("prod:d8,d8", 37), ("heis4", 9), ("d16", 2))
)
def test_enumerate_pairs_validates_one_table_per_candidate(monkeypatch, name, tables):
    """Work count: one validated table per candidate scalar subgroup, H/[H,H]
    for each proper one and G^ab for G, which the coabelian list builds;
    a nonabelian H is not first relabelled as a group of its own."""
    group = from_name(name)
    validated = [0]
    real = group_core._validate_table

    def counting(table):
        validated[0] += 1
        return real(table)

    monkeypatch.setattr(group_core, "_validate_table", counting)
    hb.enumerate_pairs(group)
    assert validated[0] == tables


# -- kernel reduction ---------------------------------------------------------------


def test_reduction_of_faithful_pair_is_isomorphic():
    pair = d8_pair()
    reduced, proj = hb.quotient_by_kernel(pair)
    assert reduced.group.order == 8
    assert reduced.dim == 2
    assert list(proj.map) == list(range(8))


@pytest.mark.parametrize("name", ("d8", "heis3", "cp:d8,q8"))
def test_reduction_of_faithful_pair_validates_no_table(monkeypatch, name):
    """A faithful pair's reduction is the trivial quotient, which shares the
    validated table; a pair with a kernel still validates its quotient."""
    calls = []
    real = group_core._validate_table
    monkeypatch.setattr(group_core, "_validate_table", lambda *a: calls.append(1) or real(*a))
    group = from_name(name)
    pairs = hb.enumerate_pairs(group)
    faithful = [p for p in pairs if p.is_reduced]
    assert faithful
    for pair in faithful:
        calls.clear()
        reduced, _ = hb.quotient_by_kernel(pair)
        assert calls == []
        assert reduced.group.identity_id == group.identity_id
        assert reduced.group.table is group.table
    for pair in (p for p in pairs if not p.is_reduced):
        calls.clear()
        hb.quotient_by_kernel(pair)
        assert calls == [1]


def test_reduction_of_trivial_linear_pair():
    g = cyclic(6)
    trivial = [p for p in hb.enumerate_pairs(g) if p.chi == trivial_character(p.chi.domain)][0]
    reduced, _ = hb.quotient_by_kernel(trivial)
    assert reduced.group.order == 1


def test_reduction_of_d16_pair_lands_on_order_8():
    """D16 has a dim-2 pair whose character has a genuine kernel."""
    d16 = dihedral(16)
    pairs = [p for p in hb.enumerate_pairs(d16) if p.dim == 2]
    assert len(pairs) == 1
    pair = pairs[0]
    assert not pair.is_reduced
    reduced, proj = hb.quotient_by_kernel(pair)
    assert reduced.group.order == 8
    assert reduced.is_reduced
    assert len(reduced.group.center()) == 2
    # maximal isotropics upstairs include a nonabelian one
    kinds = {h.is_abelian for h in pair.maximal_isotropics}
    assert kinds == {True, False}


# -- isotropic subgroups ---------------------------------------------------------------


def test_d8_maximal_isotropics_exactly_three():
    pair = d8_pair()
    members = [h.members for h in hb.all_maximal_isotropics(pair)]
    assert members == [(E, B, A2, A2B), (E, A, A2, A3), (E, AB, A2, A3B)]


def test_heis3_has_four_maximal_isotropics():
    assert len(hb.all_maximal_isotropics(heis3_pair())) == 4


def test_dim_one_isotropic_is_whole_group():
    g = cyclic(4)
    pair = hb.enumerate_pairs(g)[1]
    assert [h.members for h in hb.all_maximal_isotropics(pair)] == [
        tuple(g.elements())
    ]


def test_isotropics_are_isotropic_normal_and_contain_z():
    for pair in (d8_pair(), heis3_pair()):
        g = pair.group
        for sub in hb.all_maximal_isotropics(pair):
            assert g.is_normal(sub)
            assert sub.contains_subgroup(pair.Z)
            assert sub.index() == pair.dim
            for a in sub.members:
                for b in sub.members:
                    assert is_zero(x_value(pair, a, b))


def test_greedy_isotropic_through_d8_elements():
    pair = d8_pair()
    assert [h.members for h in pair.maximal_isotropics if A in h] == [(E, A, A2, A3)]
    assert [h.members for h in pair.maximal_isotropics if B in h] == [(E, B, A2, A2B)]


def test_greedy_isotropic_covers_every_element():
    for pair in (d8_pair(), heis3_pair()):
        isotropics = hb.all_maximal_isotropics(pair)
        for g in pair.group.elements():
            assert any(g in h for h in isotropics)


def test_one_quotient_and_one_lattice_per_scalar_subgroup(monkeypatch):
    """heis7 has 55 pairs on 2 scalar subgroups: each Z's G/Z is built and
    its lattice enumerated once, for every pair on Z, whether it comes
    from enumerate_pairs, validate_pair or twist."""
    quotients, lattices = [], []
    quotient, all_subgroups = group_core.FiniteGroup.quotient, group_core.FiniteGroup.all_subgroups

    def counted_quotient(self, normal, label=None):
        quotients.append(normal.members)
        return quotient(self, normal, label)

    def counted_all_subgroups(self, *args, **kwargs):
        lattices.append(self)
        return all_subgroups(self, *args, **kwargs)

    group = heisenberg_mod(7)
    pairs = hb.enumerate_pairs(group, max_order=512)
    monkeypatch.setattr(group_core.FiniteGroup, "quotient", counted_quotient)
    monkeypatch.setattr(group_core.FiniteGroup, "all_subgroups", counted_all_subgroups)
    for pair in pairs:
        pair.two_rank, pair.maximal_isotropics, pair.squares_times_z
    scalars = sorted({pair.Z.members for pair in pairs})
    assert (len(pairs), len(scalars)) == (55, 2)
    assert sorted(quotients) == scalars
    assert len(lattices) == 2

    pair = next(p for p in pairs if p.dim == 7)
    omega = ct.linear_characters(group)[1]
    for other in (twist(pair, omega), hb.validate_pair(group, pair.Z, pair.chi)):
        assert other.scalar is pair.scalar
        assert other.maximal_isotropics == pair.maximal_isotropics
        assert other.two_rank == pair.two_rank
    assert (len(quotients), len(lattices)) == (2, 2)


def test_isotropics_from_the_layer_match_a_scan_of_every_subgroup():
    """The order-dim layer of G/Z, filtered per pair, gives exactly the
    subgroups H of G over Z of index dim on which chi([h, h']) vanishes."""
    for pair in (d8_pair(), heis3_pair(), hb.enumerate_pairs(heisenberg_mod(7), max_order=512)[-1]):
        group, chi = pair.group, pair.chi.residues
        quot, _ = pair.ambient
        layer = tuple(s.members for s in quot.all_subgroups() if len(s) == pair.dim)
        assert pair.scalar.isotropic_layer == layer
        scan = [
            h
            for h in group.all_subgroups(max_order=group.order)
            if h.index() == pair.dim
            and h.contains_subgroup(pair.Z)
            and not chi[group.commutator_table(h.members, h.members)].any()
        ]
        assert pair.maximal_isotropics == scan


# -- symplectic bases ---------------------------------------------------------------


def test_dim_one_basis_empty():
    g = cyclic(4)
    pair = hb.enumerate_pairs(g)[1]
    basis = symplectic_basis(pair)
    assert basis.pairs == ()
    assert basis.H.members == tuple(g.elements())


def test_d8_basis_single_hyperbolic_pair():
    pair = d8_pair()
    basis = symplectic_basis(pair)
    assert len(basis.pairs) == 1
    t, tp, m = basis.pairs[0]
    assert m == 2
    assert x_value(pair, t, tp).order == 2
    assert set(basis.H.members) & set(basis.H_prime.members) == set(pair.Z.members)


def test_heis5_basis():
    h5 = heisenberg_mod(5)
    pair = [p for p in hb.enumerate_pairs(h5) if p.dim == 5][0]
    basis = symplectic_basis(pair)
    assert len(basis.pairs) == 1
    t, tp, m = basis.pairs[0]
    assert m == 5
    assert x_value(pair, t, tp).den == 5


def test_central_product_basis_two_planes():
    cp = central_product(dihedral(8), dihedral(8))
    pair = [p for p in hb.enumerate_pairs(cp) if p.dim == 4][0]
    basis = symplectic_basis(pair)
    assert [m for _, _, m in basis.pairs] == [2, 2]
    # transversality in the ambient group
    g = pair.group
    products = {g.mul(a, b) for a in basis.H.members for b in basis.H_prime.members}
    assert len(products) == g.order
    # orthogonality across planes
    (t1, t1p, _), (t2, t2p, _) = basis.pairs
    for u in (t1, t1p):
        for v in (t2, t2p):
            assert is_zero(x_value(pair, u, v))


def test_basis_orders_ascend_and_multiply_to_dim():
    h4 = heisenberg_mod(4)
    pair = [p for p in hb.enumerate_pairs(h4) if p.dim == 4][0]
    basis = symplectic_basis(pair)
    ms = [m for _, _, m in basis.pairs]
    assert all(b % a == 0 for a, b in zip(ms, ms[1:]))
    prod = 1
    for m in ms:
        prod *= m
    assert prod == 4


# -- two-rank ----------------------------------------------------------------------


def test_two_rank_examples():
    assert heis3_pair().two_rank == 0
    assert d8_pair().two_rank == 2
    cp = central_product(dihedral(8), dihedral(8))
    pair = [p for p in hb.enumerate_pairs(cp) if p.dim == 4][0]
    assert pair.two_rank == 4


def test_two_rank_always_even():
    for g in (dihedral(8), quaternion8(), heisenberg_mod(4), dihedral(16)):
        for pair in hb.enumerate_pairs(g):
            assert pair.two_rank % 2 == 0


# -- closed-form counts ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,count",
    (
        ("d8", 3),
        ("q8", 3),
        ("heis3", 4),
        ("es_p3_exp_p2:3", 4),
        ("heis5", 6),
        ("cp:d8,q8", 15),
        ("cp:d8,d8", 15),
    ),
)
def test_top_pair_isotropic_count_is_the_lagrangian_count(name, count):
    """When G/Z is (Z/p)^(2n), the maximal isotropics of a pair are the
    Lagrangians of a nondegenerate alternating form on F_p^(2n), and there
    are prod_{i=1..n} (p^i + 1) of them. Each is found as a preimage
    through the projection onto G/Z."""
    pairs = hb.enumerate_pairs(from_name(name))
    top = max(pair.dim for pair in pairs)
    for pair in (pair for pair in pairs if pair.dim == top):
        factors = abelian.decompose(pair.ambient[0]).factors
        p, n = factors[0], len(factors) // 2
        assert set(factors) == {p} and len(factors) == 2 * n
        assert len(pair.maximal_isotropics) == math.prod(p**i + 1 for i in range(1, n + 1))
        assert len(pair.maximal_isotropics) == count
