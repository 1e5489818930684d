"""Exact exponent arithmetic, characters, and extensions."""

import math
import random

import numpy as np
import pytest
from conftest import character
from hypothesis import given, settings
from hypothesis import strategies as st

from hrep import char_theory as ct, heisenberg as hb, transfer as tr
from hrep.char_theory import LinearCharacter, QmodZ
from hrep.errors import EnumerationBoundExceeded, NoExtension, NotACharacter, PreconditionFailed
from hrep.group_core import (
    FiniteGroup,
    Subgroup,
    abelian_group,
    cyclic,
    dihedral,
    from_name,
    heisenberg_mod,
    quaternion8,
)
from reference import (
    HALF,
    ZERO,
    as_group,
    is_zero,
    multiply,
    parse,
    restrict,
    scale,
    subgroup,
    trivial_character,
)

E, B, A, AB, A2, A2B, A3, A3B = range(8)

qmz = st.builds(QmodZ, st.integers(-40, 40), st.integers(1, 24))


# -- QmodZ ---------------------------------------------------------------------


def test_qmz_canonical_form():
    assert QmodZ(2, 4) == QmodZ(1, 2)
    assert QmodZ(7, 3) == QmodZ(1, 3)
    assert QmodZ(-1, 4) == QmodZ(3, 4)
    assert QmodZ(0, 5) == QmodZ(0, 1)
    assert str(QmodZ(3, 6)) == "1/2"


def test_qmz_examples():
    assert QmodZ(1, 3) + QmodZ(2, 3) == ZERO
    assert scale(HALF, 2) == ZERO
    assert scale(QmodZ(1, 6), 4) == QmodZ(2, 3)
    assert -QmodZ(1, 3) == QmodZ(2, 3)
    assert parse("5/8") == QmodZ(5, 8)
    assert QmodZ(5, 8).order == 8


@settings(deadline=None)
@given(qmz, qmz, qmz)
def test_qmz_abelian_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + (-a) == ZERO
    assert a + ZERO == a


@settings(deadline=None)
@given(qmz, st.integers(-20, 20), st.integers(-20, 20))
def test_qmz_scale_is_additive(a, j, k):
    assert scale(a, j) + scale(a, k) == scale(a, j + k)


@settings(deadline=None)
@given(qmz, qmz)
def test_qmz_denominator_divides_lcm(a, b):
    import math

    assert math.lcm(a.den, b.den) % (a + b).den == 0


@settings(deadline=None)
@given(qmz)
def test_qmz_string_roundtrip(a):
    assert parse(str(a)) == a


# -- characters of abelian groups --------------------------------------------------


def test_characters_of_z2():
    chars = ct.linear_characters(cyclic(2))
    assert len(chars) == 2
    assert chars[0] == trivial_character(chars[0].domain)
    assert chars[1](1) == HALF


def test_characters_of_klein_four():
    chars = ct.linear_characters(abelian_group([2, 2]))
    assert len(chars) == 4
    for chi in chars:
        assert {chi(x) for x in chi.domain} <= {ZERO, HALF}
        chi.validate()


def test_characters_of_z6():
    z6 = cyclic(6)
    chars = ct.linear_characters(z6)
    assert len(chars) == 6
    assert sorted(str(chi(1)) for chi in chars) == sorted(
        f"{k}/6" if QmodZ(k, 6).den == 6 else str(QmodZ(k, 6)) for k in range(6)
    )
    for chi in chars:
        chi.validate()


def reference_characters_of_abelian(group):
    """The characters of an abelian group as per-element QmodZ sums over
    its decomposition's coordinates."""
    from itertools import product

    from hrep.abelian import decompose

    dec = decompose(group)
    coords = dec.exponent_coordinates
    chars = []
    for idx in product(*[range(m) for m in dec.factors]):
        exps = []
        for x in group.elements():
            value = ZERO
            for c, a, m in zip(idx, coords[x], dec.factors):
                value = value + QmodZ(c * a, m)
            exps.append(value)
        chars.append(exps)
    return chars


ABELIAN_SPECS = ([1], [2], [6], [2, 2], [2, 4], [3, 9], [2, 2, 2, 2], [2, 6, 12], [4, 4])


@pytest.mark.parametrize("factors", ABELIAN_SPECS)
def test_characters_of_abelian_match_the_per_element_sums(factors):
    group = abelian_group(factors)
    chars = ct.linear_characters(group)
    want = reference_characters_of_abelian(group)
    assert [[chi(x) for x in group.elements()] for chi in chars] == want
    for chi, values in zip(chars, want):
        assert chi == character(chi.domain, values)
        assert not chi.residues.flags.writeable
        chi.validate()


@pytest.mark.parametrize("factors", ([2, 4], [3, 3], [2, 2, 2]))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_characters_of_abelian_survive_relabelling(relabel, factors, data):
    group = abelian_group(factors)
    group = relabel(group, data.draw(st.permutations(range(group.order))))
    chars = ct.linear_characters(group)
    want = reference_characters_of_abelian(group)
    assert [[chi(x) for x in group.elements()] for chi in chars] == want


def test_characters_of_abelian_build_no_qmodz(monkeypatch):
    """Values come from the one shared exponent table per N."""
    group = abelian_group([2, 6, 12])
    ct._exponents(ct.residue_modulus(group))
    built = []
    real = QmodZ.__post_init__
    monkeypatch.setattr(QmodZ, "__post_init__", lambda self: built.append(1) or real(self))
    assert len(ct.linear_characters(group)) == 144
    assert built == []


def test_characters_of_nonabelian_subgroup_kill_commutators():
    q8 = quaternion8()
    chars = ct.characters_of_subgroup(q8.full_subgroup())
    assert len(chars) == 4  # Q8 abelianization is Klein four
    derived = q8.commutator_subgroup()
    for chi in chars:
        chi.validate()
        assert all(is_zero(chi(x)) for x in derived.members)


def reference_abelianization(sub):
    """H/[H,H] as the quotient of H relabelled as a group by its own
    commutator subgroup, with the map from H's local ids into it."""
    grp, _ = as_group(sub)
    return grp, grp.quotient(grp.commutator_subgroup())


def reference_characters_of_subgroup(sub):
    """Each character of H/[H,H] evaluated through the projection at every
    member, one QmodZ value at a time."""
    grp, (quot, proj) = reference_abelianization(sub)
    return [
        character(sub, tuple(chi(proj.map.item(x)) for x in grp.elements()))
        for chi in ct.linear_characters(quot)
    ]


def scalar_candidates(group):
    """The scalar subgroups ``enumerate_pairs`` tries: square index, between
    Z(G)[G,G] and G."""
    center = group.center()
    return [
        sub
        for sub in tr.coabelian_subgroups(group)
        if math.isqrt(sub.index()) ** 2 == sub.index() and sub.contains_subgroup(center)
    ]


# how many nonabelian candidate scalar subgroups two groups have
NONABELIAN_CANDIDATES = {"cp:d8,q8": 21, "prod:d8,d8": 27}


@pytest.mark.parametrize(
    "name", ("heis7", "prod:q8,c16", "cp:d8,q8", "ab:2,6,12", "d128", "prod:d8,d8")
)
def test_characters_of_subgroup_match_the_per_element_values(name):
    """The gathered characters equal the per-element ones, residues too, on
    the whole group, its center, [G,G], the cyclic subgroup of element 1,
    the trivial subgroup and every nonabelian candidate scalar subgroup; on
    each group some of these have a residue modulus that is a proper
    divisor of the group's, and on cp:d8,q8 and prod:d8,d8 many candidates
    are proper nonabelian subgroups, whose H/[H,H] is a quotient."""
    group = from_name(name)
    nonabelian = [sub for sub in scalar_candidates(group) if not sub.is_abelian]
    assert len(nonabelian) == NONABELIAN_CANDIDATES.get(name, len(nonabelian))
    scaled = 0
    subgroups = [
        group.full_subgroup(),
        group.center(),
        group.commutator_subgroup(),
        group.subgroup_generated([1]),
        group.subgroup_generated([]),
        *nonabelian,
    ]
    for sub in subgroups:
        got, want = ct.characters_of_subgroup(sub), reference_characters_of_subgroup(sub)
        assert got == want
        assert [c.residues.tolist() for c in got] == [c.residues.tolist() for c in want]
        _, (quot, _) = reference_abelianization(sub)
        scaled += ct.residue_modulus(quot) < ct.residue_modulus(group)
    assert scaled


def test_character_bound_refuses_before_building_a_character(monkeypatch):
    """An H/[H,H] larger than CHARACTER_ENUM_BOUND is refused before any
    character is built, on G (cp:d8,q8, |G^ab| = 16) and on a proper
    nonabelian subgroup (D8 x C2 in prod:d8,d8, |H^ab| = 8)."""
    cp, prod = from_name("cp:d8,q8"), from_name("prod:d8,d8")
    sub = next(s for s in scalar_candidates(prod) if not s.is_abelian)
    built = []
    real = LinearCharacter.__post_init__
    monkeypatch.setattr(LinearCharacter, "__post_init__", lambda self: built.append(1) or real(self))
    monkeypatch.setattr(ct, "CHARACTER_ENUM_BOUND", 7)
    for domain in (cp.full_subgroup(), sub):
        with pytest.raises(EnumerationBoundExceeded, match="character enumeration bound 7"):
            ct.characters_of_subgroup(domain)
    assert built == []
    monkeypatch.setattr(ct, "CHARACTER_ENUM_BOUND", 8)
    assert len(ct.characters_of_subgroup(sub)) == 8


def test_character_validate_catches_bad_map():
    z4 = cyclic(4)
    bad = character(z4.full_subgroup(), (ZERO, QmodZ(1, 4), HALF, QmodZ(1, 4)))
    with pytest.raises(NotACharacter) as info:
        bad.validate()
    # the first pair (x, y) in row-major order with chi(xy) != chi(x) + chi(y):
    # chi(3) = 1/4, but chi(1) + chi(2) = 3/4
    assert info.value.witness == (1, 2)


def test_character_validate_rejects_a_value_of_order_not_dividing_n():
    """Every value of a character of G is an N-th root of unity for
    N = lcm(exp(G), 2); on Z/3, N = 6 and a value 1/4 is no residue, and
    the constructor refuses a residue outside [0, 6)."""
    z3 = cyclic(3)
    assert ct.residue_modulus(z3) == 6
    with pytest.raises(NotACharacter, match="value 1/4 has order 4, which does not divide N=6"):
        character(z3.full_subgroup(), (ZERO, QmodZ(1, 4), HALF))
    with pytest.raises(NotACharacter, match=r"must lie in \[0, 6\)"):
        ct.LinearCharacter(z3.full_subgroup(), [0, 6, 3])


def test_residues_are_indexed_by_parent_id_and_read_only():
    d8 = dihedral(8)
    rot = subgroup(d8, [E, A, A2, A3])
    chi = [c for c in ct.characters_of_subgroup(rot) if c(A) == QmodZ(1, 4)][0]
    assert ct.residue_modulus(d8) == 4
    assert chi.residues.tolist() == [0, -1, 1, -1, 2, -1, 3, -1]
    assert not chi.residues.flags.writeable
    on_center = restrict(chi, d8.center())
    assert (on_center(E), on_center(A2)) == (ZERO, HALF)
    assert on_center.residues.tolist() == [0, -1, -1, -1, 2, -1, -1, -1]
    assert [multiply(chi, chi)(x) for x in rot] == [ZERO, HALF, ZERO, HALF]
    with pytest.raises(NotACharacter):
        restrict(on_center, rot)


def test_character_validate_rejects_a_domain_not_closed_under_the_product():
    d8 = dihedral(8)
    with pytest.raises(NotACharacter, match="not closed"):
        character(Subgroup(d8, (E, A)), (ZERO, ZERO)).validate()


def test_character_validate_builds_no_group(monkeypatch):
    built = []
    real_init = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    h3 = heisenberg_mod(3)
    subs = h3.all_subgroups()
    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    for sub in subs:
        trivial_character(sub).validate()
    assert built == []


# -- kernels ------------------------------------------------------------------------


def test_kernel_examples():
    z4 = cyclic(4)
    chars = ct.linear_characters(z4)
    trivial = chars[0]
    assert trivial.kernel().members == (0, 1, 2, 3)
    faithful = [c for c in chars if c(1) == QmodZ(1, 4)][0]
    assert faithful.kernel().members == (0,)
    half = [c for c in chars if c(1) == HALF][0]
    assert half.kernel().members == (0, 2)


def test_d8_trivial_character_degenerate():
    # The trivial character of Z(D8) kills every commutator, so the pairing
    # chi([g, h]) it induces has all of D8 as its radical.
    d8 = dihedral(8)
    chi = trivial_character(d8.center())
    assert all(is_zero(chi(x)) for x in chi.domain)
    radical = tuple(
        g for g in d8.elements() if all(is_zero(chi(d8.commutator(g, h))) for h in d8.elements())
    )
    assert radical == tuple(d8.elements())


# -- extension ------------------------------------------------------------------------


def d8_center_character():
    d8 = dihedral(8)
    trivial = trivial_character(d8.center())
    chi = [c for c in ct.characters_of_subgroup(d8.center()) if c != trivial][0]
    return d8, chi


def test_extension_to_itself_is_identity():
    d8, chi = d8_center_character()
    same = ct.extend_character(d8, chi, d8.center())
    assert same == chi


def test_extension_in_z4_smallest_branch():
    z4 = cyclic(4)
    sub = subgroup(z4, [0, 2])
    chi = character(sub, (ZERO, HALF))
    ext = ct.extend_character(z4, chi, z4.full_subgroup())
    assert ext(1) == QmodZ(1, 4)


def test_extension_in_d8():
    d8, chi = d8_center_character()
    rot = subgroup(d8, [E, A, A2, A3])
    ext = ct.extend_character(d8, chi, rot)
    assert ext(A) == QmodZ(1, 4)
    ext.validate()


def test_extension_count_is_the_index():
    d8, chi = d8_center_character()
    for members in ([E, A, A2, A3], [E, B, A2, A2B], [E, AB, A2, A3B]):
        sub = subgroup(d8, members)
        exts = ct.extend_character_all(d8, chi, sub)
        assert exts.shape == (len(sub) // 2, d8.order) and exts.dtype == np.int64
        assert not exts.flags.writeable
        assert np.array_equal(exts[0], ct.extend_character(d8, chi, sub).residues)
        for row in exts:
            ext = LinearCharacter(sub, row)
            ext.validate()
            assert all(ext(z) == chi(z) for z in d8.center().members)
    h3 = heisenberg_mod(3)
    trivial = trivial_character(h3.center())
    chi3 = [c for c in ct.characters_of_subgroup(h3.center()) if c != trivial][0]
    big = h3.subgroup_generated(set(h3.center().members) | {1})
    assert len(ct.extend_character_all(h3, chi3, big)) == len(big) // 3


@pytest.mark.parametrize(
    "name, z, chi_at, h, message",
    [
        # the trivial character of Z(d8) has four extensions to d8, but d8 is
        # no maximal isotropic: [G:H] = 1
        ("d8", (E, A2), {}, tuple(range(8)), r"^\[G:H\] = 1 is not \[H:Z\] = 4$"),
        # X is trivial, so the rotations are isotropic but not maximal: their
        # two extensions are invariant under conjugation
        ("d8", (E, A2), {}, (E, A, A2, A3), "^two conjugates coincide: H is not maximal isotropic$"),
        # a noncentral Z: conjugation by a moves chi off Z
        ("d8", (E, A2B), {A2B: 2}, (E, B, A2, A2B), "^chi is not G-invariant$"),
        # Z = <b> and H = <b> x C3 in S3 x C3, which a 3-cycle moves
        ("prod:d6,c3", (0, 3), {}, tuple(range(6)), "^H is not normal$"),
    ],
)
def test_the_family_is_refused_outside_a_maximal_isotropic(name, z, chi_at, h, message):
    group = from_name(name)
    residues = np.full(group.order, -1)
    residues[list(z)] = 0
    for x, r in chi_at.items():
        residues[x] = r
    chi, over = LinearCharacter(subgroup(group, z), residues), subgroup(group, h)
    ct.extend_character(group, chi, over).validate()
    with pytest.raises(PreconditionFailed, match=message):
        ct.extend_character_all(group, chi, over)


def test_no_family_on_a_subgroup_of_index_d_that_is_not_isotropic():
    """An H containing Z with [G:H] = [H:Z] = d on which X does not vanish:
    chi is alive on [H,H], so it has no extension to H at all."""
    group = from_name("cp:d8,q8")
    pair = next(p for p in hb.enumerate_pairs(group) if p.dim == 4)
    isotropic = {sub.members for sub in pair.maximal_isotropics}
    others = [
        sub
        for sub in group.all_subgroups()
        if len(sub) == 4 * len(pair.Z) and sub.contains_subgroup(pair.Z)
        and sub.members not in isotropic
    ]
    assert others
    for sub in others:
        with pytest.raises(NoExtension, match=r"^character is not trivial on \[H,H\]"):
            ct.extend_character_all(group, pair.chi, sub)


def test_extension_refuses_non_invariant_character():
    d8 = dihedral(8)
    rot = subgroup(d8, [E, A, A2, A3])
    chi = [c for c in ct.characters_of_subgroup(rot) if c(A) == QmodZ(1, 4)][0]
    with pytest.raises(NoExtension):
        ct.extend_character(d8, chi, d8.full_subgroup())


def test_extension_refuses_character_alive_on_commutators():
    d8, chi = d8_center_character()
    # chi is faithful on [G,G] = {e, a^2}, so it cannot extend to all of G
    with pytest.raises(NoExtension):
        ct.extend_character(d8, chi, d8.full_subgroup())


def test_extension_names_the_domain_outside_and_the_live_commutator():
    d8, chi = d8_center_character()
    rot = subgroup(d8, [E, A, A2, A3])
    on_rot = ct.characters_of_subgroup(rot)[1]
    with pytest.raises(NoExtension, match="^overgroup does not contain the character's domain$"):
        ct.extend_character(d8, on_rot, subgroup(d8, [E, B]))
    # the first commutator [h1, h2] in row-major order with chi nonzero
    h1, h2 = next(
        (x, y) for x in d8.elements() for y in d8.elements() if chi(d8.commutator(x, y)) != ZERO
    )
    message = rf"^character is not trivial on \[H,H\] \(witness \[{h1},{h2}\]\)$"
    with pytest.raises(NoExtension, match=message):
        ct.extend_character_all(d8, chi, d8.full_subgroup())


def reference_extend_all(group, chi, over):
    """The recursive extension over dicts of QmodZ values that the residue
    layers replaced: adjoin the smallest uncovered t, lift chi(t^m) = num/den
    to (num + j*den)/(den*m) for every branch j, and fill each c*t^k."""
    over_set = set(over.members)

    def grow(values):
        if len(values) == len(over_set):
            return [values]
        t = min(over_set - values.keys())
        m, p = 1, t
        while p not in values:
            p = group.mul(p, t)
            m += 1
        base = values[p]
        results = []
        for j in range(m):
            w = QmodZ(base.num + j * base.den, base.den * m)
            extended = dict(values)
            power = group.identity_id
            for k in range(1, m):
                power = group.mul(power, t)
                for c, vc in values.items():
                    extended[group.mul(c, power)] = vc + scale(w, k)
            results.extend(grow(extended))
        return results

    start = {z: chi(z) for z in chi.domain.members}
    return [character(over, tuple(v[m] for m in over.members)) for v in grow(start)]


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "heis5", "cp:d8,q8", "prod:d8,c3"))
@pytest.mark.parametrize("relabelled", (False, True))
def test_extension_matches_the_qmodz_reference(relabel, name, relabelled):
    """Every pair and reduced pair, its character extended to every
    maximal isotropic: the same set of residue rows as the per-element
    QmodZ recursion, with the recursion's first extension, which
    extend_character gives, as row 0 (the rest follow the cosets, not the
    recursion's branches). And the trivial character of the center
    extended to the whole group by extend_character: the recursion's
    first extension. On the group and on one relabelled copy."""
    group = from_name(name)
    if relabelled:
        sigma = list(range(group.order))
        random.Random(group.order).shuffle(sigma)
        group = relabel(group, sigma)
    trivial, whole = trivial_character(group.center()), group.full_subgroup()
    assert ct.extend_character(group, trivial, whole) == reference_extend_all(group, trivial, whole)[0]
    pairs = hb.enumerate_pairs(group)
    cases = [(p, sub) for q in pairs for p in (q, q.reduction[0]) for sub in p.maximal_isotropics]
    extensions = 0
    for pair, over in cases:
        got = ct.extend_character_all(pair.group, pair.chi, over)
        want = reference_extend_all(pair.group, pair.chi, over)
        assert len(got) == len(want)
        assert {row.tobytes() for row in got} == {chi.residues.tobytes() for chi in want}
        assert np.array_equal(got[0], want[0].residues)
        assert np.array_equal(got[0], ct.extend_character(pair.group, pair.chi, over).residues)
        extensions += len(got)
    assert extensions > len(cases)


def test_character_constructor_guards():
    d8 = dihedral(8)
    center = d8.center()
    with pytest.raises(NotACharacter, match="length"):
        ct.LinearCharacter(center, [0, -1, 2])
    with pytest.raises(NotACharacter, match="off the domain must be -1"):
        ct.LinearCharacter(center, [0, 0, -1, -1, 2, -1, -1, -1])
    for bad in (-2, 4):
        with pytest.raises(NotACharacter, match=r"must lie in \[0, 4\)"):
            ct.LinearCharacter(center, [0, -1, -1, -1, bad, -1, -1, -1])
    values = np.array([0, -1, -1, -1, 2, -1, -1, -1])
    chi = ct.LinearCharacter(center, values)
    assert chi(A2) == HALF
    with pytest.raises(KeyError):
        chi(A)
    with pytest.raises(KeyError):
        chi(-1)
    assert not chi.residues.flags.writeable
    with pytest.raises(ValueError):
        chi.residues[A2] = 0
    values[A2] = 0
    assert chi(A2) == HALF


def test_character_equality_is_structural():
    d8 = dihedral(8)
    chi = ct.LinearCharacter(d8.center(), [0, -1, -1, -1, 2, -1, -1, -1])
    same = ct.LinearCharacter(subgroup(d8, [E, A2]), np.array([0, -1, -1, -1, 2, -1, -1, -1]))
    assert chi == same and hash(chi) == hash(same) and len({chi, same}) == 1
    assert chi != trivial_character(d8.center())
    rot = subgroup(d8, [E, A, A2, A3])
    assert trivial_character(rot) != trivial_character(d8.center())
    other = dihedral(8)
    assert chi != ct.LinearCharacter(other.center(), chi.residues)
    assert chi != chi.residues.tolist()
