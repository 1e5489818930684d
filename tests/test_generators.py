"""Generator certificates: every check whose domain is all of G reads
G x S, for S the generators Light's test proved, against the full scans
over G x G (or over every conjugator) that they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrep
from hrep import transfer as tr
from hrep.char_theory import LinearCharacter, linear_characters, residue_modulus, whole_group_witness
from hrep.errors import IdentityFailed, NotACharacter
from hrep.group_core import FiniteGroup, Subgroup, from_cayley_table, from_name
from test_group_core import alternating5, reference_commutator_subgroup, relabel_table

ZOO = (
    "c1", "c6", "d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "ab:2,2,2,2",
    "d16", "d128", "heis4", "prod:d8,c3", "ab:3,9",
)


def relabelled_a5():
    """A5 renamed so that the commutators of its S generate a subgroup of
    order 5 that is not normal."""
    sigma = np.random.default_rng(0).permutation(60)
    return from_cayley_table(relabel_table(alternating5().table, sigma), label="a5~")


def zoo_group(name):
    if name.startswith("a5"):
        return relabelled_a5() if name == "a5~" else alternating5()
    return from_name(name)


# -- the full scans the certificates replaced ----------------------------------


def full_scan_witness(values, table, modulus):
    """The first (x, y) in row-major order over all n^2 pairs with
    values[x y] != values[x] + values[y] mod N, or None."""
    bad = (values[:, None] + values[None, :]) % modulus != values[table]
    return tuple(int(v) for v in np.argwhere(bad)[0]) if bad.any() else None


def full_scan_is_normal(group, sub):
    """H conjugated by every element of G."""
    table = group.table
    conj = table[table[:, list(sub.members)], group.inverse[:, None]]
    return bool(sub.mask[conj].all())


def full_scan_is_homomorphism(group, values, red):
    """values[x y] = red(values[x] values[y]) for every pair of elements."""
    table = group.table
    return bool(np.array_equal(values[table], red[table[np.ix_(values, values)]]))


# -- what the certificates must agree with ---------------------------------------


def assert_generators(group):
    gens = group.generators
    assert gens.dtype == np.int64 and not gens.flags.writeable
    with pytest.raises(ValueError):
        gens[:1] = group.identity_id
    assert gens.tolist() == hrep.group_core._light_generators(group.table, group.identity_id)
    assert group.subgroup_generated(gens.tolist()) == group.full_subgroup()
    assert len(gens) <= group.order.bit_length() - 1


def planted_residues(group, rng):
    """Residue arrays that are not characters: a character changed at one
    element outside S and e, and a map constant on the left cosets of
    K = <S[:-1]>, 0 on K and 1 off it, which every s in S[:-1] respects,
    so only the last generator can refute it."""
    modulus = residue_modulus(group)
    outside = np.setdiff1d(np.arange(group.order), [group.identity_id, *group.generators])
    planted = []
    for chi in linear_characters(group)[:3]:
        for x in rng.permutation(outside)[:6].tolist():
            values = chi.residues.copy()
            values[x] = (values[x] + 1 + rng.integers(modulus - 1)) % modulus
            planted.append(values)
    k = group.subgroup_generated(group.generators[:-1].tolist())
    planted.append(np.where(k.mask, 0, 1).astype(np.int64))
    return planted


def assert_certificates_match_full_scans(group, seed=0):
    """Characters of G, planted non-characters, the transfer table of every
    subgroup (and with one raw product planted), [G,G], and is_normal on
    every subgroup, against the full scans."""
    assert_generators(group)
    table, modulus = group.table, residue_modulus(group)
    full = group.full_subgroup()
    for chi in linear_characters(group):
        chi.validate()
        assert whole_group_witness(group, chi.residues) is None
        assert full_scan_witness(chi.residues, table, modulus) is None

    rng = np.random.default_rng(seed)
    refuted = 0
    for values in planted_residues(group, rng):
        want = full_scan_witness(values, table, modulus)
        assert whole_group_witness(group, values) == want
        if want is None:
            continue
        refuted += 1
        with pytest.raises(NotACharacter, match="multiplicativity fails") as err:
            LinearCharacter(full, values).validate()
        assert err.value.witness == want
    # only a trivial or elementary abelian 2-group has no non-character
    # with the last generator as its one witness
    assert refuted or group.exponent <= 2

    assert group.commutator_subgroup() == reference_commutator_subgroup(group)
    subgroups = group.all_subgroups()
    normality = [group.is_normal(sub) for sub in subgroups]
    assert normality == [full_scan_is_normal(group, sub) for sub in subgroups]
    assert all(normality) or not group.is_abelian

    e = group.identity_id
    k_mask = group.subgroup_generated(group.generators[:-1].tolist()).mask
    for sub in subgroups:
        red = group.derived_classes(sub)
        values = tr.transfer_table(group, sub)
        assert full_scan_is_homomorphism(group, values, red)
        members = np.asarray(sub.members)
        raw = group.transfer_products(sub)
        plants = []
        for x in rng.permutation(group.order)[:4].tolist():
            plants.append(raw.copy())
            plants[-1][x] = members[rng.integers(len(members))]
        # e on K = <S[:-1]> and one member h of H off it: S[:-1] respects it
        plants.append(np.where(k_mask, e, members[-1]))
        for planted in plants:
            ok = full_scan_is_homomorphism(group, red[planted], red)
            (checked,) = tr._checked_tables(group, [sub], red[planted][None], red[None])
            if ok:
                assert checked.tolist() == red[planted].tolist()
            else:
                assert isinstance(checked, IdentityFailed)
                assert str(checked) == "transfer values do not form a homomorphism"
        assert values.item(e) == red.item(e)


@pytest.mark.parametrize("name", ZOO + ("a5", "a5~"))
def test_certificates_match_the_full_scans_on_the_zoo(name):
    assert_certificates_match_full_scans(zoo_group(name))


@pytest.mark.parametrize("name", ("c6", "d8", "q8", "heis3", "cp:d8,q8", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_certificates_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_certificates_match_full_scans(relabel(group, sigma), seed=len(sigma))


def test_the_last_generator_alone_refutes_a_coset_plant():
    """On d8 (S = [b, a]) the map 0 on <b> and 1 off it respects b, so it
    is refuted only through a; the witness is the full scan's first."""
    d8 = from_name("d8")
    assert d8.generators.tolist() == [1, 2]
    values = np.where(d8.subgroup_generated([1]).mask, 0, 1).astype(np.int64)
    assert np.array_equal(values[d8.table[:, 1]], (values + values[1]) % 4)
    with pytest.raises(NotACharacter) as err:
        LinearCharacter(d8.full_subgroup(), values).validate()
    assert err.value.witness == full_scan_witness(values, d8.table, 4) == (2, 2)


def test_normal_closure_grows_past_the_generator_commutators():
    """In the relabelled A5 the commutators of S generate a subgroup of
    order 5 that is not normal; conjugation by S grows it to [G,G] = G."""
    a5 = relabelled_a5()
    gens = a5.generators
    first = a5._generated_by_mask(a5.commutator_table(gens, gens))
    assert len(first) == 5 and not a5.is_normal(first)
    assert a5.commutator_subgroup() == a5.full_subgroup()


@pytest.mark.parametrize("name", ("heis3", "d8", "ab:2,4"))
def test_a_shared_table_shares_its_table_only_memos(name):
    """The trivial quotient and a renamed copy share the parent's
    arrays and table-only memos, whichever side computes them first, but
    keep their own subgroups, whose parent is the new group."""
    parent = from_name(name)
    quot, _ = parent.quotient(Subgroup(parent, (parent.identity_id,)))
    renamed = FiniteGroup(quot, label="renamed")
    assert quot.element_orders is parent.element_orders
    for group in (quot, renamed):
        for field in ("table", "inverse", "generators", "element_orders", "class_reps"):
            assert getattr(group, field) is getattr(parent, field)
        assert (group.exponent, group.is_abelian) == (parent.exponent, parent.is_abelian)
        assert group._table_source is parent
        center = group.center()
        assert center.parent is group and center.members == parent.center().members
