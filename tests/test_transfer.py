"""Transfer maps: definition, closed forms, correcting functions, and the
classical identities."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrep import abelian, transfer as tr
from hrep.errors import IdentityFailed, PreconditionFailed
from hrep.group_core import (
    Subgroup,
    abelian_group,
    cyclic,
    dihedral,
    direct_product,
    from_name,
    heisenberg_mod,
    quaternion8,
)

E, B, A, AB, A2, A2B, A3, A3B = range(8)


def rotations(d8):
    return d8.subgroup([E, A, A2, A3])


# -- the definition -----------------------------------------------------------------


def test_transfer_against_hand_computed_product():
    """Definitional oracle: expand the factor product for H = <a> in D8
    with transversal {e, b} by hand."""
    d8 = dihedral(8)
    sub = rotations(d8)
    transversal = list(d8.coset_positions(sub)[0])
    assert transversal == [E, B]
    _, pos = d8.coset_positions(sub)
    values = tr.transfer_table(d8, sub)
    for g in d8.elements():
        expected = d8.identity_id
        for t in transversal:
            x = d8.mul(g, t)
            s = transversal[pos[x]]
            expected = d8.mul(expected, d8.mul(d8.inv(s), x))
        assert values[g] == expected
    assert values[A] == E


def _product_loop(group, sub, transversal):
    """The raw transfer product of every g, expanded with group.mul."""
    _, pos = group.coset_positions(sub)
    rep_of_coset = {pos[t]: t for t in transversal}
    out = []
    for g in group.elements():
        result = group.identity_id
        for t in transversal:
            x = group.mul(g, t)
            result = group.mul(result, group.mul(group.inv(rep_of_coset[pos[x]]), x))
        out.append(result)
    return tuple(out)


# d16 and d24 have nonabelian subgroups whose factor product depends on
# the order of the factors
@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,2,2", "d16", "d24"))
def test_cached_transfer_table_matches_the_product_loop(name):
    """Every subgroup, so every maximal isotropic of every pair and every
    transfer instance: the cached table equals the factor product
    recomputed here, also against a shuffled and H-shifted transversal."""
    group = from_name(name)
    rng = random.Random(0)
    for sub in group.all_subgroups():
        canonical = list(group.coset_positions(sub)[0])
        assert group.transfer_products(sub) == _product_loop(group, sub, canonical)
        assert group.transfer_products(sub) is group.transfer_products(sub)
        other = [group.mul(t, rng.choice(sub.members)) for t in canonical]
        rng.shuffle(other)
        batch = group.transfer_fold(sub, [canonical, other])
        assert batch.shape == (2, group.order)
        assert tuple(batch[0].tolist()) == _product_loop(group, sub, canonical)
        assert tuple(batch[1].tolist()) == _product_loop(group, sub, other)


def test_transfer_to_whole_group_is_abelianization():
    d8 = dihedral(8)
    values = tr.transfer_table(d8, d8.full_subgroup())
    # index 1: the single factor is g itself, reported in G/[G,G] as the
    # minimal id of its coset
    derived = d8.commutator_subgroup().members
    for g in d8.elements():
        assert values[g] == min(d8.mul(g, c) for c in derived)
    assert len(set(values)) == d8.order // len(derived)
    z6 = cyclic(6)
    assert tr.transfer_table(z6, z6.full_subgroup()) == tuple(z6.elements())


def _commutators_of(group, sub):
    return group.subgroup_generated(
        {group.commutator(x, y) for x in sub.members for y in sub.members}
    )


def _quotient_group_values(group, sub):
    """The transfer as element ids of H/[H,H] built as a standalone
    quotient group of H, an encoding independent of the library's
    coset-minimum ids.  Returns the quotient group, the map from ids of H
    into it and the values."""
    hgrp, to_parent = sub.as_group
    local = {m: i for i, m in enumerate(to_parent)}
    quot, proj = hgrp.quotient(hgrp.commutator_subgroup())
    to_codomain = {m: proj(local[m]) for m in sub.members}
    return quot, to_codomain, [to_codomain[v] for v in group.transfer_products(sub)]


@pytest.mark.parametrize("name", ("d16", "d24", "q8", "heis3", "cp:d8,q8"))
def test_transfer_table_matches_the_quotient_group_encoding(name):
    """Every subgroup: each value is the minimal id of the raw product's
    [H,H]-coset, and mapped onto H/[H,H] the table gives the quotient
    group's values, which form a homomorphism into it."""
    group = from_name(name)
    for sub in group.all_subgroups():
        values = tr.transfer_table(group, sub)
        derived = _commutators_of(group, sub).members
        raw = group.transfer_products(sub)
        assert values == tuple(min(group.mul(r, c) for c in derived) for r in raw)
        quot, to_codomain, expected = _quotient_group_values(group, sub)
        image = [to_codomain[v] for v in values]
        assert image == expected
        for x in group.elements():
            for y in group.elements():
                assert image[group.mul(x, y)] == quot.mul(image[x], image[y])


def test_transfer_in_abelian_group_is_index_power():
    for g in (cyclic(12), abelian_group([2, 4]), abelian_group([3, 6])):
        for sub in g.all_subgroups():
            values = tr.transfer_table(g, sub)
            for x in g.elements():
                assert values[x] == g.pow(x, sub.index())


def test_transfer_to_commutator_subgroup_is_trivial():
    for g in (dihedral(8), quaternion8(), heisenberg_mod(3), dihedral(16)):
        derived = g.commutator_subgroup()
        assert tr.transfer_table(g, derived) == (g.identity_id,) * g.order


def test_transfer_homomorphism_property():
    d8 = dihedral(8)
    sub = rotations(d8)
    vals = tr.transfer_table(d8, sub)
    for x in d8.elements():
        for y in d8.elements():
            assert vals[d8.mul(x, y)] == d8.mul(vals[x], vals[y])


def test_transversal_independence_rotated_and_shifted():
    d8 = dihedral(8)
    sub = rotations(d8)
    base = list(tr.transfer_table(d8, sub))
    # reversed transversal
    rotated = list(reversed(d8.coset_positions(sub)[0]))
    # shifted by subgroup elements
    shifted = [d8.mul(t, h) for t, h in zip(d8.coset_positions(sub)[0], [A2, A])]
    values = tr.transfer_values_with_transversal(d8, sub, [rotated, shifted])
    assert values.tolist() == [base, base]
    report = tr.transversal_independence_check(d8, sub, seed=3)
    assert report.passed


def test_transversal_independence_seed_determinism():
    h3 = heisenberg_mod(3)
    sub = h3.center()
    r1 = tr.transversal_independence_check(h3, sub, seed=11)
    r2 = tr.transversal_independence_check(h3, sub, seed=11)
    assert r1.as_dict() == r2.as_dict()
    assert r1.passed


def test_bad_transversal_rejected():
    d8 = dihedral(8)
    for transversals in ([E, A], [[E, A]], [[E, B], [E, A]], [[E]]):
        with pytest.raises(PreconditionFailed):
            tr.transfer_values_with_transversal(d8, rotations(d8), transversals)


# -- odd-index power rule ----------------------------------------------------------


def test_odd_index_power_rule_heisenberg():
    for n in (3, 5):
        g = heisenberg_mod(n)
        for sub in tr.transfer_instances(g):
            if sub.index() % 2 == 0 or sub.index() == 1:
                continue
            report = tr.check_odd_index_transfer(g, sub)
            assert report.passed, report.counterexamples
            assert report.stats["index"] in (n, n * n)


def test_odd_index_power_rule_names_the_conjugator_of_a_noncentral_power(monkeypatch):
    g = heisenberg_mod(3)
    sub = [h for h in tr.transfer_instances(g) if h.index() == 3][0]
    monkeypatch.setattr(g, "power_subgroup", lambda d: g.full_subgroup())
    report = tr.check_odd_index_transfer(g, sub)
    assert not report.passed
    noncentral = [x for x in g.elements() if x not in g.center()]
    expected = []
    for x in noncentral[: tr.MAX_COUNTEREXAMPLES]:
        c = next(c for c in g.elements() if g.conjugate(c, x) != x)
        expected.append({"g": x, "lhs": g.conjugate(c, x), "rhs": x, "conjugator": c})
    assert report.counterexamples == expected


def test_odd_index_power_rule_rejects_even_index():
    d8 = dihedral(8)
    with pytest.raises(PreconditionFailed, match="odd"):
        tr.check_odd_index_transfer(d8, rotations(d8))


def test_odd_index_power_rule_rejects_nonabelian_subgroup():
    g = direct_product(heisenberg_mod(3), cyclic(3))
    # heis3 x {0}: packed ids are multiples of 3; nonabelian of index 3
    big = g.subgroup_generated([3 * x for x in range(27)])
    assert len(big) == 27 and not big.is_abelian
    with pytest.raises(PreconditionFailed, match=r"\(1\)"):
        tr.check_odd_index_transfer(g, big)


def test_odd_index_power_rule_rejects_higher_nilpotency():
    d16 = dihedral(16)
    sub = d16.commutator_subgroup()  # index 4... need odd: use whole group
    full = d16.full_subgroup()
    # full subgroup is nonabelian, so condition (1) trips first; check (3)
    # on a genuinely 3-step group with an odd-index abelian H
    assert not tr.is_two_step_nilpotent(d16)


def test_two_step_nilpotent_matches_the_commutator_definition():
    """G' inside Z(G) agrees with the definition [G, [G, G]] = {e},
    checked element by element."""

    def brute_force(group):
        e = group.identity_id
        return all(
            group.commutator(c, g) == e
            for c in group.commutator_subgroup().members
            for g in group.elements()
        )

    for name, expected in (
        ("d8", True),
        ("q8", True),
        ("heis3", True),
        ("heis4", True),
        ("cp:d8,q8", True),
        ("prod:d8,c3", True),
        ("ab:2,4", True),
        ("d6", False),
        ("d16", False),
        ("d24", False),
    ):
        group = from_name(name)
        assert brute_force(group) is expected, name
        assert tr.is_two_step_nilpotent(group) is expected, name


def test_power_map_is_homomorphism_on_rule_instances():
    g = heisenberg_mod(3)
    d = 3
    for x in g.elements():
        for y in g.elements():
            assert g.pow(g.mul(x, y), d) == g.mul(g.pow(x, d), g.pow(y, d))


# -- correcting function -------------------------------------------------------------


def test_correcting_function_d8():
    d8 = dihedral(8)
    cf = tr.correcting_function(d8, rotations(d8))
    assert cf.values[A] == A2  # T(a) = e = a^2 * a^2
    assert cf.index == 2
    z2 = tr.central_involutions(d8)
    assert set(cf.values) <= z2
    # trivial on squares
    for g in d8.elements():
        assert cf.values[d8.mul(g, g)] == E


def test_correcting_function_is_recomputable_from_definition():
    d8 = dihedral(8)
    sub = d8.subgroup([E, B, A2, A2B])
    cf = tr.correcting_function(d8, sub)
    d = sub.index()
    values = tr.transfer_table(d8, sub)
    for g in d8.elements():
        assert cf.values[g] == d8.mul(values[g], d8.inv(d8.pow(g, d)))


def test_correcting_function_trivial_for_odd_index():
    g = heisenberg_mod(3)
    for sub in tr.transfer_instances(g):
        if sub.index() % 2 == 1:
            cf = tr.correcting_function(g, sub)
            assert all(v == g.identity_id for v in cf.values)


def test_correcting_function_constant_on_square_commutator_cosets():
    d8 = dihedral(8)
    sub = rotations(d8)
    cf = tr.correcting_function(d8, sub)
    s = tr.squares_times(d8, d8.commutator_subgroup())
    _, pos = d8.coset_positions(s)
    seen = {}
    for g in d8.elements():
        assert seen.setdefault(pos[g], cf.values[g]) == cf.values[g]


def test_generator_formula_complement_independence():
    """The commutator [t_i^{m_i}, alpha_i] does not depend on which
    complement of <t_i> is used, probed exhaustively on small instances."""
    for g, sub_members in [
        (dihedral(8), [E, A2]),
        (heisenberg_mod(2), None),
    ]:
        sub = (
            g.subgroup(sub_members)
            if sub_members is not None
            else g.center()
        )
        quot, proj = g.quotient(sub)
        dec = abelian.decompose(quot)
        reps = quot.coset_reps
        for i, (m, tq) in enumerate(zip(dec.factors, dec.generators)):
            t = reps[tq]
            cyc = set(quot.subgroup_generated([tq]).members)
            want = quot.order // len(cyc)
            results = set()
            for cand in quot.all_subgroups():
                if len(cand) == want and len(cyc & set(cand.members)) == 1:
                    alpha = abelian.subgroup_product(quot, cand.members)
                    results.add(g.commutator(g.pow(t, m), reps[alpha]))
            assert len(results) == 1


def test_cocycle_identity_abelian_trivial():
    g = abelian_group([2, 6])
    for sub in g.all_subgroups():
        report = tr.check_correcting_cocycle(g, sub)
        assert report.passed
        assert report.stats["phi_is_homomorphism"]


def test_cocycle_identity_heisenberg_odd():
    g = heisenberg_mod(3)
    sub = tr.transfer_instances(g)[1]
    report = tr.check_correcting_cocycle(g, sub)
    assert report.passed
    assert report.stats["phi_trivial"]


def test_cocycle_identity_d8_pair_value():
    d8 = dihedral(8)
    sub = rotations(d8)
    cf = tr.correcting_function(d8, sub)
    # phi(ab)/(phi(a)phi(b)) must equal [a,b]^1 = a^2
    lhs = d8.mul(d8.mul(cf.values[d8.mul(A, B)], cf.values[A]), cf.values[B])
    assert lhs == d8.commutator(A, B) == A2
    report = tr.check_correcting_cocycle(d8, sub)
    assert report.passed
    assert not report.stats["phi_is_homomorphism"]


def test_cocycle_identity_heisenberg4_index_four():
    """Index 4 in heis4: the commutators, of order 4, are raised to
    d(d-1)/2 = 6, which is not the identity map on them."""
    g = heisenberg_mod(4)
    instances = [s for s in tr.transfer_instances(g) if g.order // len(s) == 4]
    assert len(instances) == 7
    sixth = {g.pow(g.commutator(x, y), 6) for x in g.elements() for y in g.elements()}
    assert sixth != {g.identity_id}
    for sub in instances:
        report = tr.check_correcting_cocycle(g, sub)
        assert report.passed, report.counterexamples
        assert not report.stats["phi_is_homomorphism"]


def plant(cf, g, value):
    """The correcting function with one entry replaced."""
    values = list(cf.values)
    values[g] = value
    return tr.CorrectingFunction(tuple(values), cf.index)


def failing_pairs(group, lhs, rhs):
    """The reference loop: every (g1, g2) with lhs != rhs, in row-major order."""
    return [
        {"g": [g1, g2], "lhs": lhs(g1, g2), "rhs": rhs(g1, g2)}
        for g1 in group.elements()
        for g2 in group.elements()
        if lhs(g1, g2) != rhs(g1, g2)
    ]


def test_cocycle_reports_a_planted_phi_entry_with_real_values(monkeypatch):
    d8 = dihedral(8)
    sub = rotations(d8)
    cf = tr.correcting_function(d8, sub)
    planted = plant(cf, B, d8.mul(cf.values[B], A2))
    phi = planted.values
    monkeypatch.setattr(tr, "correcting_function", lambda group, s: planted)
    report = tr.check_correcting_cocycle(d8, sub)
    assert not report.passed
    expected = failing_pairs(
        d8,
        lambda g1, g2: d8.mul(d8.mul(phi[d8.mul(g1, g2)], phi[g1]), phi[g2]),
        lambda g1, g2: d8.commutator(g1, g2),  # [g1, g2]^(d(d-1)/2) with d = 2
    )
    assert len(expected) > tr.MAX_COUNTEREXAMPLES
    assert report.counterexamples == expected[: tr.MAX_COUNTEREXAMPLES]


def test_cocycle_names_the_first_nontrivial_phi_value_for_odd_index(monkeypatch):
    g = heisenberg_mod(3)
    sub = tr.transfer_instances(g)[1]
    z = next(x for x in g.center().members if x != g.identity_id)
    cf = tr.correcting_function(g, sub)
    assert cf.index % 2 == 1
    monkeypatch.setattr(tr, "correcting_function", lambda group, s: plant(cf, 5, z))
    report = tr.check_correcting_cocycle(g, sub)
    assert not report.passed
    assert report.stats["phi_trivial"] is False
    assert report.counterexamples[0] == {"g": 5, "lhs": z, "rhs": g.identity_id}


def test_correcting_ratio_same_subgroup_trivial():
    d8 = dihedral(8)
    sub = rotations(d8)
    report = tr.check_correcting_ratio(d8, sub, sub)
    assert report.passed


def test_correcting_ratio_d8_two_isotropics():
    d8 = dihedral(8)
    h_rot = rotations(d8)
    h1 = d8.subgroup([E, B, A2, A2B])
    report = tr.check_correcting_ratio(d8, h_rot, h1)
    assert report.passed
    cf1 = tr.correcting_function(d8, h_rot)
    cf2 = tr.correcting_function(d8, h1)
    ratio = [d8.mul(v2, d8.inv(v1)) for v1, v2 in zip(cf1.values, cf2.values)]
    # a Klein-four sign pattern: values in {e, a^2}, not all equal
    assert set(ratio) == {E, A2}


def test_correcting_ratio_reports_a_planted_entry_with_real_values(monkeypatch):
    d8 = dihedral(8)
    h_rot, h1 = rotations(d8), d8.subgroup([E, B, A2, A2B])
    cf1, cf2 = tr.correcting_function(d8, h_rot), tr.correcting_function(d8, h1)
    cf2 = plant(cf2, A, d8.mul(cf2.values[A], A2))
    monkeypatch.setattr(tr, "correcting_function", lambda group, s: cf1 if s is h_rot else cf2)
    report = tr.check_correcting_ratio(d8, h_rot, h1)
    assert not report.passed
    ratio = [d8.mul(v2, d8.inv(v1)) for v1, v2 in zip(cf1.values, cf2.values)]
    expected = failing_pairs(
        d8, lambda g1, g2: ratio[d8.mul(g1, g2)], lambda g1, g2: d8.mul(ratio[g1], ratio[g2])
    )
    assert expected
    assert report.counterexamples == expected[: tr.MAX_COUNTEREXAMPLES]


def test_correcting_ratio_names_a_value_off_the_central_involutions(monkeypatch):
    d8 = dihedral(8)
    h_rot, h1 = rotations(d8), d8.subgroup([E, B, A2, A2B])
    cf1, cf2 = tr.correcting_function(d8, h_rot), tr.correcting_function(d8, h1)
    cf2 = plant(cf2, A, B)
    monkeypatch.setattr(tr, "correcting_function", lambda group, s: cf1 if s is h_rot else cf2)
    report = tr.check_correcting_ratio(d8, h_rot, h1)
    v = d8.mul(B, d8.inv(cf1.values[A]))
    assert not report.passed
    assert report.counterexamples[0] == {"g": A, "lhs": v, "rhs": d8.mul(v, v)}


def test_correcting_ratio_heisenberg_trivial():
    g = heisenberg_mod(3)
    insts = [h for h in tr.transfer_instances(g) if h.index() == 3]
    report = tr.check_correcting_ratio(g, insts[0], insts[1])
    assert report.passed
    cf1 = tr.correcting_function(g, insts[0])
    cf2 = tr.correcting_function(g, insts[1])
    assert cf1.values == cf2.values == tuple([g.identity_id] * g.order)


def test_correcting_ratio_index_mismatch():
    g = heisenberg_mod(3)
    insts = tr.transfer_instances(g)
    with pytest.raises(PreconditionFailed):
        tr.check_correcting_ratio(g, insts[0], insts[1])


# -- classical identities ---------------------------------------------------------------


def test_identities_abelian_trivial():
    g = abelian_group([4, 2])
    for sub in g.all_subgroups():
        report = tr.check_transfer_identities(g, sub)
        assert report.passed


def test_identities_d8():
    d8 = dihedral(8)
    report = tr.check_transfer_identities(d8, rotations(d8))
    assert report.passed
    assert report.stats["conjugation_pass"]
    assert report.stats["image_pass"]
    assert report.stats["furtwangler_pass"]


def test_identities_nonabelian_subgroup():
    d16 = dihedral(16)
    sub = d16.subgroup_generated([4, 1])  # <a^2, b>: nonabelian dihedral copy
    assert not sub.is_abelian
    report = tr.check_transfer_identities(d16, sub, include_furtwangler=False)
    assert report.passed
    assert report.stats["image_pass"] is None


def test_furtwangler_powers_d8():
    """T_{G/K}(g)^[K:[G,G]] lies in [K,K], the identity class of K/[K,K]."""
    d8 = dihedral(8)
    derived_order = len(d8.commutator_subgroup())
    for k_sub in tr.coabelian_subgroups(d8):
        exponent = len(k_sub) // derived_order
        values = tr.transfer_table(d8, k_sub)
        k_derived = _commutators_of(d8, k_sub)
        for g in d8.elements():
            assert d8.pow(values[g], exponent) in k_derived


def test_furtwangler_when_the_identity_is_not_the_minimal_id(relabel):
    """Relabel d8 so that the identity has the largest id: the class of
    the identity in G/[G,G] then has a smaller minimal id than the
    identity itself, and Furtwangler's bound must still pass."""
    d8 = dihedral(8)
    sigma = list(range(8))
    sigma[E], sigma[A3B] = A3B, E
    group = relabel(d8, sigma)
    assert group.identity_id == A3B
    full = group.full_subgroup()
    derived = _commutators_of(group, full)
    assert min(derived.members) != group.identity_id
    report = tr.check_transfer_identities(group, full)
    assert report.passed, report.counterexamples
    assert report.stats["furtwangler_pass"]


def reference_furtwangler(group):
    """Furtwangler's bound one element at a time: its first witnesses and
    whether it passed."""
    derived_order = len(group.commutator_subgroup())
    witnesses = []
    for k_sub in tr.coabelian_subgroups(group):
        exponent = len(k_sub) // derived_order
        values = tr.transfer_table(group, k_sub)
        red = tr._mod_derived(group, k_sub)
        e = int(red[group.identity_id])
        for g in group.elements():
            power = int(red[group.pow(values[g], exponent)])
            if power != e:
                witnesses.append(
                    {"g": g, "lhs": power, "rhs": e, "identity": "furtwangler",
                     "K": list(k_sub.members)}
                )
    return witnesses[: tr.MAX_COUNTEREXAMPLES], not witnesses


def test_furtwangler_reports_planted_failures_like_the_element_loop(monkeypatch, relabel):
    """A transfer table onto the cyclic K = <a> of index 2 in d16 that sends
    every g to a, whose square is not in [K,K] = 1: the loop's first 10
    witnesses, on d16 and on a relabelling."""
    d16 = dihedral(16)
    sigma = list(range(16))
    random.Random("d16:furtwangler").shuffle(sigma)
    original = tr.transfer_table
    for group in (d16, relabel(d16, sigma)):
        a = sigma[A] if group is not d16 else A
        rot = group.subgroup_generated([a])
        monkeypatch.setattr(
            tr,
            "transfer_table",
            lambda grp, s: (a,) * 16 if s.members == rot.members else original(grp, s),
        )
        report = tr.check_transfer_identities(group, group.full_subgroup())
        furt = [c for c in report.counterexamples if c["identity"] == "furtwangler"]
        witnesses, passed = reference_furtwangler(group)
        assert len(witnesses) == tr.MAX_COUNTEREXAMPLES and not passed
        assert furt == witnesses
        assert report.stats["furtwangler_pass"] is False and not report.passed
        monkeypatch.setattr(tr, "transfer_table", original)
        assert reference_furtwangler(group) == ([], True)


def test_image_statement_names_the_conjugator_of_a_moved_value(monkeypatch):
    d8 = dihedral(8)
    sub = rotations(d8)
    planted = list(tr.transfer_table(d8, sub))
    planted[B] = A
    original = tr.transfer_table
    monkeypatch.setattr(
        tr,
        "transfer_table",
        lambda group, s: tuple(planted) if s.members == sub.members else original(group, s),
    )
    report = tr.check_transfer_identities(d8, sub, include_furtwangler=False)
    assert not report.passed and not report.stats["image_pass"]
    c = next(c for c in d8.elements() if d8.conjugate(c, A) != A)
    image = [x for x in report.counterexamples if x["identity"] == "image"]
    assert image == [
        {"g": B, "lhs": d8.conjugate(c, A), "rhs": A, "conjugator": c, "identity": "image"}
    ]


def reference_conjugation_and_image(group, sub):
    """Conjugation covariance and the image statement as the pairwise
    loops they replaced: (conjugation counterexamples, conjugation_pass,
    image counterexamples, image_pass), at most 10 witnesses each."""
    base_values = tr.transfer_table(group, sub)
    conj, conj_pass = [], True
    seen = {sub.members: (tr._mod_derived(group, sub), base_values)}
    for g in group.elements():
        members = tuple(sorted(group.conjugate(g, h) for h in sub.members))
        if members not in seen:
            csub = Subgroup(group, members)
            seen[members] = (tr._mod_derived(group, csub), tr.transfer_table(group, csub))
        red, conj_values = seen[members]
        for gp in group.elements():
            lhs, rhs = conj_values[gp], int(red[group.conjugate(g, base_values[gp])])
            if lhs != rhs:
                conj_pass = False
                conj.append({"g": [g, gp], "lhs": lhs, "rhs": rhs, "identity": "conjugation"})
    image, image_pass = [], None
    if sub.is_abelian and group.is_normal(sub):
        fixed = {
            h for h in sub.members if all(group.conjugate(g, h) == h for g in group.elements())
        }
        image_pass = fixed <= set(group.center().members)
        for g in group.elements():
            v = base_values[g]
            if v not in fixed:
                image_pass = False
                c = next(
                    (c for c in group.elements() if group.conjugate(c, v) != v),
                    group.identity_id,
                )
                image.append(
                    {"g": g, "lhs": group.conjugate(c, v), "rhs": v, "conjugator": c,
                     "identity": "image"}
                )
    return conj[:10], conj_pass, image[:10], image_pass


def assert_matches_reference(group, sub):
    report = tr.check_transfer_identities(group, sub, include_furtwangler=False)
    conj, conj_pass, image, image_pass = reference_conjugation_and_image(group, sub)
    by_identity = lambda name: [c for c in report.counterexamples if c["identity"] == name]
    assert by_identity("conjugation") == conj
    assert by_identity("image") == image
    assert report.stats["conjugation_pass"] == conj_pass
    assert report.stats["image_pass"] == image_pass
    assert report.passed == (conj_pass and image_pass is not False)
    return report


def test_conjugation_and_image_match_the_pairwise_loops(relabel):
    """Every subgroup of d8, q8, d16 and heis3, normal or not, and a
    relabelled d16: the whole-table checks give the loops' outcome."""
    d16 = dihedral(16)
    sigma = list(range(16))
    random.Random("d16:conjugation").shuffle(sigma)
    for group in (dihedral(8), quaternion8(), d16, heisenberg_mod(3), relabel(d16, sigma)):
        for sub in group.all_subgroups():
            assert assert_matches_reference(group, sub).passed


def test_conjugation_reports_planted_failures_like_the_pairwise_loop(monkeypatch):
    """A wrong transfer table on one conjugate of a non-normal H gives the
    loop's counterexamples: row-major, at most 10."""
    d16 = dihedral(16)
    sub = d16.subgroup([0, 1])  # <b>, not normal
    assert not d16.is_normal(sub)
    other = next(
        m for m in {tuple(sorted(d16.conjugate(g, h) for h in sub)) for g in d16.elements()}
        if m != sub.members
    )
    original = tr.transfer_table

    def planted(group, s):
        values = list(original(group, s))
        if s.members == other:
            for g in range(3, 9):
                values[g] = other[0] if values[g] == other[1] else other[1]
        return tuple(values)

    monkeypatch.setattr(tr, "transfer_table", planted)
    report = assert_matches_reference(d16, sub)
    conj = [c for c in report.counterexamples if c["identity"] == "conjugation"]
    assert len(conj) == 10 and not report.passed


def test_image_reports_planted_failures_like_the_pairwise_loop(monkeypatch):
    """Every transfer value moved off the fixed part of the rotations of
    d16: the loop's first 10 image witnesses, with their conjugators."""
    d16 = dihedral(16)
    rot = d16.subgroup_generated([2])
    assert len(rot) == 8 and rot.is_abelian and d16.is_normal(rot)
    original = tr.transfer_table
    monkeypatch.setattr(
        tr,
        "transfer_table",
        lambda group, s: (2,) * 16 if s.members == rot.members else original(group, s),
    )
    report = assert_matches_reference(d16, rot)
    image = [c for c in report.counterexamples if c["identity"] == "image"]
    assert len(image) == 10 and not report.stats["image_pass"]


def test_central_part_of_image_statement():
    """Im(T) <= H^{G/H} <= Z(G) for abelian normal H, element by element."""
    g = quaternion8()
    sub = g.subgroup_generated([2])  # <a> of order 4
    central = set(g.center().members)
    fixed = {
        h for h in sub.members if all(g.conjugate(x, h) == h for x in g.elements())
    }
    assert fixed <= central
    assert set(tr.transfer_table(g, sub)) <= fixed


def test_power_image_iff_central_correcting_values():
    """G^d central iff the correcting values are central, on rule instances."""
    for g in (dihedral(8), quaternion8(), heisenberg_mod(4)):
        for sub in tr.transfer_instances(g):
            cf = tr.correcting_function(g, sub)
            d = cf.index
            central = set(g.center().members)
            power_central = set(g.power_subgroup(d).members) <= central
            phi_central = set(cf.values) <= central
            assert power_central == phi_central


# -- the array checks against the per-element loops they replaced ---------------------


def reference_correcting_function(group, sub):
    """correcting_function as per-element loops over pow, mul and sets."""
    d = tr._power_rule_preconditions(group, sub, need_odd=False)
    values = tr.transfer_table(group, sub)
    e = group.identity_id
    phi = tuple(group.mul(values[g], group.inv(group.pow(g, d))) for g in group.elements())
    z2 = tr.central_involutions(group)
    for g, v in enumerate(phi):
        if v not in z2:
            raise IdentityFailed(f"phi({g})={v} is not a central involution")
    _, pos = group.coset_positions(tr.squares_times(group, group.commutator_subgroup()))
    by_coset = {}
    for g, v in enumerate(phi):
        if by_coset.setdefault(pos[g], v) != v:
            raise IdentityFailed(f"phi is not constant on the G^2[G,G]-coset of {g}")
    quot, proj = group.quotient(sub)
    dec = abelian.decompose(quot)
    reps = quot.coset_reps
    lifts = tuple(reps[t] for t in dec.generators)
    alpha_lift = reps[abelian.subgroup_product(quot, quot.elements())]
    for i, (m, t) in enumerate(zip(dec.factors, lifts)):
        others = [u for j, u in enumerate(dec.generators) if j != i]
        alpha_i = reps[abelian.subgroup_product(quot, quot.subgroup_generated(others).members)]
        if values[t] != group.mul(group.pow(t, d), group.commutator(group.pow(t, m), alpha_i)):
            raise IdentityFailed(f"generator formula fails at t_{i} (element {t})")
    for h in sub.members:
        if values[h] != group.mul(group.pow(h, d), group.commutator(h, alpha_lift)):
            raise IdentityFailed(f"subgroup formula fails at h={h}")
    coords = dec.exponent_coordinates
    for g in group.elements():
        tup = coords[proj(g)]
        base = e
        for t, a in zip(lifts, tup):
            base = group.mul(base, group.pow(t, a))
        h = group.mul(group.inv(base), g)
        if h not in sub:
            raise IdentityFailed(f"decomposition of {g} does not land in H")
        acc = e
        for t, a in zip(lifts, tup):
            acc = group.mul(acc, group.pow(values[t], a))
        if values[g] != group.mul(acc, values[h]):
            raise IdentityFailed(f"transfer does not factor through the decomposition at {g}")
    return tr.CorrectingFunction(phi, d)


def reference_transversal_check(group, sub, seed):
    """transversal_independence_check one trial at a time, each shifted
    transversal's products expanded by _product_loop."""
    base_t, _ = group.coset_positions(sub)
    reference = tr.transfer_table(group, sub)
    red = tr._mod_derived(group, sub)
    rng = random.Random(seed)
    report = tr.CheckReport(
        "transversal_independence",
        True,
        stats={"group": group.label, "subgroup_order": len(sub), "trials": tr.TRANSVERSAL_TRIALS},
    )
    for trial in range(tr.TRANSVERSAL_TRIALS):
        shifted = [group.mul(t, rng.choice(sub.members)) for t in base_t]
        values = [int(red[v]) for v in _product_loop(group, sub, shifted)]
        for g, (got, want) in enumerate(zip(values, reference)):
            if got != want:
                report.fail(g=g, lhs=got, rhs=want, trial=trial)
    return report


def reference_odd_index_transfer(group, sub):
    """check_odd_index_transfer with per-element pow and conjugate."""
    d = tr._power_rule_preconditions(group, sub, need_odd=True)
    report = tr.CheckReport(
        "odd_index_transfer_power_rule",
        True,
        stats={"group": group.label, "index": d, "universe": group.order},
    )
    values = tr.transfer_table(group, sub)
    for g in group.elements():
        if values[g] != group.pow(g, d):
            report.fail(g=g, lhs=values[g], rhs=group.pow(g, d))
    e = group.identity_id
    for x in group.commutator_subgroup().members:
        if group.pow(x, d) != e:
            report.fail(g=x, lhs=group.pow(x, d), rhs=e)
    central = set(group.center().members)
    for x in group.power_subgroup(d).members:
        if x not in central:
            c = next(c for c in group.elements() if group.conjugate(c, x) != x)
            report.fail(g=x, lhs=group.conjugate(c, x), rhs=x, conjugator=c)
    return report


def reference_correcting_ratio(group, sub1, sub2):
    """check_correcting_ratio with per-element mul and inv."""
    cf1, cf2 = tr.correcting_function(group, sub1), tr.correcting_function(group, sub2)
    ratio = [group.mul(v2, group.inv(v1)) for v1, v2 in zip(cf1.values, cf2.values)]
    z2 = tr.central_involutions(group)
    report = tr.CheckReport(
        "correcting_function_ratio", True, stats={"group": group.label, "index": cf1.index}
    )
    for g, v in enumerate(ratio):
        if v not in z2:
            report.fail(g=g, lhs=v, rhs=group.mul(v, v))
    report.compare(
        np.array([[ratio[group.mul(x, y)] for y in group.elements()] for x in group.elements()]),
        np.array([[group.mul(ratio[x], ratio[y]) for y in group.elements()] for x in group.elements()]),
    )
    return report


def outcome(func, *args, **kwargs):
    """The value, or the IdentityFailed message, of one call."""
    try:
        result = func(*args, **kwargs)
    except IdentityFailed as exc:
        return f"IdentityFailed: {exc}"
    return result.as_dict() if isinstance(result, tr.CheckReport) else result


ARRAY_CHECK_ZOO = ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "heis4", "prod:d8,c3", "ab:2,2,2", "ab:2,4")


def assert_array_checks_match_references(group):
    instances = tr.transfer_instances(group)
    for sub in instances:
        assert outcome(tr.correcting_function, group, sub) == outcome(
            reference_correcting_function, group, sub
        )
        assert isinstance(tr.correcting_function(group, sub).values[0], int)
        if sub.index() % 2 == 1:
            assert outcome(tr.check_odd_index_transfer, group, sub) == outcome(
                reference_odd_index_transfer, group, sub
            )
        for other in instances:
            if other.index() == sub.index():
                assert outcome(tr.check_correcting_ratio, group, sub, other) == outcome(
                    reference_correcting_ratio, group, sub, other
                )
    for sub in group.all_subgroups():
        for seed in (0, 5):
            assert outcome(
                tr.transversal_independence_check, group, sub, seed=seed
            ) == outcome(reference_transversal_check, group, sub, seed)
    assert instances


@pytest.mark.parametrize("name", ARRAY_CHECK_ZOO)
def test_array_transfer_checks_match_the_per_element_loops(name):
    """correcting_function, the odd-index power rule, the correcting ratio
    on every pair of instances of one index, and transversal independence
    on every subgroup, against the loops they replaced."""
    assert_array_checks_match_references(from_name(name))


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_array_transfer_checks_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_array_checks_match_references(relabel(group, sigma))


def planted_transfer_tables(monkeypatch, group, sub, plants):
    """Make tr.transfer_table return the true table of ``sub`` with the
    entries in ``plants`` (g -> value) replaced."""
    real = tr.transfer_table
    values = list(real(group, sub))
    for g, v in plants.items():
        values[g] = v
    monkeypatch.setattr(
        tr, "transfer_table", lambda grp, s: tuple(values) if s == sub else real(grp, s)
    )


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,2,2", "prod:d8,c3"))
def test_correcting_function_fails_where_the_loop_fails(monkeypatch, name):
    """With one transfer value replaced, by every element on d8, q8 and
    ab:2,2,2 and by a sample elsewhere, and with random pairs of values
    replaced, the array correcting function raises the loop's message at
    the same first element (or agrees with it), and so does the
    odd-index rule's report."""
    group = from_name(name)
    rng = random.Random(7)
    singles = [{g: v} for g in group.elements() for v in group.elements()]
    if len(singles) > 150:
        singles = rng.sample(singles, 150)
    # pairs of plants, so that the first failing element is not the only one
    doubles = [
        dict(zip(rng.sample(range(group.order), 2), rng.choices(range(group.order), k=2)))
        for _ in range(60)
    ]
    failed = False
    for sub in tr.transfer_instances(group):
        for plants in singles + doubles:
            with monkeypatch.context() as patch:
                planted_transfer_tables(patch, group, sub, plants)
                want = outcome(reference_correcting_function, group, sub)
                assert outcome(tr.correcting_function, group, sub) == want
                failed = failed or isinstance(want, str)
                if sub.index() % 2 == 1:
                    assert outcome(tr.check_odd_index_transfer, group, sub) == outcome(
                        reference_odd_index_transfer, group, sub
                    )
    assert failed


def test_correcting_function_failures_cover_every_check(monkeypatch):
    """Single planted transfer values on d8, q8 and ab:2,2,2 reach every
    message of the correcting function except the decomposition landing
    outside H, which no transfer value can move."""
    messages = set()
    for name in ("d8", "q8", "ab:2,2,2"):
        group = from_name(name)
        for sub in tr.transfer_instances(group):
            for g in group.elements():
                for v in group.elements():
                    with monkeypatch.context() as patch:
                        planted_transfer_tables(patch, group, sub, {g: v})
                        got = outcome(tr.correcting_function, group, sub)
                    if isinstance(got, str):
                        messages.add(re.sub(r"\d+", "#", got))
    assert messages == {
        "IdentityFailed: phi(#)=# is not a central involution",
        "IdentityFailed: phi is not constant on the G^#[G,G]-coset of #",
        "IdentityFailed: generator formula fails at t_# (element #)",
        "IdentityFailed: subgroup formula fails at h=#",
        "IdentityFailed: transfer does not factor through the decomposition at #",
    }


def test_transversal_independence_reports_planted_failures_like_the_trial_loop(monkeypatch):
    """Two planted reference values fail in every trial; the batched fold
    keeps the first MAX_COUNTEREXAMPLES in (trial, g) order, as the
    trial-by-trial loop did."""
    g = heisenberg_mod(3)
    sub = g.center()
    true = tr.transfer_table(g, sub)
    moved = {x: next(h for h in sub.members if h != true[x]) for x in (4, 20)}
    planted_transfer_tables(monkeypatch, g, sub, moved)
    report = tr.transversal_independence_check(g, sub, seed=11)
    assert not report.passed
    assert [(c["trial"], c["g"]) for c in report.counterexamples] == [
        (trial, x) for trial in range(5) for x in (4, 20)
    ]
    assert report.as_dict() == reference_transversal_check(g, sub, 11).as_dict()


def test_odd_index_rule_reports_planted_powers_like_the_loop(monkeypatch):
    """A planted power map (x^3 moved at two elements, one of them in
    [G,G]) fails the power rule and the [G,G]^d rule with the loop's
    witnesses, in the loop's order."""
    g = heisenberg_mod(3)
    sub = [h for h in tr.transfer_instances(g) if h.index() == 3][0]
    z = next(x for x in g.commutator_subgroup().members if x != g.identity_id)
    y = next(x for x in g.elements() if x not in g.center())
    real_powers = g.powers

    def planted_powers(k):
        out = real_powers(k)
        if k == 3:
            out[[z, y]] = [z, g.inv(y)]
        return out

    monkeypatch.setattr(g, "powers", planted_powers)
    monkeypatch.setattr(g, "pow", lambda x, k: int(planted_powers(k)[x]) if k >= 0 else None)
    report = tr.check_odd_index_transfer(g, sub)
    assert not report.passed
    assert report.as_dict() == reference_odd_index_transfer(g, sub).as_dict()
    assert {c["g"] for c in report.counterexamples} >= {z, y}


def test_correcting_ratio_reports_planted_values_like_the_loop(monkeypatch):
    """Every single-entry plant of either of d8's two correcting functions,
    and the same entry of both moved off the centre: the array ratio
    check reports what the per-element loop reports."""
    d8 = dihedral(8)
    h_rot, h1 = rotations(d8), d8.subgroup([E, B, A2, A2B])
    cf1, cf2 = tr.correcting_function(d8, h_rot), tr.correcting_function(d8, h1)
    plants = [(plant(cf1, g, v), cf2) for g in d8.elements() for v in d8.elements()]
    plants += [(cf1, plant(cf2, g, v)) for g in d8.elements() for v in d8.elements()]
    plants += [(plant(cf1, g, A), plant(cf2, g, B)) for g in d8.elements()]
    for planted1, planted2 in plants:
        monkeypatch.setattr(
            tr, "correcting_function", lambda group, s: planted1 if s is h_rot else planted2
        )
        assert tr.check_correcting_ratio(d8, h_rot, h1).as_dict() == (
            reference_correcting_ratio(d8, h_rot, h1).as_dict()
        )


def test_correcting_function_reads_the_square_classes_once_per_group(monkeypatch):
    """G^2[G,G] and its coset map are computed once per group, however
    many instances read them, and name each coset by its least id."""
    g = from_name("ab:2,4,4")
    g.commutator_subgroup()
    closures = []
    real = type(g)._generated_by_mask
    monkeypatch.setattr(type(g), "_generated_by_mask", lambda *a: closures.append(1) or real(*a))
    instances = tr.transfer_instances(g)
    for sub in instances:
        tr.correcting_function(g, sub)
        tr.correcting_function(g, sub)
    assert len(instances) > 2 and len(closures) == 1
    reps, pos = g.coset_positions(tr.squares_times(g, g.commutator_subgroup()))
    assert g.square_class_reps.tolist() == [reps[p] for p in pos]
    assert len(reps) == 8 and not g.square_class_reps.flags.writeable


def test_transversal_independence_names_the_trial_of_a_wrong_fold(monkeypatch):
    """A fold made wrong for exactly the transversal drawn in trial 2 (found
    by replaying the seed) fails in trial 2 only: the trials are drawn and
    folded in order."""
    g = heisenberg_mod(3)
    sub = g.center()
    base_t, _ = g.coset_positions(sub)
    rng = random.Random(11)
    drawn = [
        tuple(g.mul(t, rng.choice(sub.members)) for t in base_t)
        for _ in range(tr.TRANSVERSAL_TRIALS)
    ]
    assert len(set(drawn)) == tr.TRANSVERSAL_TRIALS
    real_fold = g.transfer_fold
    z = next(x for x in sub.members if x != g.identity_id)

    def wrong_for_trial_two(s, transversals):
        out = real_fold(s, transversals)
        for row, transversal in zip(out, np.asarray(transversals).tolist()):
            if tuple(transversal) == drawn[2]:
                row[7] = g.mul(row[7], z)
        return out

    monkeypatch.setattr(g, "transfer_fold", wrong_for_trial_two)
    report = tr.transversal_independence_check(g, sub, seed=11)
    assert not report.passed
    assert [(c["trial"], c["g"]) for c in report.counterexamples] == [(2, 7)]
