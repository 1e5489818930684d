"""Transfer maps: definition, closed forms, correcting functions, and the
classical identities."""

import itertools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from conftest import assert_plain_json
from hypothesis import given, settings
from hypothesis import strategies as st

from hrep import abelian, cli, induced_det as idet, transfer as tr
from hrep.errors import HrepError, IdentityFailed, PreconditionFailed, unwrap
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
from reference import (
    as_group,
    canonical_products,
    central_involutions,
    check_correcting_cocycle,
    check_correcting_ratio,
    subgroup,
    subgroup_product,
    transfer_values_with_transversal,
    transversal_owners,
)

E, B, A, AB, A2, A2B, A3, A3B = range(8)


def rotations(d8):
    return subgroup(d8, [E, A, A2, A3])


def single_check(group, sub, check, seed=0):
    """One list of ``tr.transfer_checks`` on the subgroup alone: its
    outcome, raised if it is an HrepError."""
    return unwrap(getattr(tr.transfer_checks(group, [sub], seed=seed), check)[0])


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
    return out


# d16 and d24 have nonabelian subgroups whose factor product depends on
# the order of the factors
@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,2,2", "d16", "d24"))
def test_cached_transfer_table_matches_the_product_loop(name):
    """Every subgroup, so every maximal isotropic of every pair and every
    transfer instance: the cached table equals the factor product
    recomputed here, also against a shuffled and H-shifted transversal;
    the reference fold over the canonical transversal gives the same
    products."""
    group = from_name(name)
    rng = random.Random(0)
    for sub in group.all_subgroups():
        canonical = list(group.coset_positions(sub)[0])
        loop = _product_loop(group, sub, canonical)
        assert canonical_products(group, sub).tolist() == loop
        assert tr.transfer_table(group, sub).tolist() == group.derived_classes(sub)[loop].tolist()
        assert tr.transfer_table(group, sub) is tr.transfer_table(group, sub)
        other = [group.mul(t, rng.choice(sub.members)) for t in canonical]
        rng.shuffle(other)
        batch = tr._transfer_fold(group, sub, [canonical, other])
        assert batch.shape == (2, group.order)
        assert batch[0].tolist() == _product_loop(group, sub, canonical)
        assert batch[1].tolist() == _product_loop(group, sub, other)


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
    assert tr.transfer_table(z6, z6.full_subgroup()).tolist() == list(z6.elements())


def _commutators_of(group, sub):
    return group.subgroup_generated(
        {group.commutator(x, y) for x in sub.members for y in sub.members}
    )


def reference_mod_derived(group, sub):
    """``derived_classes`` with [H,H] generated by the whole list of |H|^2
    commutators in one subgroup_generated call."""
    if sub.is_abelian:
        return np.arange(group.order)
    commutators = group.commutator_table(sub.members, sub.members)
    derived = group.subgroup_generated(commutators.ravel().tolist())
    reps, pos = group.coset_positions(derived)
    return np.asarray(reps)[np.asarray(pos)]


@pytest.mark.parametrize("name", ("heis3", "heis5", "cp:d8,q8"))
def test_mod_derived_closes_at_most_log2_generators(monkeypatch, name):
    """Every subgroup H: the [H,H]-coset minima equal the reference's, and
    no closure of [H,H] is handed more than log2 |G| generators."""
    group = from_name(name)
    subs = [sub for sub in group.all_subgroups() if not sub.is_abelian]
    assert subs
    want = [reference_mod_derived(group, sub) for sub in subs]
    calls = []
    real = type(group).subgroup_generated

    def counting(self, gens):
        gens = list(gens)
        calls.append(len(gens))
        return real(self, gens)

    monkeypatch.setattr(type(group), "subgroup_generated", counting)
    for sub, expected in zip(subs, want):
        assert np.array_equal(group.derived_classes(sub), expected)
    assert calls and 2 ** max(calls) <= group.order


def _quotient_group_values(group, sub):
    """The transfer as element ids of H/[H,H] built as a standalone
    quotient group of H, an encoding independent of the library's
    coset-minimum ids.  Returns the quotient group, the map from ids of H
    into it and the values."""
    hgrp, to_parent = as_group(sub)
    local = {m: i for i, m in enumerate(to_parent)}
    quot, proj = hgrp.quotient(hgrp.commutator_subgroup())
    to_codomain = {m: proj.map.item(local[m]) for m in sub.members}
    return quot, to_codomain, [to_codomain[v] for v in canonical_products(group, sub).tolist()]


@pytest.mark.parametrize("name", ("d16", "d24", "q8", "heis3", "cp:d8,q8"))
def test_transfer_table_matches_the_quotient_group_encoding(name):
    """Every subgroup: each value is the minimal id of the raw product's
    [H,H]-coset, and mapped onto H/[H,H] the table gives the quotient
    group's values, which form a homomorphism into it."""
    group = from_name(name)
    for sub in group.all_subgroups():
        values = tr.transfer_table(group, sub)
        derived = _commutators_of(group, sub).members
        raw = canonical_products(group, sub).tolist()
        assert values.tolist() == [min(group.mul(r, c) for c in derived) for r in raw]
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


VERIFY_ABELIAN_ZOO = ("ab:2,2,2,2", "ab:4,4", "ab:3,3,3", "ab:2,2,2,2,2")


@pytest.mark.parametrize("name", VERIFY_ABELIAN_ZOO)
def test_block_pass_tables_are_index_powers(relabel, name):
    """The verify-abelian benchmark groups and a relabelling of each: the
    table that transfer_checks folds, checks and caches for every transfer
    instance is g -> g^[G:H], the transfer of an abelian group, which is
    only a test oracle here."""
    group = from_name(name)
    sigma = list(range(group.order))
    random.Random(f"{name}:power").shuffle(sigma)
    for g in (group, relabel(group, sigma)):
        instances = tr.transfer_instances(g)
        assert instances and not g._transfer_table_cache
        tr.transfer_checks(g, instances)
        for sub in instances:
            table = g._transfer_table_cache[sub.members]
            assert table.tolist() == [g.pow(x, sub.index()) for x in g.elements()]


def test_transfer_to_commutator_subgroup_is_trivial():
    for g in (dihedral(8), quaternion8(), heisenberg_mod(3), dihedral(16)):
        derived = g.commutator_subgroup()
        assert tr.transfer_table(g, derived).tolist() == [g.identity_id] * g.order


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
    values = transfer_values_with_transversal(d8, [sub], [rotated, shifted])
    assert values.tolist() == [base, base]
    report = single_check(d8, sub, "independence", seed=3)
    assert report.passed


def test_transversal_independence_seed_determinism():
    h3 = heisenberg_mod(3)
    sub = h3.center()
    r1 = single_check(h3, sub, "independence", seed=11)
    r2 = single_check(h3, sub, "independence", seed=11)
    assert r1.as_dict() == r2.as_dict()
    assert r1.passed


def test_transversal_shifts_are_drawn_once_per_subgroup_order(monkeypatch):
    """Every subgroup of one order on one group reads the same read-only
    positions, drawn by one Random(seed) per (seed, |H|), and the shifts
    are the members that rng.choice picks coset by coset, trial by trial."""
    group = from_name("ab:2,2,2,2")
    draws = []
    real_random = random.Random
    monkeypatch.setattr(tr.random, "Random", lambda seed: draws.append(seed) or real_random(seed))
    subs = group.all_subgroups()
    for seed in (0, 5):
        for sub in subs:
            assert single_check(group, sub, "independence", seed=seed).passed
    orders = {len(sub) for sub in subs}
    assert sorted(draws) == sorted([0] * len(orders) + [5] * len(orders))
    for sub in subs:
        positions = tr._shift_positions(group, len(sub), 5)
        assert positions is tr._shift_positions(group, len(sub), 5)
        assert positions.dtype == np.int64 and not positions.flags.writeable
        rng = real_random(5)
        want = [
            [rng.choice(sub.members) for _ in range(sub.index())]
            for _ in range(tr.TRANSVERSAL_TRIALS)
        ]
        assert np.asarray(sub.members)[positions].tolist() == want


def test_bad_transversal_rejected():
    d8 = dihedral(8)
    for transversals in ([E, A], [[E, A]], [[E, B], [E, A]], [[E]]):
        with pytest.raises(PreconditionFailed):
            transfer_values_with_transversal(d8, [rotations(d8)], transversals)


# -- odd-index power rule ----------------------------------------------------------


def test_odd_index_power_rule_heisenberg():
    for n in (3, 5):
        g = heisenberg_mod(n)
        for sub in tr.transfer_instances(g):
            if sub.index() % 2 == 0 or sub.index() == 1:
                continue
            report = single_check(g, sub, "odd_index")
            assert report.passed, report.counterexamples
            assert report.stats["index"] in (n, n * n)


def test_odd_index_power_rule_names_the_conjugator_of_a_noncentral_power(monkeypatch):
    g = heisenberg_mod(3)
    sub = [h for h in tr.transfer_instances(g) if h.index() == 3][0]
    monkeypatch.setattr(g, "power_subgroup", lambda d: g.full_subgroup())
    report = single_check(g, sub, "odd_index")
    assert not report.passed
    assert_plain_json(report.as_dict())
    noncentral = [x for x in g.elements() if x not in g.center()]
    expected = []
    for x in noncentral[: tr.MAX_COUNTEREXAMPLES]:
        c = next(c for c in g.elements() if g.conjugate(c, x) != x)
        expected.append({"g": x, "lhs": g.conjugate(c, x), "rhs": x, "conjugator": c})
    assert report.counterexamples == expected


def test_odd_index_power_rule_rejects_even_index():
    """An even index gets no odd-index outcome, so verify prints no row,
    while the other checks still run on it."""
    d8 = dihedral(8)
    checks = tr.transfer_checks(d8, [rotations(d8)])
    assert checks.odd_index == [None]
    assert all(unwrap(outcomes[0]).passed for outcomes in checks[1:])


def test_odd_index_power_rule_rejects_nonabelian_subgroup():
    g = direct_product(heisenberg_mod(3), cyclic(3))
    # heis3 x {0}: packed ids are multiples of 3; nonabelian of index 3
    big = g.subgroup_generated([3 * x for x in range(27)])
    assert len(big) == 27 and not big.is_abelian
    with pytest.raises(PreconditionFailed, match=r"\(1\)"):
        single_check(g, big, "odd_index")


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
    z2 = central_involutions(d8)
    assert set(cf.values) <= z2
    # trivial on squares
    for g in d8.elements():
        assert cf.values[d8.mul(g, g)] == E


def test_correcting_function_is_recomputable_from_definition():
    d8 = dihedral(8)
    sub = subgroup(d8, [E, B, A2, A2B])
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
            subgroup(g, sub_members)
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
                    alpha = subgroup_product(quot, cand.members)
                    results.add(g.commutator(g.pow(t, m), reps[alpha]))
            assert len(results) == 1


def test_cocycle_identity_abelian_trivial():
    g = abelian_group([2, 6])
    for sub in g.all_subgroups():
        report = check_correcting_cocycle(g, sub)
        assert report.passed
        assert report.stats["phi_is_homomorphism"]


def test_cocycle_identity_heisenberg_odd():
    g = heisenberg_mod(3)
    sub = tr.transfer_instances(g)[1]
    report = check_correcting_cocycle(g, sub)
    assert report.passed
    assert report.stats["phi_trivial"]


def test_cocycle_identity_d8_pair_value():
    d8 = dihedral(8)
    sub = rotations(d8)
    cf = tr.correcting_function(d8, sub)
    # phi(ab)/(phi(a)phi(b)) must equal [a,b]^1 = a^2
    lhs = d8.mul(d8.mul(cf.values[d8.mul(A, B)], cf.values[A]), cf.values[B])
    assert lhs == d8.commutator(A, B) == A2
    report = check_correcting_cocycle(d8, sub)
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
        report = check_correcting_cocycle(g, sub)
        assert report.passed, report.counterexamples
        assert not report.stats["phi_is_homomorphism"]


def plant(cf, g, value):
    """The correcting function with one entry replaced."""
    values = cf.values.copy()
    values[g] = value
    values.flags.writeable = False
    return tr.CorrectingFunction(values, cf.index)


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
    report = check_correcting_cocycle(d8, sub)
    assert not report.passed
    assert_plain_json(report.as_dict())
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
    report = check_correcting_cocycle(g, sub)
    assert not report.passed
    assert_plain_json(report.as_dict())
    assert report.stats["phi_trivial"] is False
    assert report.counterexamples[0] == {"g": 5, "lhs": z, "rhs": g.identity_id}


def test_correcting_ratio_same_subgroup_trivial():
    d8 = dihedral(8)
    sub = rotations(d8)
    report = check_correcting_ratio(d8, sub, sub)
    assert report.passed


def test_correcting_ratio_d8_two_isotropics():
    d8 = dihedral(8)
    h_rot = rotations(d8)
    h1 = subgroup(d8, [E, B, A2, A2B])
    report = check_correcting_ratio(d8, h_rot, h1)
    assert report.passed
    cf1 = tr.correcting_function(d8, h_rot)
    cf2 = tr.correcting_function(d8, h1)
    ratio = [d8.mul(v2, d8.inv(v1)) for v1, v2 in zip(cf1.values, cf2.values)]
    # a Klein-four sign pattern: values in {e, a^2}, not all equal
    assert set(ratio) == {E, A2}


def test_correcting_ratio_reports_a_planted_entry_with_real_values(monkeypatch):
    d8 = dihedral(8)
    h_rot, h1 = rotations(d8), subgroup(d8, [E, B, A2, A2B])
    cf1, cf2 = tr.correcting_function(d8, h_rot), tr.correcting_function(d8, h1)
    cf2 = plant(cf2, A, d8.mul(cf2.values[A], A2))
    monkeypatch.setattr(tr, "correcting_function", lambda group, s: cf1 if s is h_rot else cf2)
    report = check_correcting_ratio(d8, h_rot, h1)
    assert not report.passed
    assert_plain_json(report.as_dict())
    ratio = [d8.mul(v2, d8.inv(v1)) for v1, v2 in zip(cf1.values, cf2.values)]
    expected = failing_pairs(
        d8, lambda g1, g2: ratio[d8.mul(g1, g2)], lambda g1, g2: d8.mul(ratio[g1], ratio[g2])
    )
    assert expected
    assert report.counterexamples == expected[: tr.MAX_COUNTEREXAMPLES]


def test_correcting_ratio_names_a_value_off_the_central_involutions(monkeypatch):
    d8 = dihedral(8)
    h_rot, h1 = rotations(d8), subgroup(d8, [E, B, A2, A2B])
    cf1, cf2 = tr.correcting_function(d8, h_rot), tr.correcting_function(d8, h1)
    cf2 = plant(cf2, A, B)
    monkeypatch.setattr(tr, "correcting_function", lambda group, s: cf1 if s is h_rot else cf2)
    report = check_correcting_ratio(d8, h_rot, h1)
    v = d8.mul(B, d8.inv(cf1.values[A]))
    assert not report.passed
    assert_plain_json(report.as_dict())
    assert report.counterexamples[0] == {"g": A, "lhs": v, "rhs": d8.mul(v, v)}


def test_correcting_ratio_heisenberg_trivial():
    g = heisenberg_mod(3)
    insts = [h for h in tr.transfer_instances(g) if h.index() == 3]
    report = check_correcting_ratio(g, insts[0], insts[1])
    assert report.passed
    cf1 = tr.correcting_function(g, insts[0])
    cf2 = tr.correcting_function(g, insts[1])
    assert cf1.values.tolist() == cf2.values.tolist() == [g.identity_id] * g.order


def test_correcting_ratio_index_mismatch():
    g = heisenberg_mod(3)
    insts = tr.transfer_instances(g)
    with pytest.raises(PreconditionFailed):
        check_correcting_ratio(g, insts[0], insts[1])


# -- classical identities ---------------------------------------------------------------


def test_identities_abelian_trivial():
    g = abelian_group([4, 2])
    for sub in g.all_subgroups():
        report = single_check(g, sub, "identities")
        assert report.passed


def test_identities_d8():
    d8 = dihedral(8)
    report = single_check(d8, rotations(d8), "identities")
    assert report.passed
    assert report.stats["conjugation_pass"]
    assert report.stats["image_pass"]
    assert report.stats["furtwangler_pass"]


def test_identities_nonabelian_subgroup():
    d16 = dihedral(16)
    sub = d16.subgroup_generated([4, 1])  # <a^2, b>: nonabelian dihedral copy
    assert not sub.is_abelian
    report = single_check(d16, sub, "identities")
    assert report.stats["conjugation_pass"]
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
    report = single_check(group, full, "identities")
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
        red = group.derived_classes(k_sub)
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
            lambda grp, s: np.full(16, a) if s.members == rot.members else original(grp, s),
        )
        report = single_check(group, group.full_subgroup(), "identities")
        furt = [c for c in report.counterexamples if c["identity"] == "furtwangler"]
        witnesses, passed = reference_furtwangler(group)
        assert len(witnesses) == tr.MAX_COUNTEREXAMPLES and not passed
        assert furt == witnesses
        assert report.stats["furtwangler_pass"] is False and not report.passed
        assert_plain_json(report.as_dict())
        monkeypatch.setattr(tr, "transfer_table", original)
        assert reference_furtwangler(group) == ([], True)


def test_image_statement_names_the_conjugator_of_a_moved_value(monkeypatch):
    d8 = dihedral(8)
    sub = rotations(d8)
    planted = tr.transfer_table(d8, sub).copy()
    planted[B] = A
    original = tr.transfer_table
    monkeypatch.setattr(
        tr,
        "transfer_table",
        lambda group, s: planted if s.members == sub.members else original(group, s),
    )
    report = single_check(d8, sub, "identities")
    assert not report.passed and not report.stats["image_pass"]
    assert_plain_json(report.as_dict())
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
    seen = {sub.members: (group.derived_classes(sub), base_values)}
    for g in group.elements():
        members = tuple(sorted(group.conjugate(g, h) for h in sub.members))
        if members not in seen:
            csub = Subgroup(group, members)
            seen[members] = (group.derived_classes(csub), tr.transfer_table(group, csub))
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
    report = single_check(group, sub, "identities")
    conj, conj_pass, image, image_pass = reference_conjugation_and_image(group, sub)
    by_identity = lambda name: [c for c in report.counterexamples if c["identity"] == name]
    assert by_identity("conjugation") == conj
    assert by_identity("image") == image
    assert report.stats["conjugation_pass"] == conj_pass
    assert report.stats["image_pass"] == image_pass
    furtwangler_pass = report.stats["furtwangler_pass"]
    assert report.passed == (conj_pass and image_pass is not False and furtwangler_pass)
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
    sub = subgroup(d16, [0, 1])  # <b>, not normal
    assert not d16.is_normal(sub)
    other = next(
        m for m in {tuple(sorted(d16.conjugate(g, h) for h in sub)) for g in d16.elements()}
        if m != sub.members
    )
    original = tr.transfer_table

    def planted(group, s):
        values = original(group, s).copy()
        if s.members == other:
            for g in range(3, 9):
                values[g] = other[0] if values[g] == other[1] else other[1]
        return values

    monkeypatch.setattr(tr, "transfer_table", planted)
    report = assert_matches_reference(d16, sub)
    conj = [c for c in report.counterexamples if c["identity"] == "conjugation"]
    assert len(conj) == 10 and not report.passed
    assert_plain_json(report.as_dict())


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
        lambda group, s: np.full(16, 2) if s.members == rot.members else original(group, s),
    )
    report = assert_matches_reference(d16, rot)
    image = [c for c in report.counterexamples if c["identity"] == "image"]
    assert len(image) == 10 and not report.stats["image_pass"]
    assert_plain_json(report.as_dict())


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


def coordinate_basis(group, sub):
    """The basis of G/H read from G^ab's coordinates, checked by loops
    against the quotient group: the invariant factors of
    decompose(G/H), each lift of order m_i modulo H, and every element
    rebuilt modulo H from its coordinates."""
    basis = abelian.coordinates(group).quotient_basis(sub.members, sub.index())
    quot, _ = group.quotient(sub)
    assert basis.factors == abelian.decompose(quot).factors
    for t, m in zip(basis.lifts, basis.factors):
        assert [k for k in range(1, m + 1) if group.pow(t, k) in sub] == [m]
    for g in group.elements():
        base = group.identity_id
        for t, a in zip(basis.lifts, basis.coords[g].tolist()):
            base = group.mul(base, group.pow(t, a))
        assert group.mul(group.inv(base), g) in sub
    return basis


def reference_correcting_function(group, sub):
    """correcting_function as per-element loops over pow, mul and sets, on
    the generators of the coordinate basis."""
    d = tr._power_rule_preconditions(group, sub)
    values = tr.transfer_table(group, sub)
    e = group.identity_id
    phi = tuple(group.mul(values[g], group.inv(group.pow(g, d))) for g in group.elements())
    z2 = central_involutions(group)
    for g, v in enumerate(phi):
        if v not in z2:
            raise IdentityFailed(f"phi({g})={v} is not a central involution")
    _, pos = group.coset_positions(tr.squares_times(group, group.commutator_subgroup()))
    by_coset = {}
    for g, v in enumerate(phi):
        if by_coset.setdefault(pos[g], v) != v:
            raise IdentityFailed(f"phi is not constant on the G^2[G,G]-coset of {g}")
    basis = coordinate_basis(group, sub)
    factors, lifts = basis.factors, basis.lifts
    quot, _ = group.quotient(sub)
    alpha_lift = quot.coset_reps[subgroup_product(quot, quot.elements())]
    for i, (m, t) in enumerate(zip(factors, lifts)):
        # alpha_i: every product of powers of the other lifts, multiplied in G
        others = [j for j in range(len(factors)) if j != i]
        alpha_i = e
        for exps in itertools.product(*(range(factors[j]) for j in others)):
            for j, a in zip(others, exps):
                alpha_i = group.mul(alpha_i, group.pow(lifts[j], a))
        if values[t] != group.mul(group.pow(t, d), group.commutator(group.pow(t, m), alpha_i)):
            raise IdentityFailed(f"generator formula fails at t_{i} (element {t})")
    for h in sub.members:
        if values[h] != group.mul(group.pow(h, d), group.commutator(h, alpha_lift)):
            raise IdentityFailed(f"subgroup formula fails at h={h}")
    for g in group.elements():
        tup = basis.coords[g].tolist()
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
    return tr.CorrectingFunction(np.array(phi), d)


def reference_transversal_check(group, sub, seed):
    """Transversal independence one trial at a time, each shifted
    transversal's products expanded by _product_loop."""
    base_t, _ = group.coset_positions(sub)
    reference = tr.transfer_table(group, sub).tolist()
    red = group.derived_classes(sub)
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
    """The odd-index power rule of transfer_checks with per-element pow and
    conjugate."""
    d = tr._power_rule_preconditions(group, sub)
    report = tr.CheckReport(
        "odd_index_transfer_power_rule",
        True,
        stats={"group": group.label, "index": d, "universe": group.order},
    )
    values = tr.transfer_table(group, sub).tolist()
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
    ratio = [
        group.mul(v2, group.inv(v1)) for v1, v2 in zip(cf1.values.tolist(), cf2.values.tolist())
    ]
    z2 = central_involutions(group)
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
    """The value, or the IdentityFailed message, of one call; a report as
    its dict and a correcting function as its values and index."""
    try:
        result = func(*args, **kwargs)
    except IdentityFailed as exc:
        return f"IdentityFailed: {exc}"
    if isinstance(result, tr.CorrectingFunction):
        return result.values.tolist(), result.index
    if isinstance(result, tr.CheckReport):
        assert_plain_json(result.as_dict())
        return result.as_dict()
    return result


ARRAY_CHECK_ZOO = ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "heis4", "prod:d8,c3", "ab:2,2,2", "ab:2,4")


def assert_array_checks_match_references(group):
    instances = tr.transfer_instances(group)
    odd_index = tr.transfer_checks(group, instances).odd_index
    for sub, odd in zip(instances, odd_index):
        assert outcome(tr.correcting_function, group, sub) == outcome(
            reference_correcting_function, group, sub
        )
        values = tr.correcting_function(group, sub).values
        assert values.dtype == np.int64 and not values.flags.writeable
        if sub.index() % 2 == 1:
            assert outcome(unwrap, odd) == outcome(reference_odd_index_transfer, group, sub)
        for other in instances:
            if other.index() == sub.index():
                assert outcome(check_correcting_ratio, group, sub, other) == outcome(
                    reference_correcting_ratio, group, sub, other
                )
    subs = group.all_subgroups()
    for seed in (0, 5):
        independence = tr.transfer_checks(group, subs, seed=seed).independence
        for sub, got in zip(subs, independence):
            assert outcome(unwrap, got) == outcome(reference_transversal_check, group, sub, seed)
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


MILLER_ZOO = (
    "d8", "q8", "d16", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "heis4", "prod:d8,c3",
    "ab:2,2,2,2", "ab:2,4", "ab:3,9", "ab:2,6",
)


def quotient_miller_lift(group, sub):
    """The product of all elements of G/H read from the quotient table,
    lifted to the minimal id of its coset."""
    quot, _ = group.quotient(sub)
    return quot.coset_reps.item(subgroup_product(quot, quot.elements()))


def assert_miller_lift_matches_the_quotient(group):
    subs = tr.coabelian_subgroups(group)
    assert subs
    for sub in subs:
        assert tr.miller_lift(group, sub) == quotient_miller_lift(group, sub)


@pytest.mark.parametrize("name", MILLER_ZOO)
def test_miller_lift_matches_the_quotient_product(name):
    """On every subgroup between [G,G] and G, the product of the coset
    representatives names the same coset as the Miller product of G/H."""
    assert_miller_lift_matches_the_quotient(from_name(name))


def test_miller_lift_survives_relabelling(relabel):
    group = from_name("prod:d8,c3")
    sigma = list(range(group.order))
    random.Random(7).shuffle(sigma)
    assert_miller_lift_matches_the_quotient(relabel(group, sigma))


def test_miller_lift_refuses_a_subgroup_without_the_commutators():
    d8 = dihedral(8)
    with pytest.raises(PreconditionFailed):
        tr.miller_lift(d8, subgroup(d8, [E, B]))


def planted_transfer_tables(monkeypatch, group, sub, plants):
    """Make tr.transfer_table return the true table of ``sub`` with the
    entries in ``plants`` (g -> value) replaced."""
    real = tr.transfer_table
    values = list(real(group, sub))
    for g, v in plants.items():
        values[g] = v
    values = np.array(values)
    values.flags.writeable = False
    monkeypatch.setattr(
        tr, "transfer_table", lambda grp, s: values if s == sub else real(grp, s)
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
                    assert outcome(single_check, group, sub, "odd_index") == outcome(
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
    report = single_check(g, sub, "independence", seed=11)
    assert not report.passed
    assert_plain_json(report.as_dict())
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
    report = single_check(g, sub, "odd_index")
    assert not report.passed
    assert_plain_json(report.as_dict())
    assert report.as_dict() == reference_odd_index_transfer(g, sub).as_dict()
    assert {c["g"] for c in report.counterexamples} >= {z, y}


def test_correcting_ratio_reports_planted_values_like_the_loop(monkeypatch):
    """Every single-entry plant of either of d8's two correcting functions,
    and the same entry of both moved off the centre: the array ratio
    check reports what the per-element loop reports."""
    d8 = dihedral(8)
    h_rot, h1 = rotations(d8), subgroup(d8, [E, B, A2, A2B])
    cf1, cf2 = tr.correcting_function(d8, h_rot), tr.correcting_function(d8, h1)
    plants = [(plant(cf1, g, v), cf2) for g in d8.elements() for v in d8.elements()]
    plants += [(cf1, plant(cf2, g, v)) for g in d8.elements() for v in d8.elements()]
    plants += [(plant(cf1, g, A), plant(cf2, g, B)) for g in d8.elements()]
    for planted1, planted2 in plants:
        monkeypatch.setattr(
            tr, "correcting_function", lambda group, s: planted1 if s is h_rot else planted2
        )
        got = check_correcting_ratio(d8, h_rot, h1).as_dict()
        assert got == reference_correcting_ratio(d8, h_rot, h1).as_dict()
        assert_plain_json(got)


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
    real_fold = tr._transfer_fold
    z = next(x for x in sub.members if x != g.identity_id)

    def wrong_for_trial_two(group, s, transversals):
        out = real_fold(group, s, transversals)
        for row, transversal in zip(out, np.asarray(transversals).tolist()):
            if group is g and tuple(transversal) == drawn[2]:
                row[7] = g.mul(row[7], z)
        return out

    monkeypatch.setattr(tr, "_transfer_fold", wrong_for_trial_two)
    report = single_check(g, sub, "independence", seed=11)
    assert not report.passed
    assert_plain_json(report.as_dict())
    assert [(c["trial"], c["g"]) for c in report.counterexamples] == [(2, 7)]


# -- G/H from the coordinates of G^ab, and blocks of equal-index instances ----------


BASIS_ZOO = ARRAY_CHECK_ZOO + ("ab:2,6,12", "ab:4,4", "ab:3,3,3", "prod:d8,d8")


def basis_zoo(relabel, name):
    """The named group and one seeded relabelling of it."""
    group = from_name(name)
    sigma = list(range(group.order))
    random.Random(f"{name}:basis").shuffle(sigma)
    return group, relabel(group, sigma)


@pytest.mark.parametrize("name", BASIS_ZOO)
def test_coordinate_basis_matches_the_quotient_group(relabel, name):
    """Every transfer instance: the basis read from G^ab's coordinates has
    the invariant factors of decompose(G/H), each lift has order m_i in
    G/H, and every element is rebuilt modulo H from its coordinates."""
    for group in basis_zoo(relabel, name):
        instances = tr.transfer_instances(group)
        assert instances
        for sub in instances:
            basis = coordinate_basis(group, sub)
            assert basis.coords.dtype == np.int64 and not basis.coords.flags.writeable
            assert basis.coords.shape == (group.order, len(basis.factors))


@settings(deadline=None, max_examples=15)
@given(st.lists(st.integers(min_value=2, max_value=12), min_size=1, max_size=4))
def test_coordinate_basis_of_every_subgroup_of_an_abelian_group(factors):
    """Random products of cyclic groups, so that Smith forms mix primes and
    exponents: the basis of G/H for every subgroup H passes the loops."""
    while math.prod(factors) > 96:
        factors = factors[:-1]
    group = abelian_group(factors)
    for sub in group.all_subgroups():
        coordinate_basis(group, sub)


def blocks_of_two(items, row_size):
    """``tr._blocks`` cut to two items per block."""
    for start in range(0, len(items), 2):
        yield items[start : start + 2]


def pass_with_correcting_functions(group, subs):
    """(checks, phis): one ``transfer_checks`` pass on ``subs``, and each
    instance's correcting function from the blocks of that pass, as
    ``outcome`` renders a single call, in the order of ``subs``."""
    found = {}
    real = tr._correcting_block

    def recording(grp, block, d, values, errors):
        results = real(grp, block, d, values, errors)
        found.update((sub.members, result) for sub, result in zip(block, results))
        return results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tr, "_correcting_block", recording)
        checks = tr.transfer_checks(group, subs)
    return checks, [outcome(unwrap, found[sub.members]) for sub in subs]


def block_outcomes(outcomes):
    """Each outcome of a block entry as ``outcome`` renders a single call."""
    return [outcome(unwrap, result) for result in outcomes]


@pytest.mark.parametrize("name", BASIS_ZOO)
@pytest.mark.parametrize("blocks", ("default", "pairs"))
def test_block_entries_match_one_instance_at_a_time(monkeypatch, relabel, name, blocks):
    """The correcting functions and cocycle reports of one transfer_checks
    pass give, for each instance, what correcting_function and the
    one-subgroup cocycle give alone, at the default block size and with
    blocks cut to two instances."""
    for group in basis_zoo(relabel, name):
        instances = tr.transfer_instances(group)
        singles = [outcome(tr.correcting_function, group, s) for s in instances]
        cocycles = [outcome(check_correcting_cocycle, group, s) for s in instances]
        with monkeypatch.context() as patch:
            if blocks == "pairs":
                patch.setattr(tr, "_blocks", blocks_of_two)
            checks, phis = pass_with_correcting_functions(group, instances)
        assert phis == singles
        assert block_outcomes(checks.cocycle) == cocycles


def equal_index_block(group):
    """The transfer instances of the index with the most of them."""
    instances = tr.transfer_instances(group)
    index = max({s.index() for s in instances}, key=lambda d: sum(s.index() == d for s in instances))
    return [s for s in instances if s.index() == index]


@pytest.mark.parametrize("name", ("d8", "ab:2,2,2", "heis4", "prod:d8,c3"))
def test_a_table_planted_in_one_instance_fails_only_that_instance(monkeypatch, name):
    """A transfer value planted in one instance of a block changes that
    instance's correcting function and cocycle report, to what it gives
    alone, and no other."""
    group = from_name(name)
    block = equal_index_block(group)
    assert len(block) > 2
    clean_checks, clean_phi = pass_with_correcting_functions(group, block)
    clean = block_outcomes(clean_checks.cocycle)
    for i in (0, len(block) // 2, len(block) - 1):
        sub = block[i]
        x = next(x for x in group.elements() if x != group.identity_id)
        wrong = next(h for h in sub.members if h != tr.transfer_table(group, sub)[x])
        with monkeypatch.context() as patch:
            planted_transfer_tables(patch, group, sub, {x: wrong})
            alone = outcome(check_correcting_cocycle, group, sub)
            alone_phi = outcome(tr.correcting_function, group, sub)
            checks, got_phi = pass_with_correcting_functions(group, block)
        got = block_outcomes(checks.cocycle)
        assert isinstance(alone, str) and alone != clean[i]
        assert got == clean[:i] + [alone] + clean[i + 1 :]
        assert got_phi == clean_phi[:i] + [alone_phi] + clean_phi[i + 1 :]


@pytest.mark.parametrize("name", ("d8", "ab:2,2,2", "heis4"))
def test_a_phi_planted_in_one_instance_fails_only_its_cocycle(monkeypatch, name):
    """One correcting function of a block with a value moved by a central
    involution: its cocycle report fails as it does alone, and the other
    reports are unchanged."""
    group = from_name(name)
    block = equal_index_block(group)
    clean = block_outcomes(tr.transfer_checks(group, block).cocycle)
    z = next(x for x in group.elements() if x != group.identity_id and group.central_involution_mask[x])
    real_block = tr._correcting_block
    for i in (0, len(block) - 1):
        cf = tr.correcting_function(group, block[i])
        planted = plant(cf, 1, group.mul(cf.values[1], z))

        def planting(grp, subs, d, values, errors):
            results = real_block(grp, subs, d, values, errors)
            return [planted if s is block[i] else r for s, r in zip(subs, results)]

        with monkeypatch.context() as patch:
            patch.setattr(tr, "_correcting_block", planting)
            got = block_outcomes(tr.transfer_checks(group, block).cocycle)
            patch.setattr(tr, "correcting_function", lambda grp, s: planted)
            alone = outcome(check_correcting_cocycle, group, block[i])
        assert alone != clean[i] and not alone["pass"]
        assert got == clean[:i] + [alone] + clean[i + 1 :]


# -- the block pass of transfer_checks ------------------------------------------------


def rendered(func, *args, **kwargs):
    """``outcome`` of one call, with any HrepError as its type and message."""
    try:
        return outcome(func, *args, **kwargs)
    except HrepError as exc:
        return f"{type(exc).__name__}: {exc}"


def block_check_outcomes(group, subs, seed):
    """Every outcome of one transfer_checks call, check by check, as
    ``rendered`` shows a call."""
    checks = tr.transfer_checks(group, subs, seed=seed)
    return {
        check: [rendered(unwrap, result) for result in outcomes]
        for check, outcomes in checks._asdict().items()
    }


def without_furtwangler(report):
    """A rendered identities report as it reads without Furtwangler's bound:
    its witnesses and stats dropped, and passed iff covariance and the
    image statement pass."""
    if not isinstance(report, dict):
        return report
    stats = {k: v for k, v in report["stats"].items() if not k.startswith("furtwangler")}
    witnesses = [c for c in report["counterexamples"] if c["identity"] != "furtwangler"]
    passed = stats["conjugation_pass"] and stats["image_pass"] is not False
    return {**report, "pass": passed, "counterexamples": witnesses, "stats": stats}


def alone_check_outcomes(group, subs, seed):
    """The same outcomes from transfer_checks on each subgroup alone, with
    Furtwangler's bound kept only in the first subgroup's identities, as
    one pass checks it."""
    alone = [block_check_outcomes(group, [sub], seed) for sub in subs]
    outcomes = {check: [single[check][0] for single in alone] for check in tr.TransferChecks._fields}
    outcomes["identities"][1:] = map(without_furtwangler, outcomes["identities"][1:])
    return outcomes


@pytest.mark.parametrize("name", BASIS_ZOO)
@pytest.mark.parametrize("blocks", ("default", "pairs", "one_subgroup_per_fold"))
def test_transfer_checks_match_one_instance_at_a_time(monkeypatch, relabel, name, blocks):
    """Each instance's four outcomes in the block pass are its outcomes
    alone, on each group and a relabelling, at the default block size,
    with blocks of two instances, and with every fold cut to one
    subgroup's transversals. The pass and the single calls run on twin
    groups, so neither reads the other's cached tables."""
    seed = 3
    for alone_group, block_group in zip(basis_zoo(relabel, name), basis_zoo(relabel, name)):
        want = alone_check_outcomes(alone_group, tr.transfer_instances(alone_group), seed)
        with monkeypatch.context() as patch:
            if blocks == "pairs":
                patch.setattr(tr, "_blocks", blocks_of_two)
            if blocks == "one_subgroup_per_fold":
                patch.setattr(tr, "BLOCK_BYTES", 1)
            got = block_check_outcomes(block_group, tr.transfer_instances(block_group), seed)
        assert got == want
        assert all(result is not None for result in got["cocycle"])


@pytest.mark.parametrize("name", ("d24", "d128"))
def test_the_pass_on_a_group_that_is_not_two_step_nilpotent_has_no_power_rule(monkeypatch, name):
    """On d24 and d128, where [G,[G,G]] is not trivial, the pass builds no
    correcting function, and the odd-index and cocycle outcomes are all
    None, so verify prints neither row; the other two checks still run."""
    group = from_name(name)
    assert not tr.is_two_step_nilpotent(group)
    calls = []
    real = tr._correcting_block
    monkeypatch.setattr(tr, "_correcting_block", lambda *args: calls.append(1) or real(*args))
    instances = tr.transfer_instances(group)
    checks = tr.transfer_checks(group, instances)
    assert instances and calls == []
    assert checks.odd_index == checks.cocycle == [None] * len(instances)
    for outcomes in (checks.identities, checks.independence):
        assert all(unwrap(result).passed for result in outcomes)


def noncentral_plant(group, sub, x):
    """A member of H other than T(x), off the centre where H allows it, so
    that covariance and the image statement fail with it when G is not
    abelian."""
    value = tr.transfer_table(group, sub)[x]
    others = [h for h in sub.members if h != value]
    return next((h for h in others if h not in group.center()), others[0])


@pytest.mark.parametrize("name", ("d8", "ab:2,2,2", "heis4", "prod:d8,c3", "ab:3,3,3"))
def test_a_table_planted_in_one_instance_of_the_pass_fails_only_that_instance(monkeypatch, name):
    """A transfer value planted in one instance of a block changes that
    instance's outcomes, the cocycle's among them, to what it gives alone,
    with the same first (trial, g) and (g, g') witnesses. No other instance
    changes, but for Furtwangler's bound on the first one, which reads
    every coabelian subgroup's table, the planted one included."""
    group = from_name(name)
    block = equal_index_block(group)
    assert len(block) > 2
    clean = block_check_outcomes(group, block, 0)
    x = next(x for x in group.elements() if x != group.identity_id)
    for i in (0, len(block) // 2, len(block) - 1):
        sub = block[i]
        with monkeypatch.context() as patch:
            planted_transfer_tables(patch, group, sub, {x: noncentral_plant(group, sub, x)})
            alone = alone_check_outcomes(group, block, 0)
            got = block_check_outcomes(group, block, 0)
        assert got == alone
        assert not got["independence"][i]["pass"]
        assert got["cocycle"][i] != clean["cocycle"][i]
        if not group.is_abelian:
            assert not got["identities"][i]["stats"]["conjugation_pass"]
        for check, outcomes in got.items():
            for j, (planted, unplanted) in enumerate(zip(outcomes, clean[check])):
                if j != i and (check, j) != ("identities", 0):
                    assert planted == unplanted


def wrong_in_trial(group, sub, trial, x, z):
    """A ``tr._transfer_fold`` that multiplies the value at x by z in the
    given trial of ``sub`` of ``group``: the fold lists each subgroup's
    canonical transversal and then its TRANSVERSAL_TRIALS shifted ones, in
    runs."""
    real_fold = tr._transfer_fold

    def fold(grp, subs, transversals):
        out = real_fold(grp, subs, transversals)
        owners = [subs] if isinstance(subs, Subgroup) else list(subs)
        run = len(out) // len(owners)
        if grp is group and run == tr.TRANSVERSAL_TRIALS + 1:
            for k, owner in enumerate(owners):
                if owner == sub:
                    row = k * run + 1 + trial
                    out[row, x] = group.mul(out[row, x], z)
        return out

    return fold


@pytest.mark.parametrize("name", ("ab:2,2,2", "heis4", "prod:d8,c3"))
def test_a_value_planted_in_one_trial_fails_only_that_instance(monkeypatch, name):
    """A fold made wrong in one trial of one instance of a block: that
    instance fails in that trial alone, as it does alone, and the others
    keep their outcomes."""
    group = from_name(name)
    block = equal_index_block(group)
    clean = block_check_outcomes(group, block, 0)["independence"]
    x = next(x for x in group.elements() if x != group.identity_id)
    for i in (0, len(block) - 1):
        z = next(h for h in block[i].members if h != group.identity_id)
        for trial in (0, tr.TRANSVERSAL_TRIALS - 1):
            with monkeypatch.context() as patch:
                patch.setattr(tr, "_transfer_fold", wrong_in_trial(group, block[i], trial, x, z))
                got = block_check_outcomes(group, block, 0)["independence"]
                alone = rendered(single_check, group, block[i], "independence")
            assert [(c["trial"], c["g"]) for c in alone["counterexamples"]] == [(trial, x)]
            assert got == clean[:i] + [alone] + clean[i + 1 :]


def fold_runs(subs, transversals):
    """(owners, run) of one ``tr._transfer_fold`` call: its subgroups as a
    list, and the number of consecutive rows each owns."""
    owners = [subs] if isinstance(subs, Subgroup) else list(subs)
    return owners, len(transversals) // len(owners)


@pytest.mark.parametrize("name", ("d8", "heis4", "cp:d8,q8", "ab:2,2,2"))
def test_verify_folds_each_canonical_transversal_once(monkeypatch, name):
    """In-process verify: every fold opens each run with its subgroup's
    canonical transversal, no group folds that of one subgroup twice, and
    Gallagher's route folds none of the verified group's transfer
    instances, whose checked tables the block pass has cached."""
    canonical = Counter()
    # every folded group stays alive, so that no two share an id()
    groups = []
    in_gallagher = []
    from_gallagher = []
    real_fold, real_checks = tr._transfer_fold, tr.transfer_checks
    real_gallagher = idet.gallagher_table

    def counting_fold(group, subs, transversals):
        owners, run = fold_runs(subs, transversals)
        for k, sub in enumerate(owners):
            row = np.asarray(transversals)[k * run]
            assert row.tolist() == group.coset_positions(sub)[0].tolist()
            canonical[id(group), sub.members] += 1
            groups.append(group)
            if in_gallagher:
                from_gallagher.append((group, sub))
        return real_fold(group, subs, transversals)

    def gallagher(*args):
        in_gallagher.append(1)
        try:
            return real_gallagher(*args)
        finally:
            in_gallagher.pop()

    verified = []

    def checks(group, subs, **kwargs):
        verified.append((group, list(subs)))
        return real_checks(group, subs, **kwargs)

    monkeypatch.setattr(tr, "_transfer_fold", counting_fold)
    monkeypatch.setattr(idet, "gallagher_table", gallagher)
    monkeypatch.setattr(tr, "transfer_checks", checks)
    report, code = cli.cmd_verify(cli.RunConfig("verify", builtin=name))
    assert code == cli.EXIT_OK and report["all_pass"]
    ((group, instances),) = verified
    assert instances and all(canonical[id(group), sub.members] == 1 for sub in instances)
    assert max(canonical.values()) == 1
    assert not [sub for grp, sub in from_gallagher if grp is group and sub in instances]


@pytest.mark.parametrize("name", ("d16", "heis3", "ab:2,2,2"))
@pytest.mark.parametrize("seed", (0, 5))
def test_the_pass_folds_only_transversals(monkeypatch, name, seed):
    """Every row that transfer_checks folds, the canonical transversal and
    each shifted trial of every instance, holds one representative of each
    coset of its subgroup, as the validation of the reference's
    ``transfer_values_with_transversal`` requires."""
    group = from_name(name)
    instances = tr.transfer_instances(group)
    validated = []
    real_fold = tr._transfer_fold

    def validating(grp, subs, transversals):
        owners, _ = fold_runs(subs, transversals)
        validated.extend(owners[i] for i in transversal_owners(grp, owners, transversals))
        return real_fold(grp, subs, transversals)

    monkeypatch.setattr(tr, "_transfer_fold", validating)
    checks = tr.transfer_checks(group, instances, seed=seed)
    assert all(unwrap(report).passed for report in checks.independence)
    # the rest are canonical tables that Furtwangler's bound reads
    counts = Counter(sub.members for sub in validated)
    assert all(counts.pop(sub.members) == tr.TRANSVERSAL_TRIALS + 1 for sub in instances)
    assert set(counts.values()) <= {1}


@pytest.mark.parametrize("name", ("ab:2,2,2", "heis4"))
def test_a_canonical_fold_that_is_no_homomorphism_is_refused_and_not_kept(monkeypatch, name):
    """A fold made wrong at one element of one instance's canonical
    transversal: the pass keeps no table for it, each of its outcomes is
    the IdentityFailed of its table, and so is the first instance's
    identities report, whose Furtwangler bound reads every coabelian
    table; the other outcomes are those of a twin group. transfer_table
    raises on it, and keeps nothing, until the fold is right again."""
    twin = from_name(name)
    want = block_check_outcomes(twin, equal_index_block(twin), 0)
    group = from_name(name)
    block = equal_index_block(group)
    i = len(block) // 2
    x = next(x for x in group.elements() if x != group.identity_id)
    z = next(h for h in block[i].members if h != group.identity_id)
    real_fold = tr._transfer_fold

    def wrong_canonical(grp, subs, transversals):
        out = real_fold(grp, subs, transversals)
        owners, run = fold_runs(subs, transversals)
        for k, owner in enumerate(owners):
            if grp is group and owner == block[i]:
                out[k * run, x] = group.mul(out[k * run, x], z)
        return out

    failed = "IdentityFailed: transfer values do not form a homomorphism"
    for outcomes in want.values():
        if outcomes[i] is not None:
            outcomes[i] = failed
    want["identities"][0] = failed
    with monkeypatch.context() as patch:
        patch.setattr(tr, "_transfer_fold", wrong_canonical)
        assert block_check_outcomes(group, block, 0) == want
        assert block[i].members not in group._transfer_table_cache
        with pytest.raises(IdentityFailed, match="^transfer values do not form a homomorphism$"):
            tr.transfer_table(group, block[i])
        assert block[i].members not in group._transfer_table_cache
    assert tr.transfer_table(group, block[i]).tolist() == tr.transfer_table(twin, block[i]).tolist()


def test_the_covariance_certificate_reads_every_generator(monkeypatch):
    """A transfer value planted to be fixed by conjugation by every
    generator but the last, and moved by the last: covariance fails with
    the pairwise loop's witnesses, so a certificate that dropped a
    generator of S would pass it."""
    group = dihedral(8)
    gens = group.generators.tolist()
    sub, v = next(
        (sub, v)
        for sub in tr.transfer_instances(group)
        for v in sub.members
        if all(group.conjugate(s, v) == v for s in gens[:-1]) and group.conjugate(gens[-1], v) != v
    )
    x = next(x for x in group.elements() if tr.transfer_table(group, sub)[x] != v)
    planted_transfer_tables(monkeypatch, group, sub, {x: v})
    report = assert_matches_reference(group, sub)
    assert report.stats["conjugation_pass"] is False
    assert [c for c in report.counterexamples if c["identity"] == "conjugation"]


def plant_basis(monkeypatch, basis):
    """Make every quotient basis read from G^ab's coordinates ``basis``."""
    monkeypatch.setattr(abelian.AbelianCoordinates, "quotient_basis", lambda self, m, d: basis)


def test_a_non_split_basis_fails_the_lift_order_check(monkeypatch):
    """On Z/4 with H trivial, factors (2, 2) with lifts 1 and 2 reach every
    element exactly once and satisfy every transfer formula, but the lift
    1 has order 4, so the basis is not a direct decomposition of G/H."""
    c4 = cyclic(4)
    trivial = c4.subgroup_generated([])
    coords = np.array([[g % 2, g // 2] for g in c4.elements()])
    plant_basis(monkeypatch, abelian.QuotientBasis((2, 2), (1, 2), coords))
    with pytest.raises(IdentityFailed, match=r"^t_0 \(element 1\) to the power 2 is not in H$"):
        tr.correcting_function(c4, trivial)
    (result,) = tr.transfer_checks(c4, [trivial]).cocycle
    assert isinstance(result, IdentityFailed)


def test_a_basis_of_the_wrong_order_fails_the_index_check(monkeypatch):
    c4 = cyclic(4)
    trivial = c4.subgroup_generated([])
    coords = np.array([[g % 2] for g in c4.elements()])
    plant_basis(monkeypatch, abelian.QuotientBasis((2,), (1,), coords))
    with pytest.raises(IdentityFailed, match=r"^G/H has invariant factors \[2\], whose product is not 4$"):
        tr.correcting_function(c4, trivial)
