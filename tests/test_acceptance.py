"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every assertion is exact (QmodZ equality, element-id
equality); no tolerances appear anywhere.
"""

import time
from functools import cache

from hrep import char_theory as ct, heisenberg as hb, induced_det as idet
from hrep import transfer as tr
from hrep.char_theory import QmodZ
from hrep.errors import unwrap
from hrep.group_core import (
    central_product,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3_exp_p2,
    heisenberg_mod,
    quaternion8,
)
from reference import HALF, ZERO, det_formula, scale, x_value

E, B, A, AB, A2, A2B, A3, A3B = range(8)


def exps(table, group):
    """A residue table mod N as the exponents a report prints."""
    n = ct.residue_modulus(group)
    return [QmodZ(int(r), n) for r in table]


@cache
def small_zoo():
    """Cyclic, dihedral, and quaternion groups up to order 64."""
    groups = [cyclic(n) for n in range(1, 65)]
    groups += [dihedral(n) for n in range(2, 65, 2)]
    groups.append(quaternion8())
    return groups


@cache
def structured_zoo():
    """The nonabelian families: Heisenberg, order-p^3, central and direct
    products up to order 128."""
    return [
        heisenberg_mod(2),
        heisenberg_mod(3),
        heisenberg_mod(4),
        heisenberg_mod(5),
        extraspecial_p3_exp_p2(3),
        extraspecial_p3_exp_p2(5),
        heisenberg_mod(7),
        extraspecial_p3_exp_p2(7),
        central_product(dihedral(8), dihedral(8)),
        central_product(dihedral(8), quaternion8()),
        direct_product(dihedral(8), cyclic(2)),
        direct_product(quaternion8(), cyclic(3)),
        direct_product(dihedral(8), dihedral(8)),
        direct_product(quaternion8(), quaternion8()),
        direct_product(heisenberg_mod(3), cyclic(2)),
        direct_product(heisenberg_mod(3), cyclic(3)),
        direct_product(heisenberg_mod(3), cyclic(4)),
        direct_product(quaternion8(), cyclic(16)),
        direct_product(cyclic(4), cyclic(6)),
    ]


@cache
def full_zoo():
    return small_zoo() + structured_zoo()


@cache
def core_pairs():
    """All Heisenberg pairs of the moderate-size nonabelian zoo."""
    groups = [
        dihedral(8),
        quaternion8(),
        dihedral(16),
        heisenberg_mod(2),
        heisenberg_mod(3),
        heisenberg_mod(4),
        extraspecial_p3_exp_p2(3),
        central_product(dihedral(8), dihedral(8)),
        central_product(dihedral(8), quaternion8()),
    ]
    return [(g, hb.enumerate_pairs(g)) for g in groups]


def report_line(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.monotonic() - started:.2f}s]")


# -- criterion 1: the dihedral order-8 worked example ---------------------------------


def test_acceptance_01_dihedral8_example():
    started = time.monotonic()
    d8 = dihedral(8)
    pairs = [p for p in hb.enumerate_pairs(d8) if p.dim == 2]
    assert len(pairs) == 1
    pair = pairs[0]

    # the three maximal isotropics, by exact element ids
    got = {h.members for h in hb.all_maximal_isotropics(pair)}
    assert got == {
        (E, B, A2, A2B),
        (E, AB, A2, A3B),
        (E, A, A2, A3),
    }

    # det(g) = chi(g^2) on Z and -chi(g^2) off Z, on every route
    sub = pair.maximal_isotropics[0]
    chi_h = ct.extend_character(d8, pair.chi, sub)
    direct = exps(idet.direct_table(pair, sub, chi_h.residues), d8)
    gallagher = exps(idet.gallagher_table(pair, sub, chi_h.residues), d8)
    for g in d8.elements():
        expected = pair.chi(d8.pow(g, 2))
        if g not in pair.Z:
            expected = expected + HALF
        assert direct[g] == expected
        assert gallagher[g] == expected
        assert det_formula(pair, g)[0] == expected

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report_line(1, "dihedral-8 worked example", started)


# -- criterion 2: three-route oracle equivalence over the full zoo ----------------------


def test_acceptance_02_oracle_equivalence_full_zoo():
    started = time.monotonic()
    checked_pairs = 0
    for group in full_zoo():
        for pair in hb.enumerate_pairs(group, max_order=512):
            report = idet.oracle_equivalence_report(pair)
            assert report.passed, (group.label, report.counterexamples[:3])
            checked_pairs += 1
    elapsed = time.monotonic() - started
    assert checked_pairs > 900
    assert elapsed < 60.0
    report_line(2, f"oracle equivalence, {checked_pairs} pairs", started)


# -- criterion 3: odd-index transfer power rule at scale --------------------------------


def test_acceptance_03_odd_index_power_rule():
    started = time.monotonic()
    instances = 0
    for group in full_zoo():
        if not tr.is_two_step_nilpotent(group):
            continue
        odd = [sub for sub in tr.transfer_instances(group) if sub.index() % 2]
        for outcome in tr.transfer_checks(group, odd).odd_index:
            report = unwrap(outcome)
            assert report.passed, (group.label, report.counterexamples[:3])
            instances += 1
    elapsed = time.monotonic() - started
    assert instances > 100
    assert elapsed < 10.0
    report_line(3, f"odd-index power rule, {instances} instances", started)


# -- criterion 4: correcting-function generator formulas --------------------------------


def test_acceptance_04_correcting_function_formulas():
    started = time.monotonic()
    z2_checked = 0
    for group in full_zoo():
        if not tr.is_two_step_nilpotent(group):
            continue
        for sub in tr.transfer_instances(group):
            # construction verifies the generator formulas, the unique
            # decomposition, and coset constancy; re-verify the value
            # constraints here independently
            cf = tr.correcting_function(group, sub)
            center = set(group.center().members)
            for g in group.elements():
                v = cf.values[g]
                assert v in center
                assert group.mul(v, v) == group.identity_id
            squares = tr.squares_times(group, group.commutator_subgroup())
            _, pos = group.coset_positions(squares)
            seen = {}
            for g in group.elements():
                assert seen.setdefault(pos[g], cf.values[g]) == cf.values[g]
            z2_checked += 1
    elapsed = time.monotonic() - started
    assert z2_checked > 100
    assert elapsed < 10.0
    report_line(4, f"correcting-function formulas, {z2_checked} instances", started)


# -- criterion 5: the sign character's case split ----------------------------------------


def assert_matches_gallagher(pair, sub, chi_h, table):
    """eps(g) = det(g) - chi(g^d), with det from Gallagher's route."""
    gallagher = exps(idet.gallagher_table(pair, sub, chi_h.residues), pair.group)
    eps = exps(table, pair.group)
    for g in pair.group.elements():
        assert eps[g] == gallagher[g] - pair.chi(pair.group.pow(g, pair.dim))


def test_acceptance_05_epsilon_case_split():
    started = time.monotonic()

    # trivial sign: odd dimension
    odd_cases = [(heisenberg_mod(3), 3), (heisenberg_mod(5), 5), (extraspecial_p3_exp_p2(3), 3)]
    for group, dim in odd_cases:
        for pair in (p for p in hb.enumerate_pairs(group, max_order=512) if p.dim == dim):
            reduced, _ = hb.quotient_by_kernel(pair)
            sub = reduced.maximal_isotropics[0]
            chi_h = ct.extend_character(reduced.group, reduced.chi, sub)
            table = idet.epsilon_table(reduced, sub)
            assert all(v == ZERO for v in exps(table, reduced.group))
            assert_matches_gallagher(reduced, sub, chi_h, table)

    # trivial sign: two-rank at least 4 (order-32 central products)
    for factors in ((dihedral(8), dihedral(8)), (dihedral(8), quaternion8())):
        cp = central_product(*factors)
        pair = [p for p in hb.enumerate_pairs(cp) if p.dim == 4][0]
        assert pair.two_rank == 4
        sub = pair.maximal_isotropics[0]
        chi_h = ct.extend_character(cp, pair.chi, sub)
        table = idet.epsilon_table(pair, sub)
        assert all(v == ZERO for v in exps(table, cp))
        assert_matches_gallagher(pair, sub, chi_h, table)

    # the + - - - pattern: two-rank exactly 2
    rk2_cases = [dihedral(8), quaternion8(), heisenberg_mod(2), heisenberg_mod(4)]
    patterns = 0
    for group in rk2_cases:
        for pair in hb.enumerate_pairs(group):
            reduced, _ = hb.quotient_by_kernel(pair)
            if reduced.two_rank != 2:
                continue
            g2z = reduced.squares_times_z
            grp = reduced.group
            assert grp.order == 4 * len(g2z)  # Klein quotient
            sub = reduced.maximal_isotropics[0]
            chi_h = ct.extend_character(grp, reduced.chi, sub)
            table = idet.epsilon_table(reduced, sub)
            assert_matches_gallagher(reduced, sub, chi_h, table)
            eps = exps(table, grp)
            for g in grp.elements():
                assert eps[g] == (ZERO if g in g2z else HALF)
            patterns += 1
    assert patterns >= 4
    report_line(5, f"epsilon case split, {patterns} sign patterns", started)


# -- criterion 6: the order-p^3 dichotomy -------------------------------------------------


def test_acceptance_06_p3_dichotomy():
    started = time.monotonic()
    for p in (3, 5, 7):
        report = idet.p3_classification(p)
        by_kind = {row["kind"]: row for row in report["rows"]}
        assert by_kind["exponent_p"]["power_subgroup"] == [0]
        assert by_kind["exponent_p"]["det_trivial"] is True
        assert (
            by_kind["exponent_p2"]["power_subgroup"] == by_kind["exponent_p2"]["center"]
        )
        assert by_kind["exponent_p2"]["det_trivial"] is False
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report_line(6, "order-p^3 dichotomy for p=3,5,7", started)


# -- criterion 7: Furtwangler's bound ------------------------------------------------------


def test_acceptance_07_furtwangler():
    started = time.monotonic()
    checked = 0
    for group in full_zoo():
        if group.order > 64:
            continue
        derived_order = len(group.commutator_subgroup())
        for k_sub in tr.coabelian_subgroups(group):
            exponent = len(k_sub) // derived_order
            values = tr.transfer_table(group, k_sub)
            # the identity class of K/[K,K]
            k_derived = group.subgroup_generated(
                {group.commutator(x, y) for x in k_sub.members for y in k_sub.members}
            )
            for g in group.elements():
                assert group.pow(values[g], exponent) in k_derived
            checked += 1
    assert checked > 300
    report_line(7, f"furtwangler bound, {checked} subgroups", started)


# -- criterion 8: property suites -----------------------------------------------------------


def test_acceptance_08a_transversal_independence():
    started = time.monotonic()
    instances = 0
    for group in full_zoo():
        if group.order > 64 or group.is_abelian:
            continue
        checks = tr.transfer_checks(group, tr.transfer_instances(group), seed=2024)
        for outcome in checks.independence:
            report = unwrap(outcome)
            assert report.passed, (group.label, report.counterexamples[:3])
            instances += 1
    for group in (cyclic(12), cyclic(64), direct_product(cyclic(4), cyclic(6))):
        for outcome in tr.transfer_checks(group, group.all_subgroups(), seed=2024).independence:
            assert unwrap(outcome).passed
            instances += 1
    assert instances > 50
    report_line("8a", f"transversal independence, {instances} instances", started)


def test_acceptance_08b_sign_defect_identity():
    started = time.monotonic()
    checked = 0
    for group, pairs in core_pairs():
        for pair in pairs:
            reduced, _ = hb.quotient_by_kernel(pair)
            if reduced.dim % 2 == 1:
                continue
            grp = reduced.group
            sub = reduced.maximal_isotropics[0]
            chi_h = ct.extend_character(grp, reduced.chi, sub)
            table = idet.epsilon_table(reduced, sub)
            assert_matches_gallagher(reduced, sub, chi_h, table)
            half_d = reduced.dim // 2
            eps = exps(table, grp)
            for g1 in grp.elements():
                for g2 in grp.elements():
                    defect = eps[g1] + eps[g2] - eps[grp.mul(g1, g2)]
                    assert defect == scale(x_value(reduced, g1, g2), half_d)
            checked += 1
    assert checked >= 10
    report_line("8b", f"sign defect identity, {checked} pairs", started)


def test_acceptance_08c_twist_identity():
    started = time.monotonic()
    twists = 0
    for group, pairs in core_pairs():
        omegas = ct.linear_characters(group)
        for pair in pairs:
            assert idet.twist_identity(pair, omegas).passed
            twists += len(omegas)
    assert twists > 200
    report_line("8c", f"twist identity, {twists} twists", started)


def test_acceptance_08d_isotropic_coverage():
    started = time.monotonic()
    covered = 0
    extra = [(heisenberg_mod(5), None), (heisenberg_mod(7), 7)]
    instance_sets = list(core_pairs()) + [
        (g, [p for p in hb.enumerate_pairs(g, max_order=512) if dim is None or p.dim == dim][:1])
        for g, dim in extra
    ]
    for group, pairs in instance_sets:
        for pair in pairs:
            isotropics = hb.all_maximal_isotropics(pair)
            for g in group.elements():
                assert any(g in h for h in isotropics)
                covered += 1
    assert covered > 1000
    d8_isotropics = hb.all_maximal_isotropics(
        [p for p in hb.enumerate_pairs(dihedral(8)) if p.dim == 2][0]
    )
    assert [h.members for h in d8_isotropics if A in h] == [(E, A, A2, A3)]
    assert [h.members for h in d8_isotropics if B in h] == [(E, B, A2, A2B)]
    report_line("8d", f"isotropic coverage, {covered} placements", started)


def test_acceptance_08e_isotropic_independence_of_determinant():
    started = time.monotonic()
    for group, pairs in core_pairs():
        for pair in pairs:
            reduced, _ = hb.quotient_by_kernel(pair)
            report = idet.isotropic_independence(reduced)
            assert report.passed, (group.label, report.counterexamples[:3])
    report_line("8e", "determinant independent of the isotropic", started)
