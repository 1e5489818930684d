"""Monomial matrices, the three determinant routes, sign tables, twisting,
and the order-p^3 dichotomy."""

import dataclasses
import functools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from conftest import assert_plain_json, character
from hypothesis import given, settings
from hypothesis import strategies as st

from hrep import abelian, char_theory as ct, cli, heisenberg as hb, induced_det as idet, transfer as tr
from hrep.char_theory import QmodZ, extend_character, extend_character_all
from hrep.errors import (
    IdentityFailed,
    InvalidPrime,
    KernelNotReduced,
    NotACharacter,
    NotAnExtension,
)
from hrep.group_core import (
    FiniteGroup,
    central_product,
    cyclic,
    dihedral,
    extraspecial_p3_exp_p2,
    from_name,
    heisenberg_mod,
    quaternion8,
)
from hrep.transfer import CorrectingFunction
import reference
from reference import (
    HALF,
    ZERO,
    DimMismatch,
    MonomialMatrix,
    check_homomorphism,
    det_formula,
    induced_matrices,
    is_zero,
    monomial_det,
    monomial_mul,
    multiply,
    restrict,
    subgroup,
    trivial_character,
    x_value,
)

E, B, A, AB, A2, A2B, A3, A3B = range(8)


def pair_of(group, dim):
    return [p for p in hb.enumerate_pairs(group, max_order=512) if p.dim == dim][0]


def exps(table, group):
    """A residue table mod N as the exponents a report prints."""
    n = ct.residue_modulus(group)
    return [QmodZ(int(r), n) for r in table]


def default_setup(group, dim):
    pair = pair_of(group, dim)
    sub = pair.maximal_isotropics[0]
    chi_h = extend_character(group, pair.chi, sub)
    return pair, sub, chi_h


# -- monomial matrices ------------------------------------------------------------


def test_identity_determinant():
    assert monomial_det(MonomialMatrix.identity(3)) == ZERO


def test_swap_determinant_is_minus_one():
    swap = MonomialMatrix(2, (1, 0), (ZERO, ZERO))
    assert monomial_det(swap) == HALF


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        monomial_mul(MonomialMatrix.identity(2), MonomialMatrix.identity(3))
    with pytest.raises(DimMismatch):
        MonomialMatrix(2, (0, 0), (ZERO, ZERO))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_det_is_multiplicative_on_random_monomials(seed, dim):
    rng = random.Random(seed)

    def random_monomial():
        perm = list(range(dim))
        rng.shuffle(perm)
        exps = tuple(QmodZ(rng.randrange(12), rng.randrange(1, 13)) for _ in range(dim))
        return MonomialMatrix(dim, tuple(perm), exps)

    a, b = random_monomial(), random_monomial()
    assert monomial_det(monomial_mul(a, b)) == monomial_det(a) + monomial_det(b)


def test_permutation_sign_against_inversion_count():
    import itertools

    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if perm[i] > perm[j]
        )
        expected = HALF if inversions % 2 else ZERO
        m = MonomialMatrix(4, perm, tuple(ZERO for _ in range(4)))
        assert monomial_det(m) == expected


# -- induced matrices ---------------------------------------------------------------


def test_identity_element_induces_identity_matrix():
    pair, sub, chi_h = default_setup(dihedral(8), 2)
    m = induced_matrices(pair, sub, chi_h)[E]
    assert m == MonomialMatrix.identity(2)


def test_scalar_subgroup_acts_by_scalars():
    for group, dim in ((dihedral(8), 2), (heisenberg_mod(3), 3)):
        pair, sub, chi_h = default_setup(group, dim)
        matrices = induced_matrices(pair, sub, chi_h)
        for z in pair.Z.members:
            m = matrices[z]
            assert m.perm == tuple(range(dim))
            assert set(m.exps) == {pair.chi(z)}


def test_d8_reflection_is_antidiagonal():
    pair = pair_of(dihedral(8), 2)
    sub = [h for h in pair.maximal_isotropics if h.members == (E, A, A2, A3)][0]
    chi_h = extend_character(pair.group, pair.chi, sub)
    assert chi_h(A) == QmodZ(1, 4)
    m = induced_matrices(pair, sub, chi_h)[B]
    assert m.perm == (1, 0)


SKELETON_ZOO = ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,2,2")


@pytest.mark.parametrize("name", SKELETON_ZOO)
def test_skeleton_matches_induced_matrix_from_definition(name):
    """Definitional oracle: g t_j lands in the coset of t_i, with factor
    t_i^-1 g t_j, expanded with group.mul for every pair, maximal
    isotropic and element."""
    group = from_name(name)
    for pair in hb.enumerate_pairs(group):
        for sub in pair.maximal_isotropics:
            skeleton = group.coset_skeleton(sub)
            for array in (skeleton.perm, skeleton.factors, skeleton.odd):
                assert not array.flags.writeable
            transversal = list(group.coset_positions(sub)[0])
            assert list(skeleton.transversal) == transversal
            coset_of = {group.mul(t, h): i for i, t in enumerate(transversal) for h in sub}
            chi_h = extend_character(group, pair.chi, sub)
            matrices = induced_matrices(pair, sub, chi_h)
            assert len(matrices) == group.order
            for g in group.elements():
                perm, factors = [], []
                for t in transversal:
                    x = group.mul(g, t)
                    perm.append(coset_of[x])
                    factors.append(group.mul(group.inv(transversal[coset_of[x]]), x))
                assert skeleton.perm[g].tolist() == perm
                assert skeleton.factors[g].tolist() == factors
                inversions = sum(
                    perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
                )
                assert bool(skeleton.odd[g]) == (inversions % 2 == 1)
                expected = MonomialMatrix(
                    len(perm), tuple(perm), tuple(chi_h(f) for f in factors)
                )
                assert matrices[g] == expected


def reference_routes(pair, sub, chi_h):
    """The direct route as monomial_det of every induced matrix, and
    Gallagher's as the coset permutation's sign (by inversion count) plus
    chi_H of the raw transfer product, both in QmodZ."""
    matrices = induced_matrices(pair, sub, chi_h)
    transfers = pair.group.transfer_products(sub)
    direct = [monomial_det(m) for m in matrices]
    gallagher = []
    for m, t in zip(matrices, transfers):
        inversions = sum(m.perm[i] > m.perm[j] for i in range(m.dim) for j in range(i + 1, m.dim))
        gallagher.append((HALF if inversions % 2 else ZERO) + chi_h(t))
    return direct, gallagher


def assert_residue_routes_match_references(group):
    tables = 0
    for pair in hb.enumerate_pairs(group):
        for sub in pair.maximal_isotropics:
            family = extend_character_all(group, pair.chi, sub)
            direct_rows = idet.direct_table(pair, sub, family)
            gallagher_rows = idet.gallagher_table(pair, sub, family)
            for row, got_direct, got_gallagher in zip(family, direct_rows, gallagher_rows):
                direct, gallagher = reference_routes(pair, sub, ct.LinearCharacter(sub, row))
                assert exps(got_direct, group) == direct
                assert exps(got_gallagher, group) == gallagher
                tables += 1
    assert tables


GOLDEN_ZOO = ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "ab:2,2,2,2", "d16", "d128")


@pytest.mark.parametrize("name", GOLDEN_ZOO)
def test_residue_routes_match_matrices_and_transfer(name):
    """On every pair, maximal isotropic and extension of the golden zoo,
    the residue gathers equal the determinants of the induced matrices
    and Delta_H + chi_H(T)."""
    assert_residue_routes_match_references(from_name(name))


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_residue_routes_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_residue_routes_match_references(relabel(group, sigma))


def test_verify_checks_each_object_once(monkeypatch, capsys):
    """Work-count regression: one extension check per residue-table call,
    no monomial matrix built, one kernel reduction, one sign table and one
    reduced Gallagher table per pair, one extension check per twist
    identity (its untwisted table), one cheap twist per omega (no
    extension check, no validate_pair, and each omega's multiplicativity
    checked once in the whole run), one skeleton per (G, H), no quotient
    group in isotropic independence, one subgroup lattice of G^ab, and one
    homomorphism-checked transfer table per (G, H). The oracle and the
    independence check each take every extension to a maximal isotropic
    H from one extend_character_all call, and the oracle's routes take
    that family in one table call per H."""
    families = [0]
    real_extend_all = idet.extend_character_all

    def counting_extend_all(*args):
        families[0] += 1
        return real_extend_all(*args)

    extension_checks = [0]
    real_require = idet._require_extension

    def counting_require(*args):
        extension_checks[0] += 1
        return real_require(*args)

    reductions = []
    real_reduce = hb.quotient_by_kernel

    def counting_reduce(pair):
        reductions.append(pair)
        return real_reduce(pair)

    epsilon_tables = [0]
    real_epsilon = idet.epsilon_table

    def counting_epsilon(*args):
        epsilon_tables[0] += 1
        return real_epsilon(*args)

    def counting(real, log):
        def wrapper(*args):
            before = extension_checks[0]
            result = real(*args)
            log.append(extension_checks[0] - before)
            return result

        return wrapper

    quotients = [0]
    real_quotient = FiniteGroup.quotient

    def counting_quotient(*args, **kwargs):
        quotients[0] += 1
        return real_quotient(*args, **kwargs)

    quotients_per_independence = []

    def counting_independence(pair):
        isotropics = pair.maximal_isotropics
        before = quotients[0]
        result = idet.isotropic_independence(pair)
        quotients_per_independence.append((quotients[0] - before, len(isotropics)))
        return result

    # each multiplicativity check of a character of all of G, whether the
    # generator certificate settles it or the full scan runs
    multiplicativity_runs = [0]
    real_whole_group_witness = ct.whole_group_witness

    def counting_whole_group_witness(*args):
        multiplicativity_runs[0] += 1
        return real_whole_group_witness(*args)

    validations = [0]
    real_validate = hb.validate_pair

    def counting_validate(*args):
        validations[0] += 1
        return real_validate(*args)

    work_per_twist = []
    real_twist = idet.twist

    def counting_twist(*args):
        before = (extension_checks[0], validations[0], multiplicativity_runs[0])
        result = real_twist(*args)
        after = (extension_checks[0], validations[0], multiplicativity_runs[0])
        work_per_twist.append(tuple(b - a for a, b in zip(before, after)))
        return result

    checks_per_identity = []
    checks_per_table = {"direct_table": [], "gallagher_table": []}
    matrix_builds = []

    skeleton_builds = Counter()
    real_build = FiniteGroup._build_skeleton

    def counting_build(group, sub):
        skeleton_builds[(group, sub.members)] += 1
        return real_build(group, sub)

    loaded = []
    real_load = cli.load_group

    def recording_load(config):
        loaded.append(real_load(config))
        return loaded[-1]

    listed = []
    real_all_subgroups = FiniteGroup.all_subgroups

    def recording_all_subgroups(group, *args, **kwargs):
        listed.append(group)
        return real_all_subgroups(group, *args, **kwargs)

    transfer_checks = Counter()
    real_checked_tables = tr._checked_tables

    def counting_checked_tables(group, subs, *arrays):
        for sub in subs:
            transfer_checks[(group, sub.members)] += 1
        return real_checked_tables(group, subs, *arrays)

    monkeypatch.setattr(idet, "_require_extension", counting_require)
    monkeypatch.setattr(idet, "extend_character_all", counting_extend_all)
    monkeypatch.setattr(hb, "quotient_by_kernel", counting_reduce)
    monkeypatch.setattr(idet, "epsilon_table", counting_epsilon)
    monkeypatch.setattr(idet, "twist", counting_twist)
    monkeypatch.setattr(ct, "whole_group_witness", counting_whole_group_witness)
    monkeypatch.setattr(hb, "validate_pair", counting_validate)
    monkeypatch.setattr(
        cli, "twist_identity", counting(idet.twist_identity, checks_per_identity)
    )
    monkeypatch.setattr(FiniteGroup, "_build_skeleton", counting_build)
    monkeypatch.setattr(cli, "load_group", recording_load)
    monkeypatch.setattr(FiniteGroup, "all_subgroups", recording_all_subgroups)
    monkeypatch.setattr(tr, "_checked_tables", counting_checked_tables)
    monkeypatch.setattr(FiniteGroup, "quotient", counting_quotient)
    monkeypatch.setattr(cli, "isotropic_independence", counting_independence)
    for name, log in checks_per_table.items():
        monkeypatch.setattr(idet, name, counting(getattr(idet, name), log))
    monkeypatch.setattr(
        reference, "induced_matrices", counting(reference.induced_matrices, matrix_builds)
    )

    assert cli.main(["verify", "--builtin", "heis3"]) == 0
    report = json.loads(capsys.readouterr().out)
    n_characters = [
        c["stats"]["n_characters"] for c in report["checks"] if c["check"] == "twist_identity"
    ]
    assert len(n_characters) == report["n_pairs"]
    assert checks_per_identity == [1] * report["n_pairs"]
    assert len(work_per_twist) == sum(n_characters) > 0
    assert {(checks, validated) for checks, validated, _ in work_per_twist} == {(0, 0)}
    # omega.validate() is cached per character: the first pair's twists
    # check each omega once, and no later twist checks one again
    assert [checked for _, _, checked in work_per_twist] == [1] * n_characters[0] + [0] * (
        sum(n_characters) - n_characters[0]
    )
    assert epsilon_tables[0] == report["n_pairs"]
    for name, log in checks_per_table.items():
        assert log and set(log) == {1}, name
    assert matrix_builds == []
    oracles = [c["stats"] for c in report["checks"] if c["check"] == "determinant_oracle_equivalence"]
    n_isotropics = sum(stats["n_isotropics"] for stats in oracles)
    assert sum(stats["n_extensions"] for stats in oracles) > n_isotropics
    assert len(checks_per_table["gallagher_table"]) == report["n_pairs"] + n_isotropics
    independence = [c["stats"] for c in report["checks"] if c["check"] == "isotropic_independence"]
    assert families[0] == n_isotropics + sum(stats["n_isotropics"] for stats in independence)
    assert len(reductions) == report["n_pairs"]
    assert skeleton_builds and set(skeleton_builds.values()) == {1}
    assert len(quotients_per_independence) == report["n_pairs"]
    for n_quotients, n_isotropics in quotients_per_independence:
        assert n_quotients == 0 < n_isotropics
    # the coabelian subgroups are listed once, from one lattice of G^ab, and
    # each transfer table of G is built and checked once per subgroup
    (group,) = loaded
    ab_group = group.abelianization[0]
    assert sum(g is ab_group for g in listed) == 1
    instances = {sub.members for sub in tr.transfer_instances(group)}
    assert instances and instances <= {members for g, members in transfer_checks if g is group}
    assert set(transfer_checks.values()) == {1}


@pytest.mark.parametrize("name", ("ab:2,2,2,2", "heis3"))
def test_verify_transfer_checks_build_no_quotient_per_instance(monkeypatch, capsys, name):
    """While verify's transfer checks run, no quotient group is built, and
    abelian.decompose runs at most once, for G^ab: each G/H is read from
    G^ab's coordinates. The checks still cover every transfer instance."""
    inside = [0]
    counts = Counter()

    def checking(real):
        def wrapper(*args, **kwargs):
            inside[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += inside[0] > 0
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tr, "transfer_checks", checking(tr.transfer_checks))
    monkeypatch.setattr(FiniteGroup, "quotient", counting("quotient", FiniteGroup.quotient))
    monkeypatch.setattr(abelian, "decompose", counting("decompose", abelian.decompose))
    assert cli.main(["verify", "--builtin", name]) == 0
    report = json.loads(capsys.readouterr().out)
    n_instances = len(tr.transfer_instances(from_name(name)))
    cocycles = [c for c in report["checks"] if c["check"] == "correcting_function_cocycle"]
    assert len(cocycles) == n_instances > 0
    assert counts["quotient"] == 0
    assert counts["decompose"] <= 1


def test_rejects_non_extension():
    pair, sub, chi_h = default_setup(dihedral(8), 2)
    trivial = trivial_character(sub)
    with pytest.raises(NotAnExtension):
        induced_matrices(pair, sub, trivial)
    # one bad row fails a stack too
    for rows in (trivial.residues, np.stack([chi_h.residues, trivial.residues])):
        for route in (idet.direct_table, idet.gallagher_table):
            with pytest.raises(NotAnExtension):
                route(pair, sub, rows)


def test_homomorphism_certificate():
    for group, dim in ((dihedral(8), 2), (heisenberg_mod(3), 3)):
        pair, sub, chi_h = default_setup(group, dim)
        report = check_homomorphism(pair, sub, chi_h)
        assert report.passed
        assert report.stats["pairs"] == group.order**2


def test_homomorphism_certificate_is_exhaustive_above_order_64():
    pair, sub, chi_h = default_setup(heisenberg_mod(5), 5)
    report = check_homomorphism(pair, sub, chi_h)
    assert report.passed
    assert report.stats["pairs"] == 125**2


def test_homomorphism_counterexample_records_both_matrices(monkeypatch):
    pair, sub, chi_h = default_setup(dihedral(8), 2)
    monkeypatch.setattr(reference, "monomial_mul", lambda a, b: MonomialMatrix.identity(a.dim))
    report = check_homomorphism(pair, sub, chi_h)
    assert not report.passed
    assert_plain_json(report.as_dict())
    bad = report.counterexamples[0]
    x, y = bad["g"]
    assert bad["lhs"] == "perm=(0,1) exps=(0/1,0/1)"
    assert bad["rhs"] == str(induced_matrices(pair, sub, chi_h)[pair.group.mul(x, y)])
    assert bad["lhs"] != bad["rhs"]


def test_linear_pair_reduces_to_character_multiplicativity():
    g = cyclic(6)
    pair = hb.enumerate_pairs(g)[2]
    sub = pair.maximal_isotropics[0]
    chi_h = extend_character(g, pair.chi, sub)
    report = check_homomorphism(pair, sub, chi_h)
    assert report.passed
    assert exps(idet.direct_table(pair, sub, chi_h.residues), g) == [pair.chi(x) for x in g.elements()]


# -- coset signs ----------------------------------------------------------------------


def test_delta_trivial_on_normal_subgroup_elements():
    """Delta_H, the sign of the coset permutation, is the skeleton's parity."""
    d8 = dihedral(8)
    pair = pair_of(d8, 2)
    sub = pair.maximal_isotropics[1]
    assert not d8.coset_skeleton(sub).odd[list(sub.members)].any()


def test_delta_trivial_for_odd_index():
    h3 = heisenberg_mod(3)
    pair = pair_of(h3, 3)
    for sub in pair.maximal_isotropics:
        assert not h3.coset_skeleton(sub).odd.any()


def test_delta_on_d8_reflection():
    d8 = dihedral(8)
    rot = subgroup(d8, [E, A, A2, A3])
    assert d8.coset_skeleton(rot).odd[B]


# -- the three routes agree ------------------------------------------------------------


def test_d8_reflection_determinant_is_minus_one():
    pair, sub, chi_h = default_setup(dihedral(8), 2)
    assert exps(idet.direct_table(pair, sub, chi_h.residues), pair.group)[B] == HALF
    assert exps(idet.gallagher_table(pair, sub, chi_h.residues), pair.group)[B] == HALF
    value, eps = det_formula(pair, B)
    assert value == HALF and eps == HALF


def test_gallagher_equals_direct_everywhere_on_d8():
    pair = pair_of(dihedral(8), 2)
    for sub in pair.maximal_isotropics:
        family = extend_character_all(pair.group, pair.chi, sub)
        gallagher = idet.gallagher_table(pair, sub, family)
        assert np.array_equal(gallagher, idet.direct_table(pair, sub, family))


def test_formula_requires_reduced_pair():
    d16 = dihedral(16)
    pair = [p for p in hb.enumerate_pairs(d16) if p.dim == 2][0]
    with pytest.raises(KernelNotReduced):
        det_formula(pair, 0)
    with pytest.raises(KernelNotReduced):
        idet._formula_residues(pair, 8)
    with pytest.raises(KernelNotReduced):
        idet.epsilon_table(pair, pair.maximal_isotropics[0])


def assert_formula_residues_match_det_formula(group):
    """The closed form as one array equals ``det_formula`` element by
    element, on every reduced pair, mod the reduced group's N and mod the
    parent's."""
    for pair in hb.enumerate_pairs(group):
        reduced, _ = pair.reduction
        for modulus in {ct.residue_modulus(reduced.group), ct.residue_modulus(group)}:
            det, eps = idet._formula_residues(reduced, modulus)
            rows = [det_formula(reduced, g) for g in reduced.group.elements()]
            assert [QmodZ(r, modulus) for r in det.tolist()] == [r[0] for r in rows]
            assert [QmodZ(r, modulus) for r in eps.tolist()] == [r[1] for r in rows]


@pytest.mark.parametrize(
    "name", ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "d16", "prod:d8,c3", "ab:2,4")
)
def test_formula_residues_match_det_formula(name):
    assert_formula_residues_match_det_formula(from_name(name))


@pytest.mark.parametrize("name", ("d8", "q8", "heis3"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_formula_residues_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_formula_residues_match_det_formula(relabel(group, sigma))


def test_formula_names_the_first_element_with_a_noncentral_power():
    pair = pair_of(dihedral(8), 2)
    wrong = dataclasses.replace(pair, dim=1)
    first = next(g for g in wrong.group.elements() if g not in wrong.Z)
    message = f"^g\\^d must be central, failed at g={first}$"
    with pytest.raises(IdentityFailed, match=message):
        det_formula(wrong, first)
    with pytest.raises(IdentityFailed, match=message):
        idet._formula_residues(wrong, 4)


def test_heisenberg3_determinant_trivial():
    pair = pair_of(heisenberg_mod(3), 3)
    assert all(det_formula(pair, g)[0] == ZERO for g in pair.group.elements())


def test_extraspecial27_determinant_nontrivial():
    pair = pair_of(extraspecial_p3_exp_p2(3), 3)
    values = [det_formula(pair, g)[0] for g in pair.group.elements()]
    assert any(not is_zero(v) for v in values)


def test_oracle_equivalence_reports():
    for group, dim in (
        (dihedral(8), 2),
        (quaternion8(), 2),
        (heisenberg_mod(3), 3),
        (dihedral(16), 2),
        (central_product(dihedral(8), quaternion8()), 4),
    ):
        pair = pair_of(group, dim)
        report = idet.oracle_equivalence_report(pair)
        assert report.passed, (group.label, report.counterexamples[:3])


def plant_determinant(monkeypatch, group, g0):
    """Make every direct table of the group add 1/2 at element g0."""
    original = idet.direct_table
    n = ct.residue_modulus(group)

    def planted(pair, sub, rows):
        table = original(pair, sub, rows)
        table[..., g0] = (table[..., g0] + n // 2) % n
        return table

    monkeypatch.setattr(idet, "direct_table", planted)
    return original


def test_oracle_reports_a_planted_d128_determinant_entry(monkeypatch):
    """Order 128 is above the bound where this check used to sample pairs."""
    group, g0 = dihedral(128), 5
    pair = pair_of(group, 2)
    original = plant_determinant(monkeypatch, group, g0)
    report = idet.oracle_equivalence_report(pair)
    assert not report.passed
    assert_plain_json(report.as_dict())
    routes = [c for c in report.counterexamples if "gallagher" in c]
    assert routes and all(c["g"] == g0 for c in routes)

    sub = pair.maximal_isotropics[0]
    chi_h = extend_character_all(group, pair.chi, sub)[0]
    common = exps(original(pair, sub, chi_h), group)
    common[g0] = common[g0] + HALF
    x, y = next(
        (x, y)
        for x in group.elements()
        for y in group.elements()
        if common[group.mul(x, y)] != common[x] + common[y]
    )
    witness = [c for c in report.counterexamples if c.get("identity") == "character"]
    assert witness == [
        {
            "g": [x, y],
            "lhs": str(common[group.mul(x, y)]),
            "rhs": str(common[x] + common[y]),
            "identity": "character",
        }
    ]


def test_oracle_names_the_first_dim_one_determinant_off_chi(monkeypatch):
    group, g0 = cyclic(6), 4
    pair = hb.enumerate_pairs(group)[2]
    assert pair.dim == 1
    plant_determinant(monkeypatch, group, g0)
    report = idet.oracle_equivalence_report(pair)
    assert not report.passed
    assert_plain_json(report.as_dict())
    witness = [c for c in report.counterexamples if c.get("identity") == "character"]
    assert witness == [
        {
            "g": g0,
            "lhs": str(pair.chi(g0) + HALF),
            "rhs": str(pair.chi(g0)),
            "identity": "character",
        }
    ]


# -- the sign function ------------------------------------------------------------------


def eps_from_gallagher(pair, sub, chi_h):
    """eps(g) = det(g) - chi(g^d), with det from Gallagher's route."""
    group = pair.group
    gallagher = exps(idet.gallagher_table(pair, sub, chi_h.residues), group)
    return [gallagher[g] - pair.chi(group.pow(g, pair.dim)) for g in group.elements()]


def test_epsilon_pattern_on_d8():
    pair, sub, chi_h = default_setup(dihedral(8), 2)
    table = exps(idet.epsilon_table(pair, sub), pair.group)
    assert table == eps_from_gallagher(pair, sub, chi_h)
    expected = {
        E: ZERO,
        A2: ZERO,
        B: HALF,
        A: HALF,
        AB: HALF,
        A2B: HALF,
        A3: HALF,
        A3B: HALF,
    }
    assert table == [expected[g] for g in pair.group.elements()]


def test_epsilon_pattern_on_q8():
    pair, sub, chi_h = default_setup(quaternion8(), 2)
    table = exps(idet.epsilon_table(pair, sub), pair.group)
    assert table == eps_from_gallagher(pair, sub, chi_h)
    center = set(pair.Z.members)
    for g, v in enumerate(table):
        assert v == (ZERO if g in center else HALF)
    # the 2-dim irrep of the quaternion group is symplectic: det is trivial
    for g in pair.group.elements():
        assert det_formula(pair, g)[0] == ZERO


def test_epsilon_trivial_for_odd_dim():
    pair, sub, chi_h = default_setup(heisenberg_mod(3), 3)
    table = exps(idet.epsilon_table(pair, sub), pair.group)
    assert table == eps_from_gallagher(pair, sub, chi_h)
    assert all(v == ZERO for v in table)


def test_epsilon_trivial_for_two_rank_four():
    for factors in ((dihedral(8), dihedral(8)), (dihedral(8), quaternion8())):
        cp = central_product(*factors)
        pair, sub, chi_h = default_setup(cp, 4)
        table = exps(idet.epsilon_table(pair, sub), pair.group)
        assert all(v == ZERO for v in table)
        assert table == eps_from_gallagher(pair, sub, chi_h)
        # cross-check against the direct determinant: det == chi(g^4)
        direct = exps(idet.direct_table(pair, sub, chi_h.residues), cp)
        for g in cp.elements():
            assert direct[g] == pair.chi(cp.pow(g, 4))


def test_epsilon_independent_of_the_isotropic():
    pair = pair_of(dihedral(8), 2)
    tables = []
    for sub in pair.maximal_isotropics:
        chi_h = extend_character(pair.group, pair.chi, sub)
        tables.append(exps(idet.epsilon_table(pair, sub), pair.group))
        assert tables[-1] == eps_from_gallagher(pair, sub, chi_h)
    assert tables[0] == tables[1] == tables[2]


def test_epsilon_invariant_under_center_and_square_shifts():
    pair, sub, chi_h = default_setup(quaternion8(), 2)
    g8 = pair.group
    table = exps(idet.epsilon_table(pair, sub), pair.group)
    assert table == eps_from_gallagher(pair, sub, chi_h)
    for g in g8.elements():
        for z in pair.Z.members:
            assert table[g8.mul(g, z)] == table[g]
        for x in g8.elements():
            assert table[g8.mul(g, g8.mul(x, x))] == table[g]


def test_sign_defect_reports_a_planted_eps_sign_with_real_values(monkeypatch):
    pair, sub, _ = default_setup(dihedral(8), 2)
    group = pair.group
    # flip eps on a whole coset of G^2 Z, so it stays constant on cosets:
    # phi moves by the central A2, where chi is 1/2
    flipped = {B, A2B}
    assert pair.chi(A2) == HALF
    eps = [
        v + (HALF if g in flipped else ZERO)
        for g, v in enumerate(eps_from_gallagher(pair, sub, extend_character(group, pair.chi, sub)))
    ]
    original = idet.correcting_function

    def planted(grp, s):
        cf = original(grp, s)
        values = [grp.mul(v, A2) if g in flipped else v for g, v in enumerate(cf.values.tolist())]
        return CorrectingFunction(np.array(values), cf.index)

    monkeypatch.setattr(idet, "correcting_function", planted)
    defect, x, g1, g2 = next(
        (eps[g1] + eps[g2] - eps[group.mul(g1, g2)], x_value(pair, g1, g2), g1, g2)
        for g1 in group.elements()
        for g2 in group.elements()
        if eps[g1] + eps[g2] - eps[group.mul(g1, g2)] != x_value(pair, g1, g2)
    )
    message = f"sign defect identity fails at ({g1},{g2}): {defect} != {x}"
    with pytest.raises(IdentityFailed) as info:
        idet.epsilon_table(pair, sub)
    assert str(info.value) == message


def test_epsilon_case_reports():
    cases = [
        (dihedral(8), 2, "rk2=2"),
        (quaternion8(), 2, "rk2=2"),
        (heisenberg_mod(3), 3, "odd"),
        (central_product(dihedral(8), dihedral(8)), 4, "rk2>=4"),
    ]
    for group, dim, case in cases:
        pair = pair_of(group, dim)
        report = idet.epsilon_case_report(idet.build_det_report(pair))
        assert report.passed, report.counterexamples[:3]
        assert report.stats["case"] == case


@pytest.mark.parametrize("dim", (1, 2))
def test_epsilon_case_report_fails_on_disagreeing_routes(monkeypatch, dim):
    """A Gallagher table that is off by a sign at its last element makes
    the report disagree, and the case split fails with that row's values,
    also for a dim-1 pair, whose report verify does not keep."""
    real_table = idet.gallagher_table

    def shifted_table(pair, sub, chi_h):
        table = real_table(pair, sub, chi_h)
        n = ct.residue_modulus(pair.group)
        table[-1] = (table[-1] + n // 2) % n
        return table

    monkeypatch.setattr(idet, "gallagher_table", shifted_table)
    det = idet.build_det_report(pair_of(dihedral(8), dim))
    assert not det.all_agree
    report = idet.epsilon_case_report(det)
    assert not report.passed
    assert_plain_json(report.as_dict())
    bad = report.counterexamples[-1]
    g, n = det.pair.group.order - 1, det.modulus
    assert bad["identity"] == "det_report" and bad["g"] == g
    assert bad["gallagher"] == str(QmodZ(int(det.gallagher[g]), n)) != bad["lhs"]
    assert bad["lhs"] == str(QmodZ(int(det.direct[g]), n))


def test_epsilon_case_report_names_the_first_disagreeing_element(monkeypatch):
    """Gallagher tables off by a sign at elements 5 and 3 fail at 3, the
    first element in id order, with every route's value there."""
    real_table = idet.gallagher_table

    def shifted_table(pair, sub, chi_h):
        table = real_table(pair, sub, chi_h)
        n = ct.residue_modulus(pair.group)
        table[[5, 3]] = (table[[5, 3]] + n // 2) % n
        return table

    monkeypatch.setattr(idet, "gallagher_table", shifted_table)
    det = idet.build_det_report(pair_of(dihedral(8), 2))
    report = idet.epsilon_case_report(det)
    assert_plain_json(report.as_dict())
    assert_plain_json(det.as_dict())
    bad = report.counterexamples[-1]
    row = det.as_dict()["rows"][3]
    assert bad["g"] == 3 and bad["identity"] == "det_report"
    assert (bad["lhs"], bad["gallagher"], bad["rhs"], bad["epsilon"]) == (
        row["direct"], row["gallagher"], row["formula"], row["epsilon"]
    )


# -- independence of the isotropic -------------------------------------------------------


def test_isotropic_independence_d8():
    report = idet.isotropic_independence(pair_of(dihedral(8), 2))
    assert report.passed
    assert report.stats["n_extensions_total"] == 6


def test_isotropic_independence_heis3():
    report = idet.isotropic_independence(pair_of(heisenberg_mod(3), 3))
    assert report.passed
    assert report.stats["n_extensions_total"] == 12
    assert set(report.stats["det"]) == {"0/1"}


def test_isotropic_independence_linear_pair():
    g = cyclic(6)
    pair = hb.enumerate_pairs(g)[1]
    report = idet.isotropic_independence(pair)
    assert report.passed
    assert report.stats["n_extensions_total"] == 1


def test_isotropic_independence_requires_the_isotropics_to_cover_the_group():
    """Placing every element needs the whole isotropic list: a pair whose
    cached list misses part of G fails the coverage check."""
    pair = pair_of(dihedral(8), 2)
    pair.__dict__["maximal_isotropics"] = pair.maximal_isotropics[:1]
    uncovered = [g for g in pair.group.elements() if g not in pair.maximal_isotropics[0]]
    assert uncovered
    with pytest.raises(IdentityFailed):
        idet.isotropic_independence(pair)


# -- twisting -----------------------------------------------------------------------------


def test_twist_by_trivial_character_is_identity():
    pair = pair_of(dihedral(8), 2)
    omega = ct.linear_characters(pair.group)[0]
    twisted = idet.twist(pair, omega)
    assert twisted.chi == pair.chi


def test_twist_kills_order_three_characters_in_dim_three():
    h3 = heisenberg_mod(3)
    pair = pair_of(h3, 3)
    for omega in ct.linear_characters(h3):
        twisted = idet.twist(pair, omega)
        # d * omega = 3 * omega = 0, so the determinant is unchanged
        for g in h3.elements():
            assert det_formula(twisted, g)[0] == det_formula(pair, g)[0]


def test_twist_identity_over_all_characters():
    for group, dim in ((dihedral(8), 2), (quaternion8(), 2)):
        pair = pair_of(group, dim)
        omegas = ct.linear_characters(group)
        report = idet.twist_identity(pair, omegas)
        assert report.passed
        assert report.stats == {"n_characters": len(omegas), "dim": dim}


def test_twist_identity_catches_a_wrong_twisted_table(monkeypatch):
    """A twisted table that is off by a sign at one element fails the
    identity: the comparison is not vacuous."""
    pair = pair_of(dihedral(8), 2)
    real_kernel = idet._direct_residues

    def shifted_kernel(skeleton, rows, n):
        table = real_kernel(skeleton, rows, n)
        if rows.ndim == 2:
            table[:, 0] = (table[:, 0] + n // 2) % n
        return table

    monkeypatch.setattr(idet, "_direct_residues", shifted_kernel)
    with pytest.raises(IdentityFailed, match="twisted determinant identity fails at 0"):
        idet.twist_identity(pair, ct.linear_characters(pair.group))


def test_twist_rejects_non_characters():
    pair = pair_of(dihedral(8), 2)
    with pytest.raises(NotACharacter):
        idet.twist(pair, pair.chi)  # wrong domain
    d8 = pair.group
    not_multiplicative = character(
        d8.full_subgroup(), tuple(HALF if g == A else ZERO for g in d8.elements())
    )
    with pytest.raises(NotACharacter):
        idet.twist(pair, not_multiplicative)


def test_a_character_moved_on_the_commutators_fails_every_twist():
    """A residue map of d8 that is 1/2 at a commutator, planted as already
    validated (no character of G can be nontrivial on [G,G]): every pair
    it twists raises NotACharacter at the least such commutator, each
    time, though the [G,G] test is made once for the character."""
    group = dihedral(8)
    derived = group.commutator_subgroup().members
    z = next(x for x in derived if x != group.identity_id)
    residues = np.zeros(group.order, dtype=np.int64)
    residues[z] = ct.residue_modulus(group) // 2
    planted = ct.LinearCharacter(group.full_subgroup(), residues)
    planted.__dict__["_multiplicative"] = True
    pairs = hb.enumerate_pairs(group)
    assert len(pairs) > 1
    for pair in pairs:
        with pytest.raises(NotACharacter, match=rf"^twisting character is not trivial on \[G,G\] at {z}$"):
            idet.twist(pair, planted)


def test_twist_tests_each_omega_on_the_commutators_once(monkeypatch):
    """Every pair of heis3 twisted by every character of G: twist runs once
    per (pair, omega), but the test that omega vanishes on [G,G], counted
    by wrapping it, runs once per omega."""
    group = heisenberg_mod(3)
    omegas = ct.linear_characters(group)
    real = ct.LinearCharacter._commutator_witness.func
    tested = []

    def counting(omega):
        tested.append(omega)
        return real(omega)

    wrapped = functools.cached_property(counting)
    wrapped.__set_name__(ct.LinearCharacter, "_commutator_witness")
    monkeypatch.setattr(ct.LinearCharacter, "_commutator_witness", wrapped)
    twists = []
    real_twist = idet.twist
    monkeypatch.setattr(idet, "twist", lambda pair, omega: twists.append(1) or real_twist(pair, omega))
    pairs = hb.enumerate_pairs(group)
    for pair in pairs:
        assert idet.twist_identity(pair, omegas).passed
    assert len(pairs) > 1 and len(twists) == len(pairs) * len(omegas)
    assert len(tested) == len(omegas)
    assert {id(omega) for omega in tested} == {id(omega) for omega in omegas}


def reference_twisted_tables(pair, omegas):
    """The per-twist loop the batched identity replaced: validate_pair on
    chi * omega|_Z, then the direct table of chi_H * omega|_H, one omega
    at a time."""
    group, sub, chi_h = pair.group, pair.maximal_isotropics[0], pair.default_extension
    pairs, tables = [], []
    for omega in omegas:
        twisted = hb.validate_pair(group, pair.Z, multiply(pair.chi, restrict(omega, pair.Z)))
        pairs.append(twisted)
        tables.append(idet.direct_table(twisted, sub, multiply(chi_h, restrict(omega, sub)).residues))
    return pairs, np.array(tables)


def assert_batched_twists_match_the_loop(group):
    omegas = ct.linear_characters(group)
    n = ct.residue_modulus(group)
    stacked = np.stack([omega.residues for omega in omegas])
    twists = 0
    for pair in hb.enumerate_pairs(group):
        want_pairs, want_tables = reference_twisted_tables(pair, omegas)
        for omega, want in zip(omegas, want_pairs):
            got = idet.twist(pair, omega)
            assert (got.group, got.Z, got.dim) == (want.group, want.Z, want.dim)
            assert got.chi == want.chi
            assert np.array_equal(got.chi.residues, want.chi.residues)
        skeleton = group.coset_skeleton(pair.maximal_isotropics[0])
        batched = idet._direct_residues(skeleton, pair.default_extension.residues + stacked, n)
        assert np.array_equal(batched, want_tables)
        assert idet.twist_identity(pair, omegas).passed
        twists += len(omegas)
    assert twists


@pytest.mark.parametrize("name", GOLDEN_ZOO)
def test_batched_twists_match_the_per_twist_loop(name):
    """Every pair of the golden zoo twisted by every omega: the cheap twist
    builds the pair validate_pair builds, and one gather gives the direct
    table of every twisted extension."""
    assert_batched_twists_match_the_loop(from_name(name))


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_batched_twists_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_batched_twists_match_the_loop(relabel(group, sigma))


@pytest.mark.parametrize("block_bytes", (1, idet.OMEGA_BLOCK_BYTES))
def test_twist_identity_fails_at_the_first_omega_then_element(monkeypatch, block_bytes):
    """Planted mismatches at (omega 1, g 5), (omega 1, g 6) and (omega 3,
    g 2) fail at g = 5, as the per-twist loop would, whether the omegas
    come in one block or one at a time; every omega up to the failing
    block is twisted first."""
    pair = pair_of(dihedral(8), 2)
    omegas = ct.linear_characters(pair.group)
    n = ct.residue_modulus(pair.group)
    chi_h = pair.default_extension.residues
    real_kernel = idet._direct_residues
    real_twist = idet.twist
    twisted = []

    def planted(skeleton, rows, m):
        table = real_kernel(skeleton, rows, m)
        if rows.ndim == 2:
            for k, g in ((1, 5), (1, 6), (3, 2)):
                match = np.flatnonzero((rows == chi_h + omegas[k].residues).all(axis=1))
                table[match, g] = (table[match, g] + n // 2) % n
        return table

    def counting_twist(q, omega):
        twisted.append(omegas.index(omega))
        return real_twist(q, omega)

    monkeypatch.setattr(idet, "OMEGA_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(idet, "_direct_residues", planted)
    monkeypatch.setattr(idet, "twist", counting_twist)
    with pytest.raises(IdentityFailed, match="twisted determinant identity fails at 5$"):
        idet.twist_identity(pair, omegas)
    assert twisted == ([0, 1] if block_bytes == 1 else list(range(len(omegas))))


def test_twist_blocks_stay_under_the_byte_bound(monkeypatch):
    """heis5's dimension-5 pairs twisted by its 25 characters: every block
    of the gather is at most OMEGA_BLOCK_BYTES (or one omega), and the
    blocks cover the omegas in order."""
    group = heisenberg_mod(5)
    pair = pair_of(group, 5)
    omegas = ct.linear_characters(group)
    row_bytes = group.coset_skeleton(pair.maximal_isotropics[0]).factors.nbytes
    for bound in (1, row_bytes, 3 * row_bytes + 1, idet.OMEGA_BLOCK_BYTES):
        monkeypatch.setattr(idet, "OMEGA_BLOCK_BYTES", bound)
        blocks = list(idet._omega_blocks(omegas, row_bytes))
        assert [omega for _, chunk in blocks for omega in chunk] == omegas
        assert [start for start, _ in blocks] == list(
            np.cumsum([0] + [len(chunk) for _, chunk in blocks[:-1]])
        )
        for _, chunk in blocks:
            assert len(chunk) == 1 or len(chunk) * row_bytes <= bound


def test_twist_rejects_a_character_not_trivial_on_the_derived_subgroup():
    """An omega that reached twist with its multiplicativity taken as
    checked, but nonzero on [G,G] = {e, a^2}, is refused by the array
    test on [G,G]; no character of G can be nonzero there."""
    pair = pair_of(dihedral(8), 2)
    d8 = pair.group
    on_derived = character(
        d8.full_subgroup(), tuple(HALF if g == A2 else ZERO for g in d8.elements())
    )
    on_derived.__dict__["_multiplicative"] = True
    with pytest.raises(NotACharacter, match=r"not trivial on \[G,G\] at 4"):
        idet.twist(pair, on_derived)
    with pytest.raises(NotACharacter, match="defined on all of G"):
        idet.twist(pair, ct.linear_characters(dihedral(8))[0])


def reference_twist_search(reduced):
    """The search over the characters of the reduced group G/Ker(chi),
    one character at a time: the first omega with a trivial twisted
    closed form, or None."""
    g = reduced.group
    n = ct.residue_modulus(g)
    det0, _ = idet._formula_residues(reduced, n)
    return next(
        (
            omega
            for omega in ct.linear_characters(g)
            if not ((det0 + reduced.dim * omega.residues) % n).any()
        ),
        None,
    )


@pytest.mark.parametrize("block_bytes", (1, idet.OMEGA_BLOCK_BYTES))
def test_trivializing_twist_matches_the_per_character_search(monkeypatch, block_bytes):
    """The search over G's characters that vanish on Ker(chi), one
    (omega x g) array test, finds a twist exactly when the per-character
    search over the characters of G/Ker(chi) does, also with one omega
    per block; the omega it returns is the first of G's that vanishes on
    the kernel and trivializes the pulled-back closed form."""
    monkeypatch.setattr(idet, "OMEGA_BLOCK_BYTES", block_bytes)
    groups = (dihedral(8), quaternion8(), heisenberg_mod(3), extraspecial_p3_exp_p2(3))
    names = ("cp:d8,q8", "prod:d8,c3", "heis4", "prod:q8,c4", "ab:2,2,2")
    for group in groups + tuple(from_name(name) for name in names):
        omegas = ct.linear_characters(group)
        n = ct.residue_modulus(group)
        for pair in hb.enumerate_pairs(group):
            reduced, proj = pair.reduction
            det0 = idet._formula_residues(reduced, n)[0][proj.map]
            kernel = pair.chi.kernel().members
            want = next(
                (
                    omega
                    for omega in omegas
                    if all(is_zero(omega(k)) for k in kernel)
                    and not ((det0 + pair.dim * omega.residues) % n).any()
                ),
                None,
            )
            found = idet.find_trivializing_twist(pair, omegas)
            assert found == want
            assert (found is None) == (reference_twist_search(reduced) is None)


def test_trivializing_twist_exists_iff_expected():
    # quaternion pair: determinant already trivial, trivial twist returned
    def search(pair):
        return idet.find_trivializing_twist(pair, ct.linear_characters(pair.group))

    pair_q8 = pair_of(quaternion8(), 2)
    omega = search(pair_q8)
    assert omega is not None and omega == trivial_character(omega.domain)
    # dihedral pair: no twist can absorb the sign
    assert search(pair_of(dihedral(8), 2)) is None
    # exponent-p^2 group: chi is faithful on G^p = [G,G], impossible
    pair_es = pair_of(extraspecial_p3_exp_p2(3), 3)
    assert search(pair_es) is None
    # exponent-p group: determinant already trivial
    pair_h3 = pair_of(heisenberg_mod(3), 3)
    omega3 = search(pair_h3)
    assert omega3 is not None and omega3 == trivial_character(omega3.domain)


def test_trivializing_twist_criterion_on_odd_instances():
    """For odd dim the search outcome must match triviality of chi on
    G^d intersect [G,G] (the guarded structural criterion)."""
    for group in (heisenberg_mod(3), extraspecial_p3_exp_p2(3)):
        omegas = ct.linear_characters(group)
        for pair in hb.enumerate_pairs(group):
            reduced, _ = pair.reduction
            g = reduced.group
            z0 = set(g.power_subgroup(pair.dim).members) & set(
                g.commutator_subgroup().members
            )
            criterion = all(is_zero(reduced.chi(x)) for x in z0)
            assert (idet.find_trivializing_twist(pair, omegas) is not None) == criterion


# -- order-p^3 dichotomy --------------------------------------------------------------------


def test_p3_classification_for_p3():
    report = idet.p3_classification(3)
    by_kind = {row["kind"]: row for row in report["rows"]}
    assert by_kind["exponent_p"]["power_subgroup"] == [0]
    assert by_kind["exponent_p"]["det_trivial"] is True
    assert by_kind["exponent_p2"]["power_subgroup"] == by_kind["exponent_p2"]["center"]
    assert by_kind["exponent_p2"]["det_trivial"] is False


def test_p3_classification_reads_each_pairs_reduction(monkeypatch):
    """Each dim-p pair is reduced once, through ``HeisenbergPair.reduction``,
    the path every other command takes: p - 1 pairs in each of the two
    groups."""
    reductions = []
    real_reduce = hb.quotient_by_kernel

    def counting_reduce(pair):
        reductions.append(pair)
        return real_reduce(pair)

    monkeypatch.setattr(hb, "quotient_by_kernel", counting_reduce)
    idet.p3_classification(5)
    assert len(reductions) == 2 * 4
    assert all(pair.__dict__["reduction"] for pair in reductions)


def test_p3_classification_for_p11():
    """Order 1331, the largest under the bound: p - 1 = 10 pairs of
    dimension 11 in each group; heis11 (ids a p^2 + b p + c) has the
    center b p and trivial determinants, and the exponent-p^2 group (ids
    i p + j for a^i b^j) has G^p = Z = <a^p> and nontrivial ones."""
    p = 11
    report = idet.p3_classification(p)
    heis_center = [b * p for b in range(p)]
    es_center = [k * p * p for k in range(p)]
    assert report == {
        "p": p,
        "rows": [
            {"group": "heis11", "kind": "exponent_p", "order": 1331, "n_pairs_dim_p": 10,
             "power_subgroup": [0], "center": heis_center, "det_trivial": True},
            {"group": "es_p3_exp_p2:11", "kind": "exponent_p2", "order": 1331,
             "n_pairs_dim_p": 10, "power_subgroup": es_center, "center": es_center,
             "det_trivial": False},
        ],
    }


def test_p3_classification_rejects_bad_primes():
    for p in (2, 4, 9, 13):
        with pytest.raises(InvalidPrime):
            idet.p3_classification(p)


# -- report shape ---------------------------------------------------------------------------


def test_det_report_on_d8():
    pair = pair_of(dihedral(8), 2)
    report = idet.build_det_report(pair)
    assert report.all_agree
    assert report.case == "rk2=2"
    payload = report.as_dict()
    assert set(payload) == {"group", "Z", "dim", "rk2", "case", "rows", "all_agree"}
    assert len(payload["rows"]) == 8
    assert set(payload["rows"][0]) == {"g", "direct", "gallagher", "formula", "epsilon"}


def test_det_report_reduces_first():
    d16 = dihedral(16)
    pair = [p for p in hb.enumerate_pairs(d16) if p.dim == 2][0]
    report = idet.build_det_report(pair)
    assert report.pair.group.order == 8
    assert report.all_agree


# -- relabelling invariance -------------------------------------------------------------------


def _pair_signature(group):
    """Per pair, labelling-free: dim, rk2, the isotropic count and the
    multiset of closed-form determinants over G on the reduced pair."""
    rows = []
    for pair in hb.enumerate_pairs(group):
        reduced, proj = pair.reduction
        dets = Counter(
            tuple(str(v) for v in det_formula(reduced, proj.map.item(g)))
            for g in group.elements()
        )
        rk2 = pair.two_rank
        rows.append((pair.dim, rk2, len(pair.maximal_isotropics), sorted(dets.items())))
    return sorted(rows)


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,4"))
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_pair_results_survive_relabelling(relabel, name, data):
    """Conjugating the Cayley table by a random permutation of the ids
    changes no pair count, dimension, 2-rank, isotropic count or
    determinant multiset."""
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert _pair_signature(relabel(group, sigma)) == _pair_signature(group)


# -- Galois conjugation ------------------------------------------------------------


GALOIS_ZOO = (
    "d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "heis4", "prod:d8,d8", "heis5",
    "ab:3,3", "prod:heis3,c4",
)


def galois_conjugate(chi, k):
    """k * chi on chi's domain: the k-th power of every value, as residues
    mod N."""
    n = ct.residue_modulus(chi.domain.parent)
    return ct.LinearCharacter(chi.domain, np.where(chi.domain.mask, chi.residues * k % n, -1))


@pytest.mark.parametrize("name", GALOIS_ZOO)
def test_galois_conjugation_permutes_the_pairs_and_scales_the_direct_table(name):
    """For every k prime to N, sigma_k (each N-th root of unity to its k-th
    power) sends the Heisenberg representation of (Z, chi) to that of
    (Z, k chi), induced from k chi_H on the same H. So chi -> k chi maps
    the pairs enumerate_pairs returns onto themselves, and the direct
    table of the conjugate pair is k times the original, mod N."""
    group = from_name(name)
    n = ct.residue_modulus(group)
    pairs = hb.enumerate_pairs(group)
    key = lambda z, chi: (z.members, chi.residues.tobytes())
    by_key = {key(pair.Z, pair.chi): pair for pair in pairs}
    assert len(by_key) == len(pairs)
    units = [k for k in range(2, n) if math.gcd(k, n) == 1]
    assert units
    for k in units:
        images = []
        for pair in pairs:
            conjugate = by_key.get(key(pair.Z, galois_conjugate(pair.chi, k)))
            assert conjugate is not None, (k, pair.Z.members)
            images.append(key(conjugate.Z, conjugate.chi))
            sub = pair.maximal_isotropics[0]
            chi_h = extend_character(group, pair.chi, sub)
            table = idet.direct_table(pair, sub, chi_h.residues)
            scaled = idet.direct_table(conjugate, sub, galois_conjugate(chi_h, k).residues)
            assert scaled.tolist() == (table * k % n).tolist()
        assert sorted(images) == sorted(by_key)
