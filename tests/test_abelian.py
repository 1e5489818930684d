"""Invariant factors, Miller products, 2-rank, and involution counting."""

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrep import abelian, transfer
from hrep.errors import EnumerationBoundExceeded, NotAbelian
from hrep.group_core import (
    FiniteGroup,
    abelian_group,
    cyclic,
    dihedral,
    from_name,
    heisenberg_mod,
)
from reference import as_group, involution_set, subgroup_product, two_rank


def order_census(group):
    return sorted(group.element_order(x) for x in group.elements())


def abelian_zoo(max_order=200):
    """Representative abelian groups up to the given order."""
    specs = [
        [1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
        [9], [3, 3], [10], [12], [2, 6], [16], [4, 4], [2, 8], [2, 2, 4],
        [15], [18], [20], [2, 2, 3, 3], [24], [2, 4, 3], [25], [5, 5],
        [27], [3, 9], [32], [36], [48], [2, 2, 2, 2], [64], [100], [2, 90],
        [144], [196],
    ]
    return [abelian_group(s) for s in specs if math.prod(s) <= max_order]


# -- decomposition ------------------------------------------------------------


def test_decompose_cyclic():
    assert abelian.decompose(cyclic(6)).factors == (6,)


def test_decompose_already_invariant():
    assert abelian.decompose(abelian_group([2, 4])).factors == (2, 4)


def test_decompose_regroups_by_crt():
    # oracle: Z/4 x Z/6 and Z/2 x Z/12 have identical element-order censuses
    g = abelian_group([4, 6])
    assert order_census(g) == order_census(abelian_group([2, 12]))
    dec = abelian.decompose(g)
    assert dec.factors == (2, 12)


def test_decompose_trivial_group():
    assert abelian.decompose(cyclic(1)).factors == ()


def test_decompose_generators_realize_the_factors():
    for g in abelian_zoo(100):
        dec = abelian.decompose(g)
        assert math.prod(dec.factors) == g.order
        for m, t in zip(dec.factors, dec.generators):
            assert g.element_order(t) == m
        for a, b in zip(dec.factors, dec.factors[1:]):
            assert b % a == 0
        coords = dec.exponent_coordinates
        assert coords.shape == (g.order, len(dec.factors))  # unique expression
        # the per-element reference: every exponent tuple once, and row x
        # holds the tuple whose product of generator powers is x
        assert sorted(map(tuple, coords.tolist())) == list(
            product(*[range(m) for m in dec.factors])
        )
        for x, exps in enumerate(coords.tolist()):
            y = g.identity_id
            for t, a in zip(dec.generators, exps):
                y = g.mul(y, g.pow(t, a))
            assert y == x


def complement_search_decompose(group):
    """The earlier decomposition, kept as the reference: split off <t> for
    the lowest-id t of maximal order, take the first subgroup of the
    complementary order that meets <t> trivially, rebuild it as a standalone
    group and recurse. Returns (factors, generators) in ascending order."""
    if group.order == 1:
        return (), ()
    orders = [group.element_order(x) for x in group.elements()]
    m = max(orders)
    t = orders.index(m)
    cyc = set(group.subgroup_generated([t]).members)
    complement = next(
        sub
        for sub in group.all_subgroups(max_order=abelian.DECOMPOSE_VERIFY_BOUND)
        if len(sub) == group.order // m and cyc & set(sub.members) == {group.identity_id}
    )
    local, to_parent = as_group(complement)
    factors, generators = complement_search_decompose(local)
    return factors + (m,), tuple(to_parent[x] for x in generators) + (t,)


def lattice_decompose(group):
    """The decomposition that lists the subgroup lattice once, kept as the
    reference: split off <t> for the lowest-id t of maximal order in the
    current complement C, and take as the next complement the first
    subgroup in (size, members) order that lies in C, meets <t> trivially
    and has order |C|/m. Returns (factors, generators) in ascending order."""
    lattice = group.all_subgroups(max_order=abelian.DECOMPOSE_VERIFY_BOUND)
    factors, generators = [], []
    current = lattice[-1]
    while len(current) > 1:
        orders = [group.element_order(x) for x in current.members]
        m = max(orders)
        t = current.members[orders.index(m)]
        cyc = set(group.subgroup_generated([t]).members)
        current = next(
            sub
            for sub in lattice
            if len(sub) == len(current) // m
            and current.contains_subgroup(sub)
            and cyc & set(sub.members) == {group.identity_id}
        )
        factors.append(m)
        generators.append(t)
    return tuple(reversed(factors)), tuple(reversed(generators))


def test_decompose_matches_the_complement_search(relabel):
    """The greedy least complement picks the same generators as the
    lattice search and as the recursive search, on the zoo and on
    relabellings whose identity is not element 0."""
    for g in abelian_zoo():
        copies = [g]
        for seed in (1, 2):
            sigma = list(range(g.order))
            random.Random(f"{g.label}:{seed}").shuffle(sigma)
            copies.append(relabel(g, sigma))
        for group in copies:
            dec = abelian.decompose(group)
            got = (dec.factors, dec.generators)
            assert got == lattice_decompose(group) == complement_search_decompose(group)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 4, 6, 8, 9]), min_size=1, max_size=3).filter(
        lambda f: math.prod(f) <= 96
    ),
    st.data(),
)
def test_decompose_matches_the_lattice_search_on_relabellings(relabel, factors, data):
    g = abelian_group(factors)
    group = relabel(g, data.draw(st.permutations(range(g.order))))
    dec = abelian.decompose(group)
    assert (dec.factors, dec.generators) == lattice_decompose(group)


def per_element_subgroups(group):
    """The subgroup enumerator that adjoins every element outside each
    found subgroup, not one per left coset: the reference lattice."""
    seen = {(group.identity_id,): ()}
    frontier = [(group.identity_id,)]
    while frontier:
        new_frontier = []
        for mem in frontier:
            for g in group.elements():
                if g in mem:
                    continue
                gens = seen[mem] + (g,)
                bigger = group.subgroup_generated(gens).members
                if bigger not in seen:
                    seen[bigger] = gens
                    new_frontier.append(bigger)
        frontier = new_frontier
    return sorted(seen, key=lambda m: (len(m), m))


def test_all_subgroups_matches_the_per_element_enumerator(relabel):
    """Adjoining one element per left coset gS finds the same lattice in
    the same (size, members) order, on the zoo, d128, d8 x d8 and
    relabellings whose identity is not element 0."""
    for g in [*abelian_zoo(), from_name("d128"), from_name("prod:d8,d8")]:
        sigma = list(range(g.order))
        random.Random(f"{g.label}:lattice").shuffle(sigma)
        for group in (g, relabel(g, sigma)):
            got = [s.members for s in group.all_subgroups()]
            assert got == per_element_subgroups(group), group.label


def test_decompose_lists_no_lattice_and_builds_no_group(monkeypatch, relabel):
    groups = [abelian_group([2, 2, 2, 2]), abelian_group([2, 4, 3]), abelian_group([3, 9])]
    groups.append(relabel(groups[0], list(reversed(range(16)))))
    lattices, built = [], []
    real_init, real_all = FiniteGroup.__init__, FiniteGroup.all_subgroups

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def counting_all(self, *args, **kwargs):
        lattices.append(self)
        return real_all(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    monkeypatch.setattr(FiniteGroup, "all_subgroups", counting_all)
    for group in groups:
        abelian.decompose(group)
    assert lattices == []
    assert built == []


def test_decompose_refuses_groups_over_the_bound(monkeypatch):
    monkeypatch.setattr(abelian, "DECOMPOSE_VERIFY_BOUND", 8)
    abelian.decompose(abelian_group([2, 4]))
    message = r"^\|G\|=9 exceeds decomposition bound 8$"
    with pytest.raises(EnumerationBoundExceeded, match=message):
        abelian.decompose(cyclic(9))


def test_decompose_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        abelian.decompose(dihedral(8))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3))
def test_decompose_factor_chain_property(factors):
    if math.prod(factors) > 72:
        factors = factors[:2]
    g = abelian_group(factors)
    dec = abelian.decompose(g)
    assert math.prod(dec.factors) == g.order
    assert all(m >= 2 for m in dec.factors)
    for a, b in zip(dec.factors, dec.factors[1:]):
        assert b % a == 0


# -- Miller products -----------------------------------------------------------


def _miller(group):
    """The Miller product: the product of all elements of the group."""
    return subgroup_product(group, group.elements())


def test_miller_product_examples():
    assert _miller(cyclic(3)) == 0
    assert _miller(cyclic(4)) == 2
    assert _miller(abelian_group([2, 2])) == 0


def test_miller_product_three_case_statement():
    """identity when the involution count differs from one, else the
    unique involution; exhaustively over the abelian zoo."""
    for g in abelian_zoo(200):
        involutions = [x for x in involution_set(g) if x != g.identity_id]
        got = _miller(g)
        if len(involutions) == 1:
            assert got == involutions[0]
        else:
            assert got == g.identity_id


def test_miller_product_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        _miller(heisenberg_mod(3))


# -- 2-rank and involutions ------------------------------------------------------


def test_two_rank_examples():
    assert two_rank(cyclic(9)) == 0
    assert two_rank(abelian_group([2, 4])) == 2
    klein = abelian_group([2, 2])
    assert two_rank(klein) == 2
    assert len(involution_set(klein)) == 4


def test_two_rank_equals_log2_of_involution_count():
    for g in abelian_zoo(200):
        rank = two_rank(g)
        assert len(involution_set(g)) == 2**rank
        even = sum(1 for m in abelian.decompose(g).factors if m % 2 == 0)
        assert rank == even


def test_nontrivial_involution_count_is_two_power_minus_one():
    for g in abelian_zoo(200):
        rank = two_rank(g)
        nontrivial = len(involution_set(g)) - 1
        assert nontrivial == 2**rank - 1


def test_involution_set_examples():
    assert involution_set(cyclic(5)) == {0}
    assert len(involution_set(abelian_group([2, 2, 3]))) == 4
    assert involution_set(cyclic(8)) == {0, 4}


def test_involution_count_multiplies_over_products():
    cases = [([2], [3]), ([4], [6]), ([2, 2], [8]), ([12], [10])]
    for left, right in cases:
        g1, g2 = abelian_group(left), abelian_group(right)
        prod = abelian_group(left + right)
        assert len(involution_set(prod)) == len(involution_set(g1)) * len(involution_set(g2))


def test_involution_set_works_on_nonabelian_groups():
    # plain x^2 = e scan; the central ones feed the transfer machinery
    d8 = dihedral(8)
    # identity, a^2, and the four reflections
    assert involution_set(d8) == {0, 1, 3, 4, 5, 7}


# -- closed-form counts ------------------------------------------------------------------


def gaussian_binomial(n, k, q):
    """[n choose k]_q, the number of k-dimensional subspaces of F_q^n."""
    num = math.prod(q ** (n - i) - 1 for i in range(k))
    den = math.prod(q ** (i + 1) - 1 for i in range(k))
    return num // den


@pytest.mark.parametrize("n,count", ((4, 67), (5, 374), (6, 2825)))
def test_elementary_abelian_subgroup_count_is_the_gaussian_sum(n, count):
    """(Z/2)^n has sum_k [n choose k]_2 subgroups, each listed once as a
    preimage through the abelianization's projection."""
    group = abelian_group([2] * n)
    subgroups = transfer.coabelian_subgroups(group)
    assert len({sub.members for sub in subgroups}) == len(subgroups)
    assert len(subgroups) == count == sum(gaussian_binomial(n, k, 2) for k in range(n + 1))
