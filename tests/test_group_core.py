"""Group construction, element arithmetic, and subgroup machinery."""

import hashlib
import importlib.util
import random
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrep
from hrep import abelian, transfer
from hrep.errors import (
    EnumerationBoundExceeded,
    IdentityFailed,
    InvalidSpec,
    NotAGroup,
    NotNormal,
)
from hrep.group_core import (
    FiniteGroup,
    GroupHom,
    abelian_group,
    central_product,
    construct,
    construct_spec,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3_exp_p2,
    from_cayley_table,
    from_name,
    heisenberg_mod,
    quaternion8,
)
from reference import (
    as_group,
    central_involutions,
    image,
    involution_set,
    kernel,
    subgroup,
    validate_hom,
    validate_subgroup,
)

# D8 ids under the a^i b^j -> 2i + j convention
E, B, A, AB, A2, A2B, A3, A3B = range(8)


# -- independent oracles -----------------------------------------------------


def brute_element_order(table, identity, x):
    k, y = 1, x
    while y != identity:
        y = table[y][x]
        k += 1
    return k


def brute_subgroups(group):
    """All subgroups by testing every subset containing the identity."""
    from itertools import combinations

    found = []
    rest = [x for x in group.elements() if x != group.identity_id]
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            mem = {group.identity_id, *extra}
            closed = all(group.mul(x, y) in mem for x in mem for y in mem)
            if closed and all(group.inv(x) in mem for x in mem):
                found.append(tuple(sorted(mem)))
    return sorted(found, key=lambda m: (len(m), m))


def reference_commutator_subgroup(group):
    """[G,G] from every commutator, one element pair at a time."""
    return group.subgroup_generated(
        {group.commutator(x, y) for x in group.elements() for y in group.elements()}
    )


def reference_lower_central_series(group):
    series = [group.full_subgroup()]
    while True:
        current = series[-1]
        gens = {group.commutator(c, g) for c in current.members for g in group.elements()}
        nxt = group.subgroup_generated(gens)
        if nxt.members == current.members:
            break
        series.append(nxt)
    return series


def reference_power_subgroup(group, d):
    return group.subgroup_generated({group.pow(g, d) for g in group.elements()})


def alternating5():
    """A5 as the even permutations of five points, composed right to left."""
    from itertools import permutations

    def is_even(p):
        return sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0

    perms = [p for p in permutations(range(5)) if is_even(p)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(5))] for q in perms] for p in perms]
    return from_cayley_table(table, label="a5")


def assoc_holds(group):
    t = group.table
    return all(
        np.array_equal(t[t[i], :], t[i][t]) for i in range(group.order)
    )


# -- raw table validation ----------------------------------------------------


def test_trivial_group_from_table():
    g = from_cayley_table([[0]], label="triv")
    assert g.order == 1 and g.identity_id == 0 and g.inverse.tolist() == [0]


def test_z2_from_table():
    g = from_cayley_table([[0, 1], [1, 0]])
    assert g.order == 2 and g.identity_id == 0
    assert g.element_order(1) == 2


# a loop of order 5: Latin, identity 0, two-sided inverses, not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_nonassociative_table_names_triple():
    table = LOOP5
    with pytest.raises(NotAGroup) as err:
        from_cayley_table(table)
    assert err.value.triple == (1, 1, 2)
    i, j, k = err.value.triple
    assert table[table[i][j]][k] != table[i][table[j][k]]


def test_bad_latin_square_rejected():
    with pytest.raises(NotAGroup, match="permutation"):
        from_cayley_table([[0, 0], [1, 1]])


def test_table_without_identity_rejected():
    # 0 is only a left identity here
    with pytest.raises(NotAGroup, match="identity"):
        from_cayley_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_nonsquare_table_rejected():
    with pytest.raises(NotAGroup):
        from_cayley_table([[0, 1]])


def test_group_keeps_no_alias_of_the_callers_array():
    arr = np.array([[(i + j) % 4 for j in range(4)] for i in range(4)], dtype=np.int64)
    g = from_cayley_table(arr)
    arr[0, 0] = 3
    assert g.table[0, 0] == 0
    assert not g.table.flags.writeable
    with pytest.raises(ValueError):
        g.table[0, 0] = 3


# -- Light's associativity test ------------------------------------------------

GOLDEN_ZOO = ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "ab:2,2,2,2", "d16", "d128")


def first_nonassociative_triple(table):
    """The full n^3 scan, all products at once: the lexicographically first
    (i, j, k) with (i j) k != i (j k), or None."""
    t = np.asarray(table)
    bad = np.argwhere(t[t] != t[np.arange(len(t))[:, None, None], t[None]])
    return tuple(int(v) for v in bad[0]) if bad.size else None


def greedy_generators(group):
    """The least id outside the subgroup generated so far, repeatedly."""
    gens, reached = [], {group.identity_id}
    while len(reached) < group.order:
        gens.append(min(set(group.elements()) - reached))
        reached = set(group.subgroup_generated(gens).members)
    return gens


def relabel_table(table, sigma):
    """The table with element x renamed sigma[x]."""
    t, sigma = np.asarray(table), np.asarray(sigma)
    old = np.argsort(sigma)
    return sigma[t[np.ix_(old, old)]]


def first_without_two_sided_inverse(table):
    """The first element i of a loop whose right inverse j (i j = e) is not
    also a left inverse, or None."""
    t = np.asarray(table)
    n = len(t)
    identity = next(i for i in range(n) if list(t[i]) == list(range(n)))
    for i in range(n):
        j = list(t[i]).index(identity)
        if t[j, i] != identity:
            return i
    return None


def intercalate_swaps(group):
    """Every table made from the group's by swapping the entries of one
    2 x 2 subsquare (an intercalate) off the identity's row and column
    that keeps two-sided inverses: loops that are one swap from a group."""
    t, e = group.table, group.identity_id
    rest = [x for x in group.elements() if x != e]
    loops = []
    for x1, x2 in combinations(rest, 2):
        for y1, y2 in combinations(rest, 2):
            if t[x1, y1] == t[x2, y2] and t[x1, y2] == t[x2, y1]:
                u = t.copy()
                u[[x1, x1, x2, x2], [y1, y2, y1, y2]] = t[[x1, x1, x2, x2], [y2, y1, y2, y1]]
                if first_without_two_sided_inverse(u) is None:
                    loops.append(u)
    return loops


def loop_times_group(loop, group):
    """The direct product loop x group with ids l * |group| + g, so the
    group's elements, all good for Light's test, come first."""
    t = np.asarray(loop)
    n = group.order
    return (t[:, None, :, None] * n + group.table[None, :, None, :]).reshape(
        len(t) * n, len(t) * n
    )


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1: every
    loop of order n with identity 0."""
    by_first = {i: [p for p in permutations(range(n)) if p[0] == i] for i in range(n)}

    def extend(rows):
        if len(rows) == n:
            yield [list(r) for r in rows]
            return
        for p in by_first[len(rows)]:
            if all(p[j] != r[j] for r in rows for j in range(n)):
                yield from extend(rows + [p])

    yield from extend([tuple(range(n))])


def assert_light_matches_the_full_scan(table):
    """A table with a two-sided identity and inverses is accepted exactly
    when the n^3 scan finds no failure, and is otherwise refused at the
    scan's first triple; an accepted table was proved by at most floor(log2
    n) generators, the greedy ones."""
    want = first_nonassociative_triple(table)
    if want is None:
        g = from_cayley_table(table)
        gens = hrep.group_core._light_generators(g.table, g.identity_id)
        assert gens == greedy_generators(g)
        assert len(gens) <= g.order.bit_length() - 1
        return
    with pytest.raises(NotAGroup, match=r"associativity fails at \(i,j,k\)") as err:
        from_cayley_table(table)
    assert err.value.triple == want
    t = np.asarray(table)
    identity = int(np.flatnonzero((t == np.arange(len(t))).all(axis=1))[0])
    assert hrep.group_core._light_generators(t, identity) is None


@pytest.mark.parametrize("name", GOLDEN_ZOO + ("heis4", "prod:d8,c3", "ab:3,9"))
def test_light_test_proves_the_zoo(name):
    assert_light_matches_the_full_scan(from_name(name).table)


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "d16", "ab:2,4", "prod:d8,c3"))
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_light_test_survives_relabelling(name, data):
    table = from_name(name).table
    sigma = data.draw(st.permutations(range(len(table))))
    assert_light_matches_the_full_scan(relabel_table(table, sigma))


def planted_loops():
    loops = [np.array(LOOP5)]
    for name in ("d8", "ab:2,2,2", "q8"):
        loops += intercalate_swaps(from_name(name))
    # the group's generators pass Light's test, the loop's first one fails
    loops += [loop_times_group(LOOP5, from_name(k)) for k in ("c2", "ab:2,2", "ab:2,2,2")]
    return loops


@pytest.mark.parametrize("block_rows", (2, hrep.group_core.LIGHT_BLOCK_ROWS))
def test_planted_loops_fail_at_the_scans_first_triple(monkeypatch, block_rows):
    """Each planted loop, and a copy with every id moved up by one so that
    the identity is not 0, is refused at the scan's first triple."""
    monkeypatch.setattr(hrep.group_core, "LIGHT_BLOCK_ROWS", block_rows)
    loops = planted_loops()
    assert len(loops) > 100
    for table in loops:
        n = len(table)
        for t in (table, relabel_table(table, [(x + 1) % n for x in range(n)])):
            assert first_nonassociative_triple(t) is not None
            assert_light_matches_the_full_scan(t)


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_planted_loops_survive_relabelling(data):
    table = data.draw(st.sampled_from(planted_loops()))
    sigma = data.draw(st.permutations(range(len(table))))
    assert_light_matches_the_full_scan(relabel_table(table, sigma))


def test_every_loop_of_order_at_most_five():
    """Exhaustively: each loop of order 2 to 5 with identity 0, and a copy
    with reversed ids, is refused at its first element without a two-sided
    inverse, or else refused or accepted as the n^3 scan says."""
    checked = 0
    for n in range(2, 6):
        for table in reduced_latin_squares(n):
            for t in (np.array(table), relabel_table(table, list(reversed(range(n))))):
                one_sided = first_without_two_sided_inverse(t)
                if one_sided is None:
                    assert_light_matches_the_full_scan(t)
                else:
                    with pytest.raises(NotAGroup, match=f"^element {one_sided} has no two"):
                        from_cayley_table(t)
                checked += 1
    assert checked == 2 * (1 + 1 + 4 + 56)


# -- constructor zoo -----------------------------------------------------------


def test_dihedral8_structure():
    d8 = dihedral(8)
    assert d8.order == 8
    assert d8.center().members == (E, A2)
    assert d8.commutator_subgroup().members == (E, A2)
    # b a b^-1 = a^-1
    assert d8.conjugate(B, A) == A3


def test_heisenberg3_every_order_divides_3():
    h3 = heisenberg_mod(3)
    assert h3.order == 27
    assert all(h3.element_order(x) in (1, 3) for x in h3.elements())


def test_cyclic_one_is_trivial():
    assert cyclic(1).order == 1


def test_quaternion8_structure():
    q8 = quaternion8()
    assert q8.order == 8
    orders = sorted(q8.element_order(x) for x in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(q8.center()) == 2


def test_extraspecial_p3_exponent():
    es = extraspecial_p3_exp_p2(3)
    assert es.order == 27
    assert es.exponent == 9
    assert es.center().members == es.commutator_subgroup().members
    assert len(es.center()) == 3


def test_central_products():
    for other in (dihedral(8), quaternion8()):
        cp = central_product(dihedral(8), other)
        assert cp.order == 32
        assert len(cp.center()) == 2
        assert len(cp.commutator_subgroup()) == 2


def test_direct_product_orders():
    g = direct_product(dihedral(8), cyclic(3))
    assert g.order == 24
    assert not g.is_abelian
    assert abelian_group([2, 4]).is_abelian


def test_direct_product_table_is_mixed_radix():
    """Oracle: (x_1, ..., x_k) has id (...(x_1 n_2 + x_2) n_3 ...) + x_k and
    multiplies componentwise, with each factor's own mul."""
    factors = (heisenberg_mod(3), cyclic(4), dihedral(6))
    g = direct_product(*factors)
    assert g.label == "prod:heis3,c4,d6"
    sizes = [f.order for f in factors]

    def split(x):
        parts = []
        for n in reversed(sizes):
            x, r = divmod(x, n)
            parts.append(r)
        return parts[::-1]

    for x in g.elements():
        for y in g.elements():
            want = 0
            for f, a, b in zip(factors, split(x), split(y)):
                want = want * f.order + f.mul(a, b)
            assert g.mul(x, y) == want
    d8 = dihedral(8)
    assert direct_product(d8) is d8


def test_quotient_records_coset_representatives():
    d8 = dihedral(8)
    for normal in [s for s in d8.all_subgroups() if d8.is_normal(s)]:
        q, proj = d8.quotient(normal)
        assert list(q.coset_reps) == list(d8.coset_positions(normal)[0])
        assert proj.map[q.coset_reps].tolist() == list(q.elements())
        validate_hom(proj)
    assert d8.coset_reps is None


def test_invalid_constructor_parameters():
    with pytest.raises(InvalidSpec):
        cyclic(0)
    with pytest.raises(InvalidSpec):
        dihedral(7)
    with pytest.raises(InvalidSpec):
        extraspecial_p3_exp_p2(6)
    with pytest.raises(InvalidSpec):
        heisenberg_mod(0)
    with pytest.raises(InvalidSpec):
        # Klein four has three central involutions, not one
        central_product(abelian_group([2, 2]), dihedral(8))
    with pytest.raises(InvalidSpec):
        construct("nosuch", {})
    with pytest.raises(InvalidSpec):
        construct("cyclic", {})


# (family, params) that int() would coerce into some group: a string of
# factors read digit by digit, a float truncated, a bool read as 1
UNCOERCED_PARAMS = (
    ("abelian", {"factors": "12"}),
    ("abelian", {"factors": [2, 2.0]}),
    ("abelian", {"factors": [2, True]}),
    ("abelian", {"factors": 4}),
    ("cyclic", {"n": 7.9}),
    ("cyclic", {"n": True}),
    ("cyclic", {"n": "7"}),
    ("dihedral", {"order": 8.0}),
    ("heisenberg_mod", {"n": False}),
    ("extraspecial_p3_exp_p2", {"p": "3"}),
)


@pytest.mark.parametrize("family,params", UNCOERCED_PARAMS)
def test_construct_refuses_parameters_that_are_not_json_integers(family, params):
    with pytest.raises(InvalidSpec, match=f"^bad parameters for family {family!r}: "):
        construct(family, params)
    with pytest.raises(InvalidSpec):
        construct_spec({"family": "direct_product", "params": {"factors": [
            {"family": "cyclic", "params": {"n": 2}}, {"family": family, "params": params}
        ]}})
    assert construct("abelian", {"factors": [1, 2]}).label == "ab:1,2"
    assert construct("cyclic", {"n": 7}).order == 7


def test_construct_spec_roundtrip():
    g = construct_spec(
        {
            "family": "direct_product",
            "params": {
                "factors": [
                    {"family": "dihedral", "params": {"order": 8}},
                    {"family": "cyclic", "params": {"n": 2}},
                ]
            },
        }
    )
    assert g.order == 16


def test_all_constructed_groups_are_associative():
    for g in (
        dihedral(12),
        quaternion8(),
        heisenberg_mod(4),
        extraspecial_p3_exp_p2(3),
        central_product(dihedral(8), quaternion8()),
        abelian_group([2, 6]),
    ):
        assert assoc_holds(g)


def reference_heisenberg_table(n):
    """(a,b,c)(a',b',c') = (a+a', b+b'+a c', c+c') one pair at a time."""

    def mul(x, y):
        a1, r = divmod(x, n * n)
        b1, c1 = divmod(r, n)
        a2, r = divmod(y, n * n)
        b2, c2 = divmod(r, n)
        return ((a1 + a2) % n) * n * n + ((b1 + b2 + a1 * c2) % n) * n + (c1 + c2) % n

    return [[mul(x, y) for y in range(n**3)] for x in range(n**3)]


def reference_extraspecial_table(p):
    twist = [pow(1 + p, j, p * p) for j in range(p)]

    def mul(i1, j1, i2, j2):
        return ((i1 + i2 * twist[j1]) % (p * p)) * p + (j1 + j2) % p

    order = p**3
    return [[mul(x // p, x % p, y // p, y % p) for y in range(order)] for x in range(order)]


def reference_sign_table(n, b_squared):
    """a^i b^j with b a b^-1 = a^-1 and b^2 = a^b_squared, id 2i + j."""

    def mul(i1, j1, i2, j2):
        i = (i1 + (i2 if j1 == 0 else -i2) + (b_squared if j1 and j2 else 0)) % n
        return 2 * i + (j1 + j2) % 2

    order = 2 * n
    return [[mul(x // 2, x % 2, y // 2, y % 2) for y in range(order)] for x in range(order)]


def test_zoo_tables_match_the_per_pair_products():
    for n in range(1, 6):
        assert heisenberg_mod(n).table.tolist() == reference_heisenberg_table(n)
    for p in (2, 3, 5, 7):
        assert extraspecial_p3_exp_p2(p).table.tolist() == reference_extraspecial_table(p)
    for n in range(1, 17):
        assert dihedral(2 * n).table.tolist() == reference_sign_table(n, 0)
        assert cyclic(n).table.tolist() == [[(i + j) % n for j in range(n)] for i in range(n)]
    assert quaternion8().table.tolist() == reference_sign_table(4, 2)


# sha256 of the int64 table bytes, pinned from the per-pair constructors
TABLE_SHA256 = {
    "heis3": "2f69035b3cf357fbe14498a470fddd11d8f46798bc042b8af0cff19df13a382f",
    "heis5": "4a79c6c72b2e5ab0915d83ad03ff46a2adfbffcbdf1bcbc642abf422c8e87c2e",
    "heis7": "df71b1e4a2f08074970ed40043f5f80a4f793b06799266aa50fe3318b9bb1b2b",
    "heis11": "b33dc53e597466884016c9478d10f6a21f4a66ba0ed440b52293cd9b9df46245",
    "es_p3_exp_p2:3": "ea815e7fd3b23b2f88e6caaa87ae1fcd74bdd039c397feb33f294eb3cf61f2a7",
    "es_p3_exp_p2:5": "7b1779c2248a210cbeaab60cf35937c9aee89bd5226d7e257787c31765755a2a",
    "es_p3_exp_p2:7": "758186725b3189fdd9cbbb089d3741fee87eb4e8b869d8378cced3ef2ec93cfd",
    "es_p3_exp_p2:11": "c574ace80dbda2dec7f44e45fa3bc6aa9a83360c018eb198c76280adb5042adc",
    "d128": "0abe65c91a217140c400fed5ca2933eb2c0987d00bde32c322714a588b103e3c",
    "q8": "96afee3d3b4b549ffddb18e112d55b938494275135aab07a5068db1ac1ea0dcd",
    "c64": "6d8988074a34eebaeed944798d4fa44b21266b91c05575e8c036efb936a699f9",
}


@pytest.mark.parametrize("name", sorted(TABLE_SHA256))
def test_zoo_table_digests(name):
    table = from_name(name).table
    assert table.dtype == np.int64
    assert hashlib.sha256(table.tobytes()).hexdigest() == TABLE_SHA256[name]


def test_large_nonassociative_table_names_the_scans_first_triple():
    """Tables above 512 elements are proved too: Z/600 with its intercalate
    at rows and columns {1, 301} swapped is a Latin square with identity 0
    that is not associative, refused at the row scan's first triple."""
    n = 600
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    assert from_cayley_table(table, label="c600").order == n
    block = np.ix_([1, 301], [1, 301])
    table[block] = table[block][::-1]
    ref = np.arange(n)
    assert (np.sort(table, axis=1) == ref).all() and (np.sort(table, axis=0) == ref[:, None]).all()
    assert (table[0] == ref).all() and (table[:, 0] == ref).all()
    with pytest.raises(NotAGroup, match=r"associativity fails at \(i,j,k\)") as err:
        from_cayley_table(table, label="c600")
    assert err.value.triple == (1, 1, 2)
    assert table[table[1, 1], 2] != table[1, table[1, 2]]


def test_tables_are_read_only_and_operations_return_ints():
    """``table`` and ``inverse`` are the read-only int64 arrays on every
    construction path: a validated table, the trivial quotient that shares
    it, and a subgroup relabelled as a group. Element operations read them
    and return Python ints."""
    h3 = heisenberg_mod(3)
    trivial_quotient, _ = h3.quotient(subgroup(h3, [h3.identity_id]))
    relabelled, _ = as_group(h3.subgroup_generated([1, 3]))
    for g in (h3, trivial_quotient, relabelled):
        for array in (g.table, g.inverse):
            assert isinstance(array, np.ndarray) and array.dtype == np.int64
        with pytest.raises(ValueError):
            g.table[1, 1] = 0
        with pytest.raises(ValueError):
            g.inverse[1] = 0
        values = (
            g.mul(1, 1), g.mul(np.int64(1), 2), g.inv(1), g.pow(1, 5), g.pow(2, -1),
            g.conjugate(2, 1), g.commutator(1, 2), g.element_order(1), g.exponent,
        )
        assert all(type(v) is int for v in values)
    assert h3.mul(1, 1) == h3.table[1, 1] == 2
    assert h3.subgroup_generated([1]).members == (0, 1, 2)



# -- builtin names -------------------------------------------------------------


def test_builtin_names():
    assert from_name("d8").order == 8
    assert from_name("c12").order == 12
    assert from_name("q8").order == 8
    assert from_name("heis3").order == 27
    assert from_name("es_p3_exp_p2:5").order == 125
    assert from_name("cp:d8,q8").order == 32
    assert from_name("prod:d8,c3").order == 24
    assert from_name("ab:2,4").order == 8


def test_unknown_builtin():
    with pytest.raises(InvalidSpec):
        from_name("nonsense")


@pytest.mark.parametrize(
    "name",
    ("ab:2,4", "prod:d8,c3", "cp:d8,q8", "es_p3_exp_p2:5", "heis3", "c12", "d8", "q8"),
)
def test_builtin_name_is_the_label(name):
    assert from_name(name).label == name


def test_benchmark_group_names_build_the_builtin_groups():
    """The benchmark spells its groups in the --builtin grammar but builds
    them with its own parser; both must give the same table and label.
    perfbench/workloads.py is loaded read-only from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    names = sorted(
        {cmd.group for w in workloads.WORKLOADS.values() for cmd in w.commands if cmd.group}
    )
    assert names
    for name in names:
        built, builtin = workloads.build_group(hrep, name), from_name(name)
        assert (built.label, built.table.tolist()) == (builtin.label, builtin.table.tolist()), name


@pytest.mark.parametrize("name", ("heisx", "ab:2,x", "es_p3_exp_p2:", "prod:d8,heis"))
def test_malformed_builtin_number_is_invalid_spec(name):
    with pytest.raises(InvalidSpec):
        from_name(name)


# -- element operations ----------------------------------------------------------


def test_pow_examples():
    z4 = cyclic(4)
    assert z4.pow(1, 4) == 0
    d8 = dihedral(8)
    assert d8.pow(d8.identity_id, -7) == d8.identity_id
    assert d8.pow(A, -1) == d8.inv(A) == A3
    # square-and-multiply agrees with repeated multiplication
    for g in d8.elements():
        acc = d8.identity_id
        for k in range(9):
            assert d8.pow(g, k) == acc
            acc = d8.mul(acc, g)


def test_element_order_matches_brute_force():
    d8 = dihedral(8)
    for x in d8.elements():
        assert d8.element_order(x) == brute_element_order(d8.table, d8.identity_id, x)
    assert d8.element_order(B) == 2


def test_commutator_examples():
    d8 = dihedral(8)
    for x in d8.elements():
        assert d8.commutator(x, x) == d8.identity_id
    z6 = cyclic(6)
    assert all(
        z6.commutator(x, y) == 0 for x in z6.elements() for y in z6.elements()
    )
    # oracle: [a, b] = a b a^-1 b^-1 straight from the table
    t = d8.table
    expected = t[t[t[A][B]][d8.inverse[A]]][d8.inverse[B]]
    assert d8.commutator(A, B) == expected == A2


@pytest.mark.parametrize("name", ["d8", "q8", "heis3", "c6"])
def test_commutator_table_matches_the_scalar_commutator(name):
    g = from_name(name)
    xs, ys = [x for x in g.elements() if x % 2], list(reversed(g.elements()))
    table = g.commutator_table(xs, ys)
    assert table.shape == (len(xs), len(ys))
    assert table.tolist() == [[g.commutator(x, y) for y in ys] for x in xs]


def loop_derived_classes(group, sub):
    """The least id of each coset x [H,H], one element at a time, with
    [H,H] generated by every commutator of two members."""
    derived = group.subgroup_generated(
        {group.commutator(x, y) for x in sub.members for y in sub.members}
    ).members
    return [min(group.mul(x, c) for c in derived) for x in group.elements()]


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "cp:d8,q8", "prod:d8,d8"))
def test_derived_classes_match_the_coset_minimum_loop(monkeypatch, name):
    """On every coabelian subgroup, G included, the read-only array equals
    the loop; for H = G it reads [G,G] from ``commutator_subgroup`` and
    builds no |G| x |G| commutator table."""
    group = from_name(name)
    whole_tables = []
    real = FiniteGroup.commutator_table

    def recording(self, xs, ys):
        whole_tables.append(len(xs) == len(ys) == self.order)
        return real(self, xs, ys)

    monkeypatch.setattr(FiniteGroup, "commutator_table", recording)
    red = group.derived_classes(group.full_subgroup())
    assert whole_tables and not any(whole_tables)
    assert red.tolist() == loop_derived_classes(group, group.full_subgroup())
    subs = transfer.coabelian_subgroups(group)
    assert subs[-1].members == tuple(group.elements())
    for sub in subs:
        red = group.derived_classes(sub)
        assert red.tolist() == loop_derived_classes(group, sub)
        assert red.dtype == np.int64 and not red.flags.writeable
    assert not any(whole_tables)


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "cp:d8,q8", "c6"))
def test_abelianize_is_the_quotient_of_the_relabelled_subgroup(name):
    """Every subgroup H: H/[H,H] read from the array has the table, coset
    representatives and projection of H relabelled as a group and divided
    by its own commutator subgroup; on G it is ``abelianization``, cached,
    and an abelian G is its own."""
    group = from_name(name)
    for sub in group.all_subgroups():
        quot, image = group.abelianize(sub)
        local, to_parent = as_group(sub)
        want, proj = local.quotient(local.commutator_subgroup())
        assert quot.table.tolist() == want.table.tolist()
        assert quot.coset_reps.tolist() == [to_parent[r] for r in want.coset_reps.tolist()]
        assert image.tolist() == proj.map.tolist()
    ab_group, proj = group.abelianization
    if group.is_abelian:
        assert ab_group is group and proj.map.tolist() == list(group.elements())
    else:
        assert ab_group is group.abelianization[0]
        quot, image = group.abelianize(group.full_subgroup())
        assert ab_group.table.tolist() == quot.table.tolist()
        assert proj.map.tolist() == image.tolist()


# -- subgroup machinery -----------------------------------------------------------


def test_center_of_abelian_group_is_everything():
    g = abelian_group([2, 9])
    assert g.center().members == tuple(g.elements())


def test_lower_central_series_heisenberg():
    h3 = heisenberg_mod(3)
    series = h3.lower_central_series()
    assert [len(s) for s in series] == [27, 3, 1]
    assert series[1].members == h3.center().members
    assert h3.nilpotency_class() == 2


def test_powers_match_square_and_multiply():
    for g in (dihedral(8), quaternion8(), heisenberg_mod(3), abelian_group([2, 6])):
        for k in range(2 * g.exponent + 2):
            assert g.powers(k).tolist() == [g.pow(x, k) for x in g.elements()]
    with pytest.raises(InvalidSpec):
        cyclic(4).powers(-1)


STRUCTURE_ZOO = ("d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "ab:2,2,2,2", "d16", "d128")


def assert_structure_matches_references(g):
    """[G,G], the lower central series, every d-th power subgroup, G^2 N,
    the involutions, the center and the central involutions, against the
    per-element loops they replaced."""
    assert g.commutator_subgroup() == reference_commutator_subgroup(g)
    series = g.lower_central_series()
    assert series == reference_lower_central_series(g)
    assert g.nilpotency_class() == (len(series) - 1 if len(series[-1]) == 1 else None)
    for d in range(1, g.exponent + 2):
        assert g.power_subgroup(d) == reference_power_subgroup(g, d)
    for normal in (g.commutator_subgroup(), g.center(), g.full_subgroup()):
        want = g.subgroup_generated({g.mul(x, x) for x in g.elements()} | set(normal.members))
        assert transfer.squares_times(g, normal) == want
    assert involution_set(g) == {
        x for x in g.elements() if g.mul(x, x) == g.identity_id
    }
    central = [x for x in g.elements() if all(g.mul(x, y) == g.mul(y, x) for y in g.elements())]
    assert g.center().members == tuple(central)
    assert all(type(x) is int for x in g.center().members)
    mask = g.central_involution_mask
    assert set(np.flatnonzero(mask).tolist()) == central_involutions(g)
    assert not mask.flags.writeable and mask is g.central_involution_mask


@pytest.mark.parametrize("name", STRUCTURE_ZOO)
def test_structure_gathers_match_the_per_element_loops(name):
    assert_structure_matches_references(from_name(name))


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_structure_gathers_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_structure_matches_references(relabel(group, sigma))


IS_ABELIAN_ZOO = (
    "c1", "c6", "d8", "q8", "heis3", "es_p3_exp_p2:3", "cp:d8,q8", "ab:2,2,2,2",
    "d16", "heis4", "prod:d8,c3", "ab:3,9", "prod:d8,d8",
)


@pytest.mark.parametrize("name", IS_ABELIAN_ZOO)
def test_is_abelian_matches_the_block_against_its_transpose(relabel, name):
    """Every subgroup, G included, of the zoo groups up to order 64 and of
    a relabelling of each: Subgroup.is_abelian, which reads the parent's
    generator test when the parent is abelian or H = G, and
    FiniteGroup.is_abelian agree with the member block of the table
    against its transpose."""
    group = from_name(name)
    sigma = list(range(group.order))
    random.Random(f"{name}:abelian").shuffle(sigma)
    for g in (group, relabel(group, sigma)):
        assert g.is_abelian == bool(np.array_equal(g.table, g.table.T))
        subs = g.all_subgroups()
        assert subs[-1].members == g.full_subgroup().members
        for sub in subs:
            block = g.table[np.ix_(sub.members, sub.members)]
            assert sub.is_abelian == bool(np.array_equal(block, block.T))


def test_is_abelian_of_the_whole_group_gathers_no_table():
    """On heis7 (order 343), the commutativity test of H = G allocates less
    than n^2 bytes under tracemalloc: it gathers no copy of the table (a
    gathered block is 8 n^2 bytes), and the parent compares its
    generators only."""
    group = from_name("heis7")
    full = group.full_subgroup()
    tracemalloc.start()
    try:
        abelian_flag = full.is_abelian
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abelian_flag is False
    assert peak < group.order**2


def assert_subgroup_arrays_match_references(g):
    """On every subgroup: is_abelian and mask against the pairwise and
    membership loops, coset_positions against the per-element fill it
    replaced; and _generated_by_mask against one closure over all the ids."""
    for sub in g.all_subgroups():
        assert sub.is_abelian == all(g.mul(x, y) == g.mul(y, x) for x in sub for y in sub)
        assert sub.mask.tolist() == [x in sub for x in g.elements()]
        assert not sub.mask.flags.writeable
        pos, reps = [-1] * g.order, []
        for x in g.elements():
            if pos[x] < 0:
                reps.append(x)
                for h in sub.members:
                    pos[g.mul(x, h)] = len(reps) - 1
        got = g.coset_positions(sub)
        assert [array.tolist() for array in got] == [reps, pos]
        assert all(array.dtype == np.int64 and not array.flags.writeable for array in got)
    rng = np.random.default_rng(g.order)
    for size in (1, 2, 3, g.order):
        ids = rng.integers(0, g.order, size=size)
        assert g._generated_by_mask(ids) == g.subgroup_generated(ids.tolist())


@pytest.mark.parametrize("name", STRUCTURE_ZOO)
def test_subgroup_arrays_match_the_per_element_loops(name):
    assert_subgroup_arrays_match_references(from_name(name))


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,4"))
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_subgroup_arrays_survive_relabelling(relabel, name, data):
    group = from_name(name)
    sigma = data.draw(st.permutations(range(group.order)))
    assert_subgroup_arrays_match_references(relabel(group, sigma))


def test_perfect_group_series_stops_at_the_group():
    a5 = alternating5()
    assert a5.order == 60 and not a5.is_abelian
    assert a5.commutator_subgroup() == a5.full_subgroup()
    assert [s.members for s in a5.lower_central_series()] == [tuple(range(60))]
    assert a5.nilpotency_class() is None
    assert_structure_matches_references(a5)


def test_lower_central_series_is_computed_once(monkeypatch):
    h3 = heisenberg_mod(3)
    calls = []
    real = type(h3).commutator_table
    monkeypatch.setattr(
        type(h3), "commutator_table", lambda *a: calls.append(1) or real(*a)
    )
    series = h3.lower_central_series()
    # one gather each for [G,G] = C^2, C^3 and C^4 = C^3
    assert len(calls) == 3
    assert h3.nilpotency_class() == 2
    assert h3.lower_central_series() == series
    assert h3.commutator_subgroup() == series[1]
    assert len(calls) == 3
    series.pop()
    assert len(h3.lower_central_series()) == 3


def test_power_subgroup_examples():
    d8 = dihedral(8)
    assert d8.power_subgroup(2).members == (E, A2)
    assert d8.power_subgroup(1).members == tuple(d8.elements())
    h3 = heisenberg_mod(3)
    assert len(h3.power_subgroup(3)) == 1


def test_power_set_is_subgroup_when_odd_rule_applies():
    for g, d in ((heisenberg_mod(3), 3), (heisenberg_mod(5), 5)):
        raw = {g.pow(x, d) for x in g.elements()}
        assert raw == set(g.power_subgroup(d).members)


def test_all_subgroups_matches_brute_force():
    for g in (dihedral(8), quaternion8(), cyclic(12)):
        got = [s.members for s in g.all_subgroups()]
        assert got == brute_subgroups(g)
    assert len(dihedral(8).all_subgroups()) == 10


def test_normal_subgroups_of_z4():
    z4 = cyclic(4)
    subs = [s for s in z4.all_subgroups() if z4.is_normal(s)]
    assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_reflection_subgroup_not_normal():
    d8 = dihedral(8)
    assert not d8.is_normal(subgroup(d8, [E, B]))


def test_subgroup_enumeration_bound():
    with pytest.raises(EnumerationBoundExceeded):
        cyclic(300).all_subgroups(max_order=256)


def test_subgroup_validation():
    d8 = dihedral(8)
    with pytest.raises(NotAGroup):
        subgroup(d8, [E, A])  # not closed
    sub = subgroup(d8, [E, A, A2, A3])
    assert sub.is_abelian and sub.index() == 2


def first_closure_failure(group, members):
    """The per-element reference for Subgroup.validate: for each member x
    in id order, its inverse, then its products x y in id order."""
    inside = set(members)
    if group.identity_id not in inside:
        return "subgroup must contain the identity"
    for x in members:
        if group.inv(x) not in inside:
            return f"subgroup not closed under inverse at {x}"
        for y in members:
            if group.mul(x, y) not in inside:
                return f"subgroup not closed under product at ({x},{y})"
    return None


@pytest.mark.parametrize("name", ("d8", "q8", "heis3", "ab:2,4", "cp:d8,q8"))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_subgroup_validation_names_the_loops_first_witness(name, data):
    """On random member sets, and on subgroups with one element added,
    the array check raises the reference's message, or passes with it;
    every subgroup relabelled as a group has the per-pair table."""
    group = from_name(name)
    subgroups = group.all_subgroups()
    members = set(data.draw(st.sets(st.integers(0, group.order - 1))))
    if data.draw(st.booleans()):
        members = set(data.draw(st.sampled_from(subgroups)).members) | members
    sub = hrep.group_core.Subgroup(group, tuple(sorted(members)))
    want = first_closure_failure(group, sub.members)
    if want is None:
        validate_subgroup(sub)
        local, to_parent = as_group(sub)
        position = {m: i for i, m in enumerate(to_parent)}
        want_table = [[position[group.mul(x, y)] for y in to_parent] for x in to_parent]
        assert local.table.tolist() == want_table
    else:
        with pytest.raises(NotAGroup) as err:
            validate_subgroup(sub)
        assert str(err.value) == want


# -- quotients and transversals ------------------------------------------------------


def test_quotient_by_trivial_is_isomorphic_copy():
    d8 = dihedral(8)
    q, proj = d8.quotient(subgroup(d8, [d8.identity_id]))
    assert q.order == 8
    assert list(proj.map) == list(d8.elements())
    validate_hom(proj)


def test_trivial_quotient_shares_the_validated_table(monkeypatch):
    calls = []
    real = hrep.group_core._validate_table
    monkeypatch.setattr(
        hrep.group_core, "_validate_table", lambda *a: calls.append(1) or real(*a)
    )
    c600 = from_cayley_table([[(i + j) % 600 for j in range(600)] for i in range(600)])
    for g in (heisenberg_mod(3), c600):
        calls.clear()
        q, _ = g.quotient(subgroup(g, [g.identity_id]), label="copy")
        assert calls == []
        assert q.table is g.table and not q.table.flags.writeable
        assert q.identity_id == g.identity_id and q.inverse is g.inverse
        assert q.label == "copy" and q.coset_reps.tolist() == list(range(g.order))
        assert q.center().parent is q
    # a non-trivial quotient builds a new table and validates it
    h3 = heisenberg_mod(3)
    calls.clear()
    h3.quotient(h3.center())
    assert calls == [1]


def test_quotient_by_whole_group_is_trivial():
    d8 = dihedral(8)
    q, _ = d8.quotient(d8.full_subgroup())
    assert q.order == 1


def test_d8_mod_center_is_klein_four():
    d8 = dihedral(8)
    q, proj = d8.quotient(subgroup(d8, [E, A2]))
    assert q.order == 4
    assert sorted(q.element_order(x) for x in q.elements()) == [1, 2, 2, 2]
    validate_hom(proj)
    assert kernel(proj).members == (E, A2)
    assert len(image(proj)) == 4


def test_quotient_requires_normal():
    d8 = dihedral(8)
    with pytest.raises(NotNormal):
        d8.quotient(subgroup(d8, [E, B]))


def test_left_transversal_examples():
    d8 = dihedral(8)
    assert list(d8.coset_positions(d8.full_subgroup())[0]) == [E]
    assert list(d8.coset_positions(subgroup(d8, [d8.identity_id]))[0]) == list(d8.elements())
    assert list(d8.coset_positions(subgroup(d8, [E, A, A2, A3]))[0]) == [E, B]


def test_transversal_covers_each_coset_once():
    h3 = heisenberg_mod(3)
    sub = h3.center()
    transversal = list(h3.coset_positions(sub)[0])
    cosets = [frozenset(h3.mul(t, h) for h in sub.members) for t in transversal]
    assert len(set(cosets)) == len(transversal) == h3.order // len(sub)
    union = set().union(*cosets)
    assert union == set(h3.elements())


# -- two-step nilpotent power identities ----------------------------------------------


@pytest.mark.parametrize(
    "build",
    [dihedral(8), quaternion8(), heisenberg_mod(3), heisenberg_mod(4)],
    ids=lambda g: g.label,
)
def test_two_step_power_identities(build):
    """[x^n, y] = [x, y]^n and x^n y^n = (xy)^n [x,y]^(n(n-1)/2);
    every n up to |G| on the order-8 groups, a spread of n above."""
    g = build
    exponents = range(1, g.order + 1) if g.order <= 8 else (2, 3, 5, 7, g.order)
    for n in exponents:
        for x in g.elements():
            for y in g.elements():
                c = g.commutator(x, y)
                assert g.commutator(g.pow(x, n), y) == g.pow(c, n)
                lhs = g.mul(g.pow(x, n), g.pow(y, n))
                rhs = g.mul(g.pow(g.mul(x, y), n), g.pow(c, n * (n - 1) // 2))
                assert lhs == rhs


def test_validate_hom_names_the_first_failing_pair():
    d8 = dihedral(8)
    q, proj = d8.quotient(d8.center())
    values = proj.map.copy()
    values[1] = q.identity_id
    broken = GroupHom(d8, q, values)
    first = next(
        (x, y)
        for x in d8.elements()
        for y in d8.elements()
        if values[d8.mul(x, y)] != q.mul(values[x], values[y])
    )
    with pytest.raises(NotAGroup, match=rf"not multiplicative at \({first[0]},{first[1]}\)"):
        validate_hom(broken)


def test_hom_kernel_and_surjectivity():
    h3 = heisenberg_mod(3)
    q, proj = h3.quotient(h3.center())
    validate_hom(proj)
    assert kernel(proj).members == h3.center().members
    assert len(image(proj)) == q.order
    # preimage of the trivial subgroup is the kernel
    assert proj.preimage({q.identity_id}).members == h3.center().members


def test_generated_by_mask_closes_over_at_most_log2_n_ids(monkeypatch):
    """heis5's 125 squares are all distinct; the closure adjoins only the
    ids not yet generated, each at least doubling the subgroup."""
    h5 = heisenberg_mod(5)
    closures = []
    real = type(h5).subgroup_generated
    monkeypatch.setattr(
        type(h5), "subgroup_generated", lambda self, gens: closures.append(list(gens)) or real(self, gens)
    )
    assert len(set(h5.powers(2).tolist())) == 125
    assert h5.power_subgroup(2) == h5.full_subgroup()
    assert 1 <= len(closures) <= 6
    assert all(len(gens) == i + 1 for i, gens in enumerate(closures))


# -- maps indexed by element id ---------------------------------------------------------

MAP_ZOO = ("d8", "q8", "heis3", "cp:d8,q8", "ab:2,2,2", "prod:d8,c3")


def assert_read_only_int64(array, length):
    assert isinstance(array, np.ndarray) and array.dtype == np.int64
    assert array.shape[0] == length and not array.flags.writeable


def reference_kernel(hom):
    return tuple(x for x in hom.source.elements() if hom.map[x] == hom.target.identity_id)


def reference_image(hom):
    return tuple(sorted({int(hom.map[x]) for x in hom.source.elements()}))


def reference_preimage(hom, members):
    wanted = set(members)
    return tuple(x for x in hom.source.elements() if hom.map[x] in wanted)


def assert_homomorphism_matches_the_loops(hom):
    """kernel, image and the preimage of every subgroup of the target
    against the per-element loops they replaced."""
    assert_read_only_int64(hom.map, hom.source.order)
    assert kernel(hom).members == reference_kernel(hom)
    assert image(hom).members == reference_image(hom)
    for sub in hom.target.all_subgroups():
        assert hom.preimage(sub.members).members == reference_preimage(hom, sub.members)


def map_zoo(relabel, name):
    """The named group and one relabelled copy of it."""
    group = from_name(name)
    sigma = list(range(group.order))
    random.Random(name).shuffle(sigma)
    return group, relabel(group, sigma)


@pytest.mark.parametrize("name", MAP_ZOO)
def test_every_map_is_a_read_only_int64_array(relabel, name):
    """The coset representatives and positions, each quotient's coset_reps
    and projection, the checked transfer table of every subgroup, the
    coset skeleton's transversal, the correcting function and the exponent
    coordinates: one read-only int64 array each, indexed by element id."""
    for group in map_zoo(relabel, name):
        n = group.order
        for sub in group.all_subgroups():
            reps, pos = group.coset_positions(sub)
            assert_read_only_int64(reps, sub.index())
            assert_read_only_int64(pos, n)
            assert group.coset_skeleton(sub).transversal is reps
            assert_read_only_int64(transfer.transfer_table(group, sub), n)
            if group.is_normal(sub):
                quot, proj = group.quotient(sub)
                assert_read_only_int64(quot.coset_reps, quot.order)
                assert quot.coset_reps.tolist() == reps.tolist()
                assert proj.map.tolist() == pos.tolist()
                assert_homomorphism_matches_the_loops(proj)
        for sub in transfer.coabelian_subgroups(group):
            assert_read_only_int64(transfer.transfer_table(group, sub), n)
        if transfer.is_two_step_nilpotent(group):
            for sub in transfer.transfer_instances(group):
                assert_read_only_int64(transfer.correcting_function(group, sub).values, n)
        ab_group, proj = group.abelianization
        assert_homomorphism_matches_the_loops(proj)
        coords = abelian.decompose(ab_group).exponent_coordinates
        assert_read_only_int64(coords, ab_group.order)


@pytest.mark.parametrize("name", MAP_ZOO)
def test_inclusion_kernel_image_and_preimage_match_the_loops(relabel, name):
    """A homomorphism that is not onto: each subgroup's inclusion, whose
    image is the subgroup and whose kernel is trivial."""
    for group in map_zoo(relabel, name):
        for sub in group.all_subgroups():
            local, to_parent = as_group(sub)
            inclusion = GroupHom(local, group, to_parent)
            validate_hom(inclusion)
            assert_homomorphism_matches_the_loops(inclusion)
            assert image(inclusion).members == sub.members


def test_homomorphism_keeps_no_alias_of_a_writeable_map():
    d8 = dihedral(8)
    values = np.arange(8)
    hom = GroupHom(d8, d8, values)
    values[0] = 5
    assert hom.map.tolist() == list(range(8)) and not hom.map.flags.writeable


@pytest.mark.parametrize("name", MAP_ZOO)
def test_membership_refuses_ids_outside_the_group(relabel, name):
    """-1 and n are no element ids: a negative id must not wrap around to
    the end of the membership mask."""
    for group in map_zoo(relabel, name):
        n = group.order
        for sub in group.all_subgroups():
            assert -1 not in sub and n not in sub
            assert [x in sub for x in group.elements()] == sub.mask.tolist()
        assert -1 not in group.full_subgroup() and -n not in group.full_subgroup()


def test_decomposition_whose_generators_do_not_span_raises():
    """Every element must be reached exactly once by the generator powers."""
    g = abelian_group([2, 2, 2])
    dec = abelian.decompose(g)
    assert dec.factors == (2, 2, 2)
    t1, t2, _ = dec.generators
    # the third generator repeats the product of the first two
    with pytest.raises(IdentityFailed, match="not unique"):
        abelian.AbelianDecomposition(g, (2, 2, 2), (t1, t2, g.mul(t1, t2))).exponent_coordinates
    # too few generators reach half the group
    with pytest.raises(IdentityFailed, match="not unique"):
        abelian.AbelianDecomposition(g, (2, 2), (t1, t2)).exponent_coordinates
