"""Structure theory of finite abelian groups.

Invariant factors are produced in ascending divisibility order
m_1 | m_2 | ... | m_s, with explicit generators realizing the
decomposition as an internal direct product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnumerationBoundExceeded, NotAbelian, math_check as _math_check
from .group_core import FiniteGroup

# The decomposition bound: decompose refuses larger groups, and up to it
# decomposes and checks that every element is a unique product of
# generator powers.
DECOMPOSE_VERIFY_BOUND = 4096


@dataclass(frozen=True)
class AbelianDecomposition:
    """An abelian group as Z/m_1 x ... x Z/m_s with m_1 | ... | m_s.

    ``generators[i]`` has order ``factors[i]`` and every element is a
    unique product of generator powers (``exponent_coordinates`` checks it).
    """

    group: FiniteGroup
    factors: tuple[int, ...]
    generators: tuple[int, ...]

    @cached_property
    def exponent_coordinates(self) -> np.ndarray:
        """Read-only n x s: row x holds the exponents (a_1, ..., a_s) with
        x = t_1^a_1 ... t_s^a_s. Raises IdentityFailed unless every element
        is reached exactly once."""
        g, s = self.group, len(self.factors)
        # ids[i] = t_1^a_1 ... t_s^a_s for the i-th tuple in product order
        ids = np.array([g.identity_id])
        for t, m in zip(self.generators, self.factors):
            ids = g.table[ids[:, None], [g.pow(t, a) for a in range(m)]].reshape(-1)
        unique = np.array_equal(np.sort(ids), np.arange(g.order))
        _math_check(unique, "expression by generator powers is not unique")
        coords = np.empty((g.order, s), dtype=np.int64)
        coords[ids] = np.indices(self.factors).reshape(s, g.order).T
        coords.flags.writeable = False
        return coords


def _require_abelian(group: FiniteGroup) -> None:
    if not group.is_abelian:
        raise NotAbelian(f"{group.label} is not abelian")


def decompose(group: FiniteGroup) -> AbelianDecomposition:
    """Invariant-factor decomposition with explicit generators.

    Repeatedly split off the cyclic subgroup <t> generated by the least id
    t of maximal order m in the current complement C, and replace C by the
    lexicographically least complement of <t> in C. A cyclic subgroup of
    maximal order is a direct summand, and so is its image in C/K for
    any subgroup K of C meeting <t> trivially; so every such K extends to
    a complement. The least complement is therefore built greedily: walk
    C in id order, adjoining x whenever <K, x> still meets <t> trivially,
    until K has order |C|/m. Every order in the complement divides m, so
    the loop yields the ascending chain directly.
    """
    _require_abelian(group)
    if group.order > DECOMPOSE_VERIFY_BOUND:
        raise EnumerationBoundExceeded(
            f"|G|={group.order} exceeds decomposition bound {DECOMPOSE_VERIFY_BOUND}"
        )
    factors_desc: list[int] = []
    generators_desc: list[int] = []

    current = np.arange(group.order)
    while current.size > 1:
        orders = group.element_orders[current]
        m = int(orders.max())
        t = int(current[np.argmax(orders)])
        factors_desc.append(m)
        generators_desc.append(t)
        current = _least_complement(group, current, t, current.size // m)

    factors = tuple(reversed(factors_desc))
    generators = tuple(reversed(generators_desc))
    dec = AbelianDecomposition(group, factors, generators)

    _math_check(math.prod(factors) == group.order, "invariant factors must multiply to the order")
    for m, t in zip(factors, generators):
        _math_check(group.element_order(t) == m, f"generator {t} must have order {m}")
    dec.exponent_coordinates  # raises unless each element is reached exactly once
    return dec


def _least_complement(group: FiniteGroup, current: np.ndarray, t: int, want: int) -> np.ndarray:
    """The lexicographically least subgroup of order ``want`` in the
    subgroup ``current`` (sorted ids) that meets <t> trivially, as sorted
    ids; ``want`` is |current| / |<t>| and <t> is a direct summand."""
    table, e = group.table, group.identity_id
    in_cyclic = np.zeros(group.order, dtype=bool)
    in_cyclic[list(group.subgroup_generated([t]).members)] = True
    span = np.array([e])
    in_span = np.zeros(group.order, dtype=bool)
    in_span[e] = True
    for x in current.tolist():
        if span.size == want:
            break
        if in_span[x]:
            continue
        # <K, x> is the union of the cosets K x^k up to the first x^k in K
        cosets, y = [], x
        while not in_span[y]:
            cosets.append(table[span, y])
            y = table[y, x]
        grown = np.concatenate(cosets)
        if not in_cyclic[grown].any():
            span = np.concatenate([span, grown])
            in_span[grown] = True
    _math_check(span.size == want, "maximal-order cyclic factor must split off")
    return np.sort(span)


# -- quotients of G^ab in coordinates ------------------------------------------


@dataclass(frozen=True, eq=False)
class QuotientBasis:
    """G/H as Z/m_1 x ... x Z/m_s with m_1 | ... | m_s, for H between
    [G,G] and G.

    ``lifts[i]`` is an element of G whose coset generates the i-th factor,
    and ``coords`` (n x s, read-only) holds the exponents (a_1, ..., a_s)
    with g H = t_1^a_1 ... t_s^a_s H for every element g of G.
    """

    factors: tuple[int, ...]
    lifts: tuple[int, ...]
    coords: np.ndarray


@dataclass(frozen=True, eq=False)
class AbelianCoordinates:
    """G^ab = Z/e_1 x ... x Z/e_r read on the elements of G.

    ``coords`` (n x r) holds the exponents of each element's image in G^ab
    over the generators of ``decompose(G^ab)``, and ``least[c]`` the least
    id of G whose coordinates have the mixed-radix index c (the last
    coordinate varies fastest). Both are read-only int64 arrays.
    """

    factors: tuple[int, ...]
    coords: np.ndarray
    least: np.ndarray

    @cached_property
    def _rows(self) -> list[list[int]]:
        return self.coords.tolist()

    def quotient_basis(self, members, index: int) -> QuotientBasis:
        """G/H for the subgroup H between [G,G] and G with these members
        and this index, with no quotient table.

        H's image in G^ab is the lattice L spanned by the rows diag(e) and
        the coordinate rows of H's members. Those rows are reduced to an
        upper-triangular Hermite basis of L in id order until the diagonal
        multiplies to ``index``; its Smith form U M V = diag(m) gives the
        invariant factors, the coordinates (x V) mod m of every element
        and the lifts, the rows of V^-1 (Cohen, *A Course in Computational
        Algebraic Number Theory*, 2.4). The product of the factors equals
        ``index`` exactly when L is H's whole image; the caller checks it.
        """
        hermite = _hermite_basis(self.factors, map(self._rows.__getitem__, members), index)
        smith = _smith_form(hermite)
        factors = tuple(m for m, _, _ in smith)
        strides = _strides(self.factors)
        lifts = tuple(
            self.least.item(sum(x % e * w for x, e, w in zip(row, self.factors, strides)))
            for _, _, row in smith
        )
        # column i of V, reduced mod m_i, gives the i-th coordinate
        columns = np.array(
            [[x % m for x in column] for m, column, _ in smith], dtype=np.int64
        ).reshape(len(smith), len(self.factors))
        coords = self.coords @ columns.T % np.array(factors, dtype=np.int64)
        coords.flags.writeable = False
        return QuotientBasis(factors, lifts, coords)


def _strides(factors) -> list[int]:
    """Mixed-radix place values, the last coordinate varying fastest."""
    return [math.prod(factors[j + 1 :]) for j in range(len(factors))]


def coordinates(group: FiniteGroup) -> AbelianCoordinates:
    """G^ab in coordinates, from one decomposition of G^ab, cached on the group."""
    cached = group._abelian_coordinates
    if cached is None:
        ab_group, proj = group.abelianization
        dec = decompose(ab_group)
        ab_coords = dec.exponent_coordinates
        least = np.empty(ab_group.order, dtype=np.int64)
        # a quotient's coset_reps are the least ids of the [G,G]-cosets
        reps = np.arange(group.order) if ab_group is group else ab_group.coset_reps
        least[ab_coords @ np.array(_strides(dec.factors), dtype=np.int64)] = reps
        coords = ab_coords[proj.map]
        for array in (coords, least):
            array.flags.writeable = False
        cached = group._abelian_coordinates = AbelianCoordinates(dec.factors, coords, least)
    return cached


def _hermite_basis(factors, rows, index: int) -> list[list[int]]:
    """An upper-triangular basis of the lattice spanned by diag(factors)
    and ``rows``, taken in order until the diagonal multiplies to
    ``index``. Each row enters by extended-gcd row operations, column by
    column; every entry right of a diagonal is reduced modulo its
    column's factor, which changes no lattice that contains diag(factors)."""
    r = len(factors)
    basis = [[f if i == j else 0 for j in range(r)] for i, f in enumerate(factors)]
    det = math.prod(factors)
    for row in rows:
        if det == index:
            break
        v = row
        for j in range(r):
            b = v[j]
            if not b:
                continue
            pivot = basis[j]
            a = pivot[j]
            if b % a == 0:
                k = b // a
                v = [(q - k * p) % f for p, q, f in zip(pivot, v, factors)]
                continue
            # the new pivot is g = gcd(a, b) < a <= f, so reducing every
            # entry mod f keeps it
            g, x, y = _extended_gcd(a, b)
            ag, bg = a // g, b // g
            basis[j] = [(x * p + y * q) % f for p, q, f in zip(pivot, v, factors)]
            v = [(ag * q - bg * p) % f for p, q, f in zip(pivot, v, factors)]
            det = det // a * g
    return basis


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x a + y b, for a > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _smith_form(hermite: list[list[int]]) -> list[tuple[int, list[int], list[int]]]:
    """The Smith form U M V = diag(m_1, ..., m_r), m_1 | ... | m_r, of an
    upper-triangular integer matrix M with positive diagonal (Smith 1861):
    (m_i, column i of V, row i of V^-1) for each m_i > 1, in order.

    A diagonal 1 clears its column by row operations and its row by
    column operations, which keeps M triangular. On the other rows and
    columns, the least nonzero entry becomes the pivot; row and column
    operations reduce its row and column, and a remaining entry the pivot
    does not divide is added into the pivot's row, until the pivot row
    and column are clear and the pivot divides what remains. Column
    operations are applied to V, and their inverses to W = V^-1."""
    a = [row[:] for row in hermite]
    r = len(a)
    V = [[int(i == j) for j in range(r)] for i in range(r)]
    W = [row[:] for row in V]

    # a column operation on a diagonal 1 changes only that row of W, which
    # no later operation reads and which has no factor to lift: it is skipped
    rest = []
    for t in range(r):
        if a[t][t] != 1:
            rest.append(t)
            continue
        for i in range(t):
            c = a[i][t]
            if c:
                a[i] = [x - c * y for x, y in zip(a[i], a[t])]
        # column t is now clear but for its diagonal 1
        for j in range(t + 1, r):
            q = a[t][j]
            if q:
                a[t][j] = 0
                for row in V:
                    row[j] -= q * row[t]
    # a diagonal block already in divisibility order is its own Smith form
    diagonal = [a[t][t] for t in rest]
    if all(not a[i][j] for i in rest for j in rest if i != j) and all(
        y % x == 0 for x, y in zip(diagonal, diagonal[1:])
    ):
        rest = []
    for pos, t in enumerate(rest):
        block = rest[pos:]
        while True:
            _, i, j = min((abs(a[i][j]), i, j) for i in block for j in block if a[i][j])
            a[t], a[i] = a[i], a[t]
            for row in a + V:
                row[t], row[j] = row[j], row[t]
            W[t], W[j] = W[j], W[t]
            p = a[t][t]
            clear = True
            for i in block[1:]:
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                clear = clear and not a[i][t]
            for j in block[1:]:
                q = a[t][j] // p
                if q:
                    for row in a + V:
                        row[j] -= q * row[t]
                    W[t] = [x + q * y for x, y in zip(W[t], W[j])]
                clear = clear and not a[t][j]
            if not clear:
                continue
            extra = next((i for i in block[1:] for j in block[1:] if a[i][j] % p), None)
            if extra is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[extra])]
    return [(abs(a[t][t]), [row[t] for row in V], W[t]) for t in range(r) if abs(a[t][t]) > 1]
