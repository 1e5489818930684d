"""Finite groups as Cayley tables over dense element ids 0..n-1.

Conventions used throughout the package:

* the commutator is ``[x, y] = x y x^-1 y^-1`` (the opposite convention
  would invert every commutator pairing built on top of this module);
* element ids are dense ``0..n-1`` and every subgroup is stored as a
  sorted tuple of member ids, so enumerations and reports are
  byte-stable;
* all types are immutable after construction and safe to share across
  threads: a group copies the table it is given, and every map indexed
  by element id (``table``, ``inverse``, the coset representatives and
  positions, a homomorphism's ``map``, the checked transfer table and
  the coset skeleton) is a read-only int64 array, with no tuple copy;
  element operations read them with ``.item`` and return Python ints.
  Structural data (center, commutator subgroup, lower central series,
  conjugacy classes, central involutions, the coabelian subgroups, and
  per subgroup the coset action, the least id of each [H,H]-coset (the
  one encoding of H/[H,H]), the checked transfer table, which only
  ``transfer`` folds from the coset factors, the coordinates of G^ab that
  ``abelian.coordinates`` keeps, and the positions of the random
  transversal shifts) is computed lazily and cached. The caches are
  memos of pure functions of the immutable table, so two threads that
  fill one race only to store equal values;
* [G,G] is the normal closure of the commutators of the generators,
  each later term of the lower central series is read from one
  ``commutator_table`` gather, and power subgroups from one vectorised
  power of every element;
* the quotient by the trivial subgroup, which ``quotient_by_kernel``
  takes once per group, for all its faithful pairs, shares the parent's
  validated arrays (table, inverse and generators) and the parent's
  table-only memos (element orders, exponent, conjugacy class names,
  commutativity) under a new label; the caches that hold a
  ``Subgroup`` are its own, as a subgroup names its parent. Every other
  table is validated when it is built;
* validation proves associativity at every order by Light's test, n^2
  lookups for each of at most floor(log2 n) generators; a table that
  fails it is scanned row by row, so the error names the
  lexicographically first failing triple. The zoo constructors build
  their tables as whole arrays;
* the generators Light's test proved are kept (``FiniteGroup.generators``)
  and certify every check whose domain is all of G on G x S instead of
  G x G: homomorphism checks, normality and the commutator subgroup; G is
  abelian iff they commute pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    EnumerationBoundExceeded,
    InvalidSpec,
    NotAGroup,
    NotNormal,
    math_check as _math_check,
)

# Light's test compares this many rows at a time, so its temporaries stay
# small at every order.
LIGHT_BLOCK_ROWS = 64

# Default cap for exhaustive subgroup enumeration.
SUBGROUP_ENUM_BOUND = 256


def _validate_table(table: np.ndarray):
    """Check the group axioms, returning (identity, inverse, generators),
    where the generators are the ones Light's test proved."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup(f"table has shape {table.shape}, expected square")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if table.dtype.kind not in "iu":
        raise NotAGroup(f"table entries must be integers, got dtype {table.dtype}")
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("table entries must be ids in 0..n-1")

    ref = np.arange(n)
    row_ok = (np.sort(table, axis=1) == ref).all(axis=1)
    if not row_ok.all():
        raise NotAGroup(f"row {int(np.flatnonzero(~row_ok)[0])} is not a permutation")
    col_ok = (np.sort(table, axis=0) == ref[:, None]).all(axis=0)
    if not col_ok.all():
        raise NotAGroup(f"column {int(np.flatnonzero(~col_ok)[0])} is not a permutation")

    two_sided = (table == ref).all(axis=1) & (table == ref[:, None]).all(axis=0)
    if not two_sided.any():
        raise NotAGroup("no two-sided identity element")
    identity = int(np.argmax(two_sided))

    # every row is a permutation, so it holds the identity exactly once
    inverse = np.argmax(table == identity, axis=1)
    one_sided = np.flatnonzero(table[inverse, ref] != identity)
    if one_sided.size:
        raise NotAGroup(f"element {int(one_sided[0])} has no two-sided inverse")

    generators = _light_generators(table, identity)
    if generators is None:
        _associativity_scan(table)
        # every element of an associative table passes Light's test
        _math_check(False, "Light's test failed on a table the scan found associative")
    return identity, inverse, generators


def _light_generators(table: np.ndarray, identity: int) -> list[int] | None:
    """Light's associativity test (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, section 1.2) on a Latin square with a
    two-sided identity: the elements it checked, which generate the table
    and so prove it associative, or None when one of them fails.

    An element a is good when (x a) y = x (a y) for all x, y, that is
    when ``table[table[:, a], :]`` equals ``table[:, table[a]]``, compared
    here in blocks of rows. Products of good elements are good, so it
    suffices to check a set that generates the table: greedily, the least
    id outside the closure of the good elements found so far. That closure
    is a subgroup whose cosets partition the table and which at least
    doubles with each generator, so at most floor(log2 n) elements are
    checked, n^2 lookups each.
    """
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    generators: list[int] = []
    while not reached.all():
        a = int(np.argmin(reached))
        column, row = table[:, a], table[a]
        for start in range(0, n, LIGHT_BLOCK_ROWS):
            rows = slice(start, start + LIGHT_BLOCK_ROWS)
            if not np.array_equal(table[column[rows]], np.take(table[rows], row, axis=1)):
                return None
        generators.append(a)
        reached[a] = True
        while True:
            members = np.flatnonzero(reached)
            reached[table[np.ix_(members, members)]] = True
            if np.count_nonzero(reached) in (members.size, n):
                break
    return generators


def _associativity_scan(table: np.ndarray) -> None:
    """Compare (i j) k with i (j k) row by row, raising NotAGroup at the
    first failing triple (i, j, k) in lexicographic order."""
    for i in range(table.shape[0]):
        lhs = table[table[i], :]
        rhs = table[i][table]
        if not np.array_equal(lhs, rhs):
            j, k = np.argwhere(lhs != rhs)[0]
            raise NotAGroup(
                f"associativity fails at (i,j,k)=({i},{int(j)},{int(k)})",
                triple=(i, int(j), int(k)),
            )


def _table_only(func):
    """A cached property that reads nothing but the table: a group that
    shares another group's table reads the other group's value, computed
    once for both."""

    @wraps(func)
    def get(self):
        source = self._table_source
        return func(self) if source is None else getattr(source, func.__name__)

    return cached_property(get)


class FiniteGroup:
    """A finite group given by its Cayley table, ``table[i, j] = g_i * g_j``.

    ``generators`` is S, the read-only int64 array of the elements that
    Light's test proved associative: they generate G, and there are at
    most floor(log2 n) of them (none for the trivial group). S certifies
    every identity whose domain is all of G, by this lemma:

        a map f from G to a group K with f(e) = e and f(x s) = f(x) f(s)
        for every x in G and s in S is a homomorphism.

    Proof: G is finite, so every y in G is a word s_1 ... s_k in S with no
    inverses. By induction on k, f(x y) = f(x) f(y) for every x: k = 0 is
    f(x) = f(x) f(e), and f(x y' s) = f(x y') f(s) = f(x) f(y') f(s) =
    f(x) f(y' s). So a homomorphism check reads n |S| pairs, not n^2.
    """

    def __init__(self, table, label="G", *, coset_reps=None):
        """``table`` is a Cayley table, validated here, or a FiniteGroup
        whose validated, read-only data the new group shares without
        validating it again. ``coset_reps``, set by ``quotient``, holds the
        minimal id of each quotient element's coset in the parent group."""
        # the validated group whose table this one shares, if any
        self._table_source: FiniteGroup | None = None
        if isinstance(table, FiniteGroup):
            self._table_source = table if table._table_source is None else table._table_source
            arr, inverse, identity = table.table, table.inverse, table.identity_id
            generators = table.generators
        else:
            try:
                # a copy: the caller keeps no handle on the validated table
                arr = np.array(table)
            except ValueError as exc:
                raise NotAGroup("table rows must all have the same length") from exc
            identity, inverse, generators = _validate_table(arr)
            arr = arr.astype(np.int64, copy=False)
            generators = np.array(generators, dtype=np.int64)
            for array in (arr, inverse, generators):
                array.flags.writeable = False
        self.order: int = int(arr.shape[0])
        self.table: np.ndarray = arr
        self.identity_id: int = identity
        self.inverse: np.ndarray = inverse
        self.generators: np.ndarray = generators
        self.label: str = label
        self.coset_reps: np.ndarray | None = coset_reps
        self._coset_cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        # filled by derived_classes, per nonabelian subgroup
        self._derived_cache: dict[tuple[int, ...], np.ndarray] = {}
        # filled by transfer._fold: the homomorphism-checked transfer table
        self._transfer_table_cache: dict[tuple[int, ...], np.ndarray] = {}
        # filled by abelian.coordinates: G^ab read on the elements of G
        self._abelian_coordinates = None
        self._skeleton_cache: dict[tuple[int, ...], CosetSkeleton] = {}
        # filled by heisenberg.scalar_quotient: what every pair on the
        # scalar subgroup Z reads, per Z
        self._scalar_cache: dict[tuple[int, ...], object] = {}
        # filled by heisenberg.quotient_by_kernel: G/K and its projection,
        # per kernel K
        self._reduction_cache: dict[tuple[int, ...], tuple[FiniteGroup, GroupHom]] = {}
        # filled by transfer's transversal independence check: the positions
        # of the random shifts, per (seed, |H|)
        self._shift_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- element operations -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        return self.table.item(x, y)

    def inv(self, x: int) -> int:
        return self.inverse.item(x)

    def pow(self, x: int, k: int) -> int:
        """k-th power by square-and-multiply; negative k allowed."""
        if k < 0:
            x, k = self.inverse.item(x), -k
        result = self.identity_id
        while k:
            if k & 1:
                result = self.table.item(result, x)
            x = self.table.item(x, x)
            k >>= 1
        return result

    def element_order(self, x: int) -> int:
        return self.element_orders.item(x)

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        t = self.table
        return t.item(t.item(g, x), self.inverse.item(g))

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x y x^-1 y^-1."""
        t, inv = self.table, self.inverse
        return t.item(t.item(t.item(x, y), inv.item(x)), inv.item(y))

    def commutator_table(self, xs, ys) -> np.ndarray:
        """``[x, y]`` for every x in xs (rows) and y in ys (columns)."""
        t, inv = self.table, self.inverse
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        return t[t[t[np.ix_(xs, ys)], inv[xs][:, None]], inv[ys][None, :]]

    def powers(self, k: int) -> np.ndarray:
        """``x^k`` for every element id x (k >= 0), by square-and-multiply
        over the whole id array."""
        if k < 0:
            raise InvalidSpec(f"powers needs k >= 0, got {k}")
        t = self.table
        result = np.full(self.order, self.identity_id, dtype=np.int64)
        x = np.arange(self.order)
        while k:
            if k & 1:
                result = t[result, x]
            x = t[x, x]
            k >>= 1
        return result

    def elements(self) -> range:
        return range(self.order)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"

    # -- cached structure ----------------------------------------------------

    @_table_only
    def is_abelian(self) -> bool:
        """True iff the generators commute pairwise: then each generator's
        centralizer holds S, so it is all of G, and S lies in the centre,
        which is then all of G. |S|^2 lookups, with no copy of the table."""
        gens = self.generators
        block = self.table[np.ix_(gens, gens)]
        return np.array_equal(block, block.T)

    @_table_only
    def element_orders(self) -> np.ndarray:
        """Read-only: the order of every element x, the least k with x^k = e.
        Each x walks its own powers: verify builds hundreds of small
        quotients, where one array gather per power costs more than this."""
        t, e = self.table, self.identity_id
        orders = []
        for x in range(self.order):
            k, y = 1, x
            while y != e:
                y, k = t.item(y, x), k + 1
            orders.append(k)
        orders = np.array(orders, dtype=np.int64)
        orders.flags.writeable = False
        return orders

    @_table_only
    def exponent(self) -> int:
        return math.lcm(*self.element_orders.tolist())

    def center(self) -> "Subgroup":
        return self._center

    @cached_property
    def _center(self) -> "Subgroup":
        # x is central iff its row of the table equals its column
        t = self.table
        return _subgroup_of_mask(self, (t == t.T).all(axis=1))

    def commutator_subgroup(self) -> "Subgroup":
        return self._commutator_subgroup

    @cached_property
    def _commutator_subgroup(self) -> "Subgroup":
        """[G,G] as the normal closure of the [s, t] for s, t in S, grown
        until conjugation by S maps it into itself.

        Proof: the closure N lies in [G,G]. G/N is generated by the images
        of S, which commute, so G/N is abelian and [G,G] lies in N. A
        subgroup that conjugation by S maps into itself is normal (see
        ``is_normal``), and each round that is not closed at least
        doubles the subgroup, so there are at most log2 n rounds."""
        gens = self.generators
        closure = self._generated_by_mask(self.commutator_table(gens, gens))
        while True:
            members = np.asarray(closure.members)
            conjugates = self._conjugates_by_generators(members)
            if closure.mask[conjugates].all():
                return closure
            closure = self._generated_by_mask(np.concatenate([members, conjugates.ravel()]))

    @cached_property
    def square_class_reps(self) -> np.ndarray:
        """Read-only: the least id of each element's coset of G^2[G,G],
        the subgroup generated by the squares and the commutators."""
        squares = self._generated_by_mask(
            np.concatenate([self.powers(2), np.asarray(self.commutator_subgroup().members)])
        )
        reps, pos = self.coset_positions(squares)
        first = reps[pos]
        first.flags.writeable = False
        return first

    @cached_property
    def central_involution_mask(self) -> np.ndarray:
        """Read-only: True exactly at the central elements x with x^2 = e."""
        mask = self.center().mask & (self.powers(2) == self.identity_id)
        mask.flags.writeable = False
        return mask

    def _generated_by_mask(self, ids: np.ndarray) -> "Subgroup":
        """The subgroup generated by the distinct ids in an array, marked in
        a mask rather than collected in a set. The closure adjoins only the
        ids that the earlier ones do not already generate; each of them at
        least doubles the subgroup, so there are at most log2 n."""
        mask = np.zeros(self.order, dtype=bool)
        mask[ids] = True
        inside = np.zeros(self.order, dtype=bool)
        inside[self.identity_id] = True
        gens: list[int] = []
        sub = Subgroup(self, (self.identity_id,))
        for g in np.flatnonzero(mask).tolist():
            if not inside[g]:
                gens.append(g)
                sub = self.subgroup_generated(gens)
                inside[list(sub.members)] = True
        return sub

    @_table_only
    def class_reps(self) -> np.ndarray:
        """Read-only: the minimal member of each element's conjugacy class,
        which names the class."""
        t, inv = self.table, self.inverse
        reps = np.full(self.order, -1, dtype=np.int64)
        for x in range(self.order):
            if reps[x] < 0:
                reps[t[t[:, x], inv]] = x
        reps.flags.writeable = False
        return reps

    @property
    def abelianization(self) -> tuple["FiniteGroup", "GroupHom"]:
        """G/[G,G] and its projection: ``abelianize`` on G; an abelian
        group is its own.

        Only the quotient is cached: caching (self, identity) would make
        every abelian group a reference cycle that waits for the collector.
        """
        if self.is_abelian:
            return self, GroupHom(self, self, np.arange(self.order))
        return self._abelianization

    @cached_property
    def _abelianization(self) -> tuple["FiniteGroup", "GroupHom"]:
        quot, image = self.abelianize(self.full_subgroup())
        return quot, GroupHom(self, quot, image)

    def derived_classes(self, sub: "Subgroup") -> np.ndarray:
        """Read-only: the least id of each coset x [H,H], which encodes x
        modulo [H,H] for x in H; the identity map when H is abelian. Kept
        per subgroup; for H = G, [G,G] is ``commutator_subgroup``, so no
        |G|^2 commutator table is built."""
        if self.is_abelian or (len(sub) < self.order and sub.is_abelian):
            return self._identity_map
        cached = self._derived_cache.get(sub.members)
        if cached is None:
            if len(sub) == self.order:
                derived = self.commutator_subgroup()
            else:
                derived = self._generated_by_mask(
                    self.commutator_table(sub.members, sub.members).ravel()
                )
            reps, pos = self.coset_positions(derived)
            cached = self._derived_cache[sub.members] = reps[pos]
            cached.flags.writeable = False
        return cached

    @cached_property
    def _identity_map(self) -> np.ndarray:
        ids = np.arange(self.order)
        ids.flags.writeable = False
        return ids

    def abelianize(self, sub: "Subgroup") -> tuple["FiniteGroup", np.ndarray]:
        """H/[H,H] as a validated group, read from ``derived_classes``, and
        the image of each member of H, in member order.

        Its elements are the [H,H]-cosets in H ordered by least id, which
        ``coset_reps`` holds, as ``quotient`` orders the cosets of a
        normal subgroup of G."""
        red = self.derived_classes(sub)
        members = np.asarray(sub.members, dtype=np.int64)
        # a member is its coset's least id exactly when red fixes it
        reps = members[red[members] == members]
        reps.flags.writeable = False
        local = np.full(self.order, -1, dtype=np.int64)
        local[reps] = np.arange(reps.size)
        table = local[red[self.table[np.ix_(reps, reps)]]]
        label = self.label if members.size == self.order else f"{self.label}<{members.size}>"
        quot = FiniteGroup(
            table, label=f"{label}/{{{members.size // reps.size}}}", coset_reps=reps
        )
        return quot, local[red[members]]

    @cached_property
    def _coabelian_subgroups(self) -> tuple["Subgroup", ...]:
        """Every subgroup between [G,G] and G: the subgroups of G^ab, pulled
        back, in the order ``all_subgroups`` lists them on G^ab."""
        ab_group, proj = self.abelianization
        return tuple(proj.preimage(sub.members) for sub in ab_group.all_subgroups())

    # -- subgroup machinery ---------------------------------------------------

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))

    def subgroup_generated(self, gens) -> "Subgroup":
        """Closure of the generating set under multiplication (breadth-first)."""
        # column g holds x g for every x
        columns = [self.table[:, g].tolist() for g in sorted({int(g) for g in gens})]
        members = {self.identity_id}
        frontier = [self.identity_id]
        while frontier:
            x = frontier.pop()
            for column in columns:
                y = column[x]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return Subgroup(self, tuple(sorted(members)))

    def lower_central_series(self) -> list["Subgroup"]:
        """[C^1 G, C^2 G, ...] with C^{i+1} = [C^i, G], until stabilization."""
        return list(self._lower_central_series)

    @cached_property
    def _lower_central_series(self) -> tuple["Subgroup", ...]:
        series = [self.full_subgroup()]
        nxt = self.commutator_subgroup()
        while nxt.members != series[-1].members:
            series.append(nxt)
            nxt = self._generated_by_mask(self.commutator_table(nxt.members, range(self.order)))
        return tuple(series)

    def nilpotency_class(self) -> int | None:
        series = self._lower_central_series
        if len(series[-1]) != 1:
            return None
        return len(series) - 1

    def power_subgroup(self, d: int) -> "Subgroup":
        """Subgroup generated by all d-th powers (the power set itself need
        not be closed)."""
        if d < 1:
            raise InvalidSpec(f"power subgroup needs d >= 1, got {d}")
        return self._generated_by_mask(self.powers(d))

    def is_normal(self, sub: "Subgroup") -> bool:
        """True iff s h s^-1 lies in H for every h in H and s in S.

        Proof: conjugation by s maps H into H, hence onto H, as it is
        injective and H is finite; so conjugation by s^-1 maps H onto H
        too. Conjugation by a product is the composite of conjugations,
        and every g in G is a word in S, so g H g^-1 = H."""
        if self.is_abelian or len(sub) in (1, self.order):
            return True
        return bool(sub.mask[self._conjugates_by_generators(np.asarray(sub.members))].all())

    def _conjugates_by_generators(self, members: np.ndarray) -> np.ndarray:
        """``s x s^-1`` for every s in S (rows) and x in members (columns)."""
        gens = self.generators
        return self.table[self.table[np.ix_(gens, members)], self.inverse[gens][:, None]]

    def all_subgroups(self, max_order: int = SUBGROUP_ENUM_BOUND) -> list["Subgroup"]:
        """Every subgroup, deterministically ordered by (size, member tuple).

        Closure over adjoining single elements to already-found subgroups;
        exhaustive because any subgroup arises by adding generators one at
        a time to the trivial subgroup, and adjoining g or any g s with s
        in S gives the same subgroup.
        """
        if self.order > max_order:
            raise EnumerationBoundExceeded(
                f"|G|={self.order} exceeds subgroup enumeration bound {max_order}"
            )
        # adjoin one element at a time, carrying small generating sets so
        # each closure stays linear in the subgroup produced; <S, g> =
        # <S, g s> for s in S, so one element per left coset g S is tried
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        triv = (self.identity_id,)
        seen[triv] = ()
        frontier = [triv]
        while frontier:
            new_frontier = []
            for mem in frontier:
                gens = seen[mem]
                members = np.asarray(mem)
                covered = np.zeros(self.order, dtype=bool)
                covered[members] = True
                for g in self.elements():
                    if covered[g]:
                        continue
                    covered[self.table[g, members]] = True
                    new_gens = gens + (g,)
                    bigger = self.subgroup_generated(new_gens).members
                    if bigger not in seen:
                        seen[bigger] = new_gens
                        new_frontier.append(bigger)
            frontier = new_frontier
        ordered = sorted(seen, key=lambda m: (len(m), m))
        return [Subgroup(self, m) for m in ordered]

    def quotient(self, normal: "Subgroup", label: str | None = None):
        """Quotient by a normal subgroup.

        Cosets become quotient elements ordered by minimal representative
        id. Returns (quotient group, projection homomorphism).
        """
        if normal.parent is not self:
            raise NotNormal("subgroup belongs to a different group")
        if not self.is_normal(normal):
            raise NotNormal(f"{normal.members} is not normal in {self.label}")
        qlabel = label if label is not None else f"{self.label}/{{{len(normal)}}}"
        if len(normal) == 1:
            # the same table under a new label: share the validated,
            # read-only data rather than copy and validate it again
            reps = coset_of = np.arange(self.order)
            reps.flags.writeable = False
            qtable = self
        else:
            reps, coset_of = self.coset_positions(normal)
            qtable = coset_of[self.table[np.ix_(reps, reps)]]
        quot = FiniteGroup(qtable, label=qlabel, coset_reps=reps)
        return quot, GroupHom(self, quot, coset_of)

    def coset_positions(self, sub: "Subgroup") -> tuple[np.ndarray, np.ndarray]:
        """(transversal, pos) with pos[x] = index of the coset x*H."""
        cached = self._coset_cache.get(sub.members)
        if cached is None:
            members = np.asarray(sub.members, dtype=np.int64)
            pos = np.full(self.order, -1, dtype=np.int64)
            reps: list[int] = []
            for x in range(self.order):
                if pos[x] < 0:
                    # x is the least id of its coset, which one gather fills
                    pos[self.table[x, members]] = len(reps)
                    reps.append(x)
            cached = self._coset_cache[sub.members] = (np.array(reps, dtype=np.int64), pos)
            for array in cached:
                array.flags.writeable = False
        return cached

    def _coset_factors(self, subs, transversals) -> np.ndarray:
        """The factors, k x d x n for k transversals (rows of
        ``transversals``, each listing one representative t_j per coset of
        its subgroup H in any order): ``factors[r, j, g] = u^-1 g t_j``,
        for u the representative in row r of the coset of g t_j, lies in H.

        ``subs`` is one subgroup owning every row, or a sequence of
        subgroups owning consecutive runs of rows of one length, all of
        one index d; each reads its cached ``coset_positions`` once. Every
        gather is a ``take`` from a raveled array at a flat index."""
        reps = np.asarray(transversals, dtype=np.int64)
        if isinstance(subs, Subgroup):
            subs = [subs]
        n, count = self.order, reps.shape[0]
        rows = np.arange(count)[:, None]
        # each row's coset positions, pos[r, x] = coset of x
        pos = np.stack([self.coset_positions(sub)[1] for sub in subs])
        pos = pos[rows[:, 0] // max(1, count // len(subs))]
        # n u^-1 for the representative u in row r of the coset of each x
        inverse_reps = np.empty_like(reps)
        inverse_reps[rows, pos[rows, reps]] = self.inverse[reps] * n
        inverse_of = inverse_reps[rows, pos].ravel()
        flat = self.table.ravel()
        # moved[r, j, g] = g t_j, read at g n + t_j; the arithmetic runs in
        # place, so that at most two k x d x n arrays are held at once
        moved = flat.take(np.arange(0, n * n, n) + reps[:, :, None])
        offsets = (rows * n)[:, :, None]
        moved += offsets
        looked = inverse_of.take(moved)
        moved -= offsets
        looked += moved
        del moved
        return flat.take(looked)

    def coset_skeleton(self, sub: "Subgroup") -> "CosetSkeleton":
        """The monomial skeleton of G acting on the left cosets of H."""
        key = sub.members
        cached = self._skeleton_cache.get(key)
        if cached is None:
            cached = self._build_skeleton(sub)
            self._skeleton_cache[key] = cached
        return cached

    def _build_skeleton(self, sub: "Subgroup") -> "CosetSkeleton":
        transversal, pos = self.coset_positions(sub)
        # the canonical transversal lists coset c in column c
        perm = pos[self.table[:, transversal]]
        factors = np.ascontiguousarray(self._coset_factors(sub, [transversal])[0].T)
        _math_check(
            bool(sub.mask[factors].all())
            and np.array_equal(self.table[transversal[perm], factors], self.table[:, transversal]),
            "coset skeleton: g t_j = t_perm[j] f_j with f_j in H fails",
        )
        # a permutation is odd when it has an odd number of inversions
        i, j = np.triu_indices(perm.shape[1], 1)
        odd = np.count_nonzero(perm[:, i] > perm[:, j], axis=1) % 2 == 1
        for array in (perm, factors, odd):
            array.flags.writeable = False
        return CosetSkeleton(transversal, perm, factors, odd)


@dataclass(frozen=True, eq=False)
class CosetSkeleton:
    """G acting on the left cosets of H, over the canonical transversal t.

    Read-only arrays: for every g and column j, ``g t_j = t_{perm[g, j]}
    factors[g, j]`` with ``factors[g, j]`` in H (both n x d), and
    ``odd[g]`` is the parity of the permutation ``perm[g]``.
    """

    transversal: np.ndarray
    perm: np.ndarray
    factors: np.ndarray
    odd: np.ndarray


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` stored as a sorted tuple of member ids."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(set(self.members))) != self.members:
            raise InvalidSpec("subgroup members must be sorted and duplicate-free")
        if self.members and not (0 <= self.members[0] and self.members[-1] < self.parent.order):
            raise InvalidSpec("subgroup members out of range")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        # a negative id must not wrap around to the end of the mask
        return 0 <= x < self.parent.order and self.mask.item(x)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only: True exactly at the parent ids of the members."""
        mask = np.zeros(self.parent.order, dtype=bool)
        mask[list(self.members)] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def is_abelian(self) -> bool:
        """The parent's commutativity when the parent is abelian or H = G,
        which gathers no |H|^2 block; else the block against its transpose."""
        parent = self.parent
        if parent.is_abelian or len(self.members) == parent.order:
            return parent.is_abelian
        block = parent.table[np.ix_(self.members, self.members)]
        return bool(np.array_equal(block, block.T))

    def index(self) -> int:
        return self.parent.order // len(self.members)

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return all(map(self.mask.item, other.members))


def _subgroup_of_mask(parent: FiniteGroup, mask: np.ndarray) -> Subgroup:
    return Subgroup(parent, tuple(np.flatnonzero(mask).tolist()))


@dataclass(frozen=True, eq=False)
class GroupHom:
    """A homomorphism given by its total value table on source ids, kept
    as a read-only int64 copy."""

    source: FiniteGroup
    target: FiniteGroup
    map: np.ndarray

    def __post_init__(self):
        values = np.array(self.map, dtype=np.int64)
        values.flags.writeable = False
        object.__setattr__(self, "map", values)

    def preimage(self, members) -> Subgroup:
        wanted = np.zeros(self.target.order, dtype=bool)
        wanted[list(members)] = True
        return _subgroup_of_mask(self.source, wanted[self.map])


# -- constructors --------------------------------------------------------------


def from_cayley_table(table, label="G") -> FiniteGroup:
    """Validate a raw Cayley table and wrap it as a FiniteGroup."""
    return FiniteGroup(table, label=label)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidSpec(f"cyclic group needs n >= 1, got {n}")
    table = np.add.outer(np.arange(n), np.arange(n))
    table %= n
    return FiniteGroup(table, label=f"c{n}")


def abelian_group(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups Z/m_1 x ... x Z/m_s (tuple-lex ids)."""
    factors = [int(m) for m in factors]
    if not factors or any(m < 1 for m in factors):
        raise InvalidSpec(f"abelian factors must be positive, got {factors}")
    return _product([cyclic(m) for m in factors], "ab:" + ",".join(str(m) for m in factors))


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given order 2n; element a^i b^j has id 2*i + j."""
    if order < 2 or order % 2:
        raise InvalidSpec(f"dihedral group needs an even order >= 2, got {order}")
    return FiniteGroup(_semidirect_by_sign(order // 2, 0), label=f"d{order}")


def quaternion8() -> FiniteGroup:
    """Quaternion group of order 8; element a^i b^j (a^4=e, b^2=a^2) has id 2*i + j."""
    return FiniteGroup(_semidirect_by_sign(4, 2), label="q8")


def _semidirect_by_sign(n: int, b_squared: int) -> np.ndarray:
    """The table of <a, b | a^n, b^2 = a^b_squared, b a b^-1 = a^-1>, where
    a^i b^j has id 2*i + j, built in place:
    a^i1 b^j1 a^i2 b^j2 = a^(i1 + (-1)^j1 i2 + j1 j2 b_squared) b^(j1 + j2)."""
    x = np.arange(2 * n)
    i, j = x // 2, x % 2
    table = np.multiply.outer(1 - 2 * j, i)
    table += i[:, None]
    table += np.multiply.outer(j, j * b_squared)
    table %= n
    table *= 2
    table += j[:, None] ^ j
    return table


def heisenberg_mod(n: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z/n; (a,b,c) has id a*n^2 + b*n + c."""
    if n < 1:
        raise InvalidSpec(f"heisenberg group needs n >= 1, got {n}")
    x = np.arange(n**3)
    a, b, c = x // (n * n), x // n % n, x % n
    # (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2 + a1 c2, c1 + c2), one
    # digit at a time, with at most one temporary beside the table
    table = np.multiply.outer(a, c)
    table += b[:, None]
    table += b
    table %= n
    table *= n
    digit = np.add.outer(a, a)
    digit %= n
    digit *= n * n
    table += digit
    np.add.outer(c, c, out=digit)
    digit %= n
    table += digit
    return FiniteGroup(table, label=f"heis{n}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, math.isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


def extraspecial_p3_exp_p2(p: int) -> FiniteGroup:
    """The order-p^3 group of exponent p^2: <a, b | a^(p^2), b^p, bab^-1 = a^(1+p)>.

    Element a^i b^j has id i*p + j.
    """
    if not _is_prime(p):
        raise InvalidSpec(f"extraspecial construction needs a prime, got {p}")
    p2 = p * p
    # powers of the twist 1+p modulo p^2, indexed by j
    twist = np.array([pow(1 + p, j, p2) for j in range(p)])
    x = np.arange(p2 * p)
    i, j = x // p, x % p
    # a^i1 b^j1 a^i2 b^j2 = a^(i1 + i2 (1+p)^j1) b^(j1 + j2), built in place
    table = np.multiply.outer(twist[j], i)
    table += i[:, None]
    table %= p2
    table *= p
    digit = np.add.outer(j, j)
    digit %= p
    table += digit
    return FiniteGroup(table, label=f"es_p3_exp_p2:{p}")


def direct_product(*groups: FiniteGroup) -> FiniteGroup:
    """Direct product with mixed-radix (tuple-lexicographic) element ids."""
    if not groups:
        raise InvalidSpec("direct product needs at least one factor")
    if len(groups) == 1:
        return groups[0]
    return _product(groups, "prod:" + ",".join(g.label for g in groups))


def _product(groups: Sequence[FiniteGroup], label: str) -> FiniteGroup:
    """The product table, where (x_1, ..., x_k) has the mixed-radix id
    (...(x_1 n_2 + x_2) n_3 + ...) + x_k; validated once, as a whole."""
    table = np.zeros((1, 1), dtype=np.int64)
    for g in groups:
        n = g.order
        table = table[:, None, :, None] * n + g.table[None, :, None, :]
        table = table.reshape(table.shape[0] * n, -1)
    return FiniteGroup(table, label=label)


def central_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Central product identifying the unique central involutions of the factors.

    Each factor must have exactly one central element of order 2.
    """
    za = _unique_central_involution(a)
    zb = _unique_central_involution(b)
    prod = _product((a, b), f"prod:{a.label},{b.label}")
    diag = prod.subgroup_generated([za * b.order + zb])
    quot, _ = prod.quotient(diag, label=f"cp:{a.label},{b.label}")
    return quot


def _unique_central_involution(g: FiniteGroup) -> int:
    found = [x for x in np.flatnonzero(g.central_involution_mask).tolist() if x != g.identity_id]
    if len(found) != 1:
        raise InvalidSpec(
            f"{g.label} has {len(found)} central involutions, central product needs exactly 1"
        )
    return found[0]


def from_name(name: str) -> FiniteGroup:
    """The group a builtin zoo name denotes: ``cN``, ``dN``, ``q8``,
    ``heisN``, ``es_p3_exp_p2:P``, ``ab:m1,m2,...``, ``prod:<name>,...``
    or ``cp:<name>,<name>``; the group's label spells the name."""
    name = name.strip()
    try:
        if name == "q8":
            return quaternion8()
        if name.startswith("cp:"):
            parts = name[3:].split(",")
            if len(parts) != 2:
                raise InvalidSpec(f"central product takes two factors, got {name!r}")
            return central_product(from_name(parts[0]), from_name(parts[1]))
        if name.startswith("prod:"):
            return direct_product(*[from_name(p) for p in name[5:].split(",")])
        if name.startswith("ab:"):
            return abelian_group([int(m) for m in name[3:].split(",")])
        if name.startswith("es_p3_exp_p2:"):
            return extraspecial_p3_exp_p2(int(name.split(":")[1]))
        if name.startswith("heis"):
            return heisenberg_mod(int(name[4:]))
    except ValueError as exc:
        raise InvalidSpec(f"bad builtin group name {name!r}: {exc}") from exc
    if name.startswith("c") and name[1:].isdigit():
        return cyclic(int(name[1:]))
    if name.startswith("d") and name[1:].isdigit():
        return dihedral(int(name[1:]))
    raise InvalidSpec(f"unknown builtin group name {name!r}")


def _integer(params: dict, key: str) -> int:
    """The construct parameter ``key``, which must be a JSON integer: an
    int and not a bool, never a float or string that ``int`` would coerce.
    ``construct`` reports the TypeError as InvalidSpec."""
    value = params[key]
    if type(value) is not int:
        raise TypeError(f"{key!r} must be an integer, got {value!r}")
    return value


def _integers(params: dict, key: str) -> list[int]:
    """The construct parameter ``key``, which must be a list of JSON
    integers, each as ``_integer`` requires."""
    values = params[key]
    if type(values) is not list or any(type(value) is not int for value in values):
        raise TypeError(f"{key!r} must be a list of integers, got {values!r}")
    return values


_FAMILIES = {
    "cyclic": lambda params: cyclic(_integer(params, "n")),
    "dihedral": lambda params: dihedral(_integer(params, "order")),
    "quaternion8": lambda params: quaternion8(),
    "heisenberg_mod": lambda params: heisenberg_mod(_integer(params, "n")),
    "extraspecial_p3_exp_p2": lambda params: extraspecial_p3_exp_p2(_integer(params, "p")),
    "abelian": lambda params: abelian_group(_integers(params, "factors")),
    "direct_product": lambda params: direct_product(
        *[construct_spec(f) for f in params["factors"]]
    ),
    "central_product": lambda params: _central_product_spec(params["factors"]),
}


def _central_product_spec(factor_specs) -> FiniteGroup:
    if len(factor_specs) != 2:
        raise InvalidSpec("central product takes exactly two factors")
    return central_product(construct_spec(factor_specs[0]), construct_spec(factor_specs[1]))


def construct(family: str, params: dict | None = None) -> FiniteGroup:
    """Build a group from one of the named constructor families."""
    builder = _FAMILIES.get(family)
    if builder is None:
        raise InvalidSpec(f"unknown group family {family!r}")
    try:
        return builder(params or {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad parameters for family {family!r}: {exc}") from exc


def construct_spec(spec: dict) -> FiniteGroup:
    """Build a group from a {"family": ..., "params": {...}} mapping."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise InvalidSpec(f"group spec must be a mapping with a 'family' key, got {spec!r}")
    return construct(spec["family"], spec.get("params", {}))
