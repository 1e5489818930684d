"""The transfer homomorphism T_{G/H}: G -> H/[H,H] and the closed forms it
satisfies on two-step nilpotent groups.

``transfer_table`` is the one way to read T: one homomorphism-checked,
read-only int64 array per subgroup, which every check, the correcting
function and Gallagher's determinant route read. ``_fold`` is the one
producer of transfer values: it folds the coset factors of the
canonical and the shifted transversals, and checks and caches each
table it builds. A value modulo [H,H] is encoded as the minimal element
id of its [H,H]-coset, read from ``FiniteGroup.derived_classes``, the
encoding of H/[H,H] that characters and G^ab share; for abelian H that
coset is a single element, so values are elements of H itself and the
power-map identities below are plain element equalities. The correcting function
phi records the central order-<=2 defect between T(g) and g^d.

Each transfer table is checked to be a homomorphism on G x S, S the
generators of G, which proves it on G x G; conjugation covariance for
normal H is certified on S x G, and compared as a whole |G| x |G| table
only where that fails or H is not normal; the cocycle identity is
compared as whole tables. Every check keeps the first witnesses of each
failed identity through ``CheckReport.fail``.

``transfer_checks`` runs the per-subgroup checks (transversal
independence, the odd-index rule, the identities and the cocycle of the
correcting function) on many subgroups in one pass, cut into blocks of
one index whose stacked arrays stay under BLOCK_BYTES. One fold per block
gives its checked tables and its trial values, and every check of the
block reads them; every outcome in a block is the one its subgroup gives
alone, in a block of one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import abelian
from .errors import (
    HrepError,
    IdentityFailed,
    PreconditionFailed,
    unwrap,
)
from .group_core import FiniteGroup, Subgroup

# Randomly shifted transversals tried by the transversal independence check.
TRANSVERSAL_TRIALS = 10

# A report keeps this many witnesses of each failed identity.
MAX_COUNTEREXAMPLES = 10

# Equal-index instances are checked in blocks whose stacked arrays, the
# (rows, n, d) coset factors of a fold, (k, n) rows and (k, n, n) cocycle
# tables, each stay under this many bytes, so a block adds little to the
# peak memory of one instance.
BLOCK_BYTES = 1 << 18


@dataclass
class CheckReport:
    """Structured outcome of one verified identity."""

    check: str
    passed: bool
    counterexamples: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def fail(self, **counterexample) -> None:
        """Mark the check failed, keeping the witness unless its identity
        (the ``identity`` key) already has MAX_COUNTEREXAMPLES."""
        self.passed = False
        identity = counterexample.get("identity")
        kept = sum(c.get("identity") == identity for c in self.counterexamples)
        if kept < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(counterexample)

    def compare(self, lhs: np.ndarray, rhs: np.ndarray, **extra) -> None:
        """Compare two tables indexed by pairs of element ids, failing at
        the disagreeing pairs (g1, g2) in row-major order; ``extra`` keys
        (such as ``identity``) go into every counterexample."""
        for g1, g2 in np.argwhere(lhs != rhs)[:MAX_COUNTEREXAMPLES].tolist():
            self.fail(g=[g1, g2], lhs=int(lhs[g1, g2]), rhs=int(rhs[g1, g2]), **extra)

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "counterexamples": self.counterexamples,
            "stats": self.stats,
        }


def is_two_step_nilpotent(group: FiniteGroup) -> bool:
    """True iff [G, [G, G]] = {e}, i.e. commutators are central."""
    return group.center().contains_subgroup(group.commutator_subgroup())


def squares_times(group: FiniteGroup, normal: Subgroup) -> Subgroup:
    """The subgroup G^2 N generated by all squares and a normal subgroup N."""
    return group._generated_by_mask(np.concatenate([group.powers(2), np.asarray(normal.members)]))


def coabelian_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups between [G,G] and G (each is automatically normal),
    listed once per group and returned as a fresh list."""
    return list(group._coabelian_subgroups)


def transfer_instances(group: FiniteGroup) -> list[Subgroup]:
    """Abelian normal H with abelian quotient: the power-rule candidates."""
    return [h for h in coabelian_subgroups(group) if h.is_abelian]


# -- the transfer map itself ---------------------------------------------------


def transfer_table(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """T_{G/H}(g) modulo [H,H] for every g, verified to be a homomorphism.

    Each value is an element id of H: the raw transfer product when H is
    abelian, otherwise the minimal id of the product's [H,H]-coset. The
    table is folded and checked once per (G, H) by ``_fold``, in a block
    pass of ``transfer_checks`` or here on H alone with no trials, and
    kept on the group; a table that fails its check raises IdentityFailed
    and is not kept.
    """
    cached = group._transfer_table_cache.get(sub.members)
    if cached is None:
        no_trials = np.empty((1, 0, sub.index()), dtype=np.int64)
        _, (outcome,) = _fold(group, [sub], no_trials, group.derived_classes(sub)[None])
        cached = unwrap(outcome)
    return cached


def _fold(
    group: FiniteGroup, subs: Sequence[Subgroup], shifts: np.ndarray, red: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray | IdentityFailed]]:
    """(trials, tables): the (k, t, n) transfer values of the transversals
    ``t_j shifts[i, r, j]`` of each subgroup, for ``shifts`` (k, t, d)
    members of H, all subgroups of one index d, and ``red`` the (k, n)
    stack of their [H,H]-classes; and per subgroup its checked table, or
    the IdentityFailed of a table that fails.

    They are folded as one stack with the canonical transversal t of
    every subgroup. Each row is a transversal by construction, and the
    caller keeps the stack under BLOCK_BYTES, so the rows are folded as
    they are. Each canonical table not cached yet is checked by
    ``_checked_tables`` and cached if it passes."""
    cache = group._transfer_table_cache
    base = np.array([group.coset_positions(sub)[0] for sub in subs])
    k, t, d = shifts.shape
    rows = np.concatenate([base[:, None, :], group.table[base[:, None, :], shifts]], axis=1)
    raw = _transfer_fold(group, subs, rows.reshape(k * (t + 1), d))
    values = red[np.arange(k)[:, None, None], raw.reshape(k, t + 1, group.order)]
    tables = [cache.get(sub.members) for sub in subs]
    fresh = [i for i, table in enumerate(tables) if table is None]
    if fresh:
        checked = _checked_tables(group, [subs[i] for i in fresh], values[fresh, 0], red[fresh])
        for i, outcome in zip(fresh, checked):
            tables[i] = outcome
            if not isinstance(outcome, HrepError):
                cache[subs[i].members] = outcome
    return values[:, 1:], tables


def _transfer_fold(group: FiniteGroup, subs, transversals) -> np.ndarray:
    """The fold step of ``_fold``, its one caller in the package: the raw
    transfer products of every g against each row of ``transversals``, a
    k x d batch of left transversals (one representative per coset, in
    any order), as a k x n array: the product of u_j^-1 g t_j over j in
    the listed order, u_j the representative of the coset of g t_j.
    ``subs`` is as for ``FiniteGroup._coset_factors``."""
    factors = group._coset_factors(subs, transversals)
    n, flat = group.order, group.table.ravel()
    result = np.full((factors.shape[0], n), group.identity_id, dtype=np.int64)
    for j in range(factors.shape[1]):
        result = flat.take(result * n + factors[:, j])
    return result


def _checked_tables(
    group: FiniteGroup, subs: Sequence[Subgroup], values: np.ndarray, red: np.ndarray
) -> list[np.ndarray | IdentityFailed]:
    """Row i of ``values``, the transfer values of ``subs[i]`` modulo
    [H,H] as row i of ``red`` encodes them, as a read-only table if it is
    a homomorphism G -> H/[H,H] at e and on G x S, S = ``group.generators``,
    else IdentityFailed. The rows are made read-only in place, so
    ``values`` is an array of their own.

    Values are the minimal ids of their [H,H]-cosets, so equal ids are
    equal classes. By the lemma on ``FiniteGroup`` the check on G x S is
    the check on G x G; its message names no witness, so no full scan
    follows a failure."""
    table, gens, e = group.table, group.generators, group.identity_id
    rows = np.arange(len(subs))[:, None, None]
    values = np.asarray(values, dtype=np.int64)
    products = red[rows, table[values[:, :, None], values[:, None, gens]]]
    good = (values[:, e] == red[:, e]) & (values[:, table[:, gens]] == products).all(axis=(1, 2))
    values.flags.writeable = False
    return [
        row if ok else IdentityFailed("transfer values do not form a homomorphism")
        for row, ok in zip(values, good.tolist())
    ]


def _blocks(items, row_size: int):
    """Consecutive slices of ``items``, each as long as a stack of one row
    of ``row_size`` int64 values per item keeps under BLOCK_BYTES, and at
    least one item long."""
    size = max(1, BLOCK_BYTES // (8 * row_size))
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _stacked_tables(group: FiniteGroup, subs: Sequence[Subgroup]):
    """(values, errors): the (k, n) stack of ``transfer_table`` of each
    subgroup, and a list that holds the HrepError of each subgroup whose
    table raised (its row of values is then the identity) and None
    elsewhere."""
    tables: list[np.ndarray] = []
    errors: list = [None] * len(subs)
    for i, sub in enumerate(subs):
        try:
            tables.append(transfer_table(group, sub))
        except HrepError as exc:
            errors[i] = exc
            tables.append(np.full(group.order, group.identity_id, dtype=np.int64))
    return np.stack(tables), errors


def _independence_reports(
    group: FiniteGroup, subs: Sequence[Subgroup], trials: np.ndarray, values, errors
) -> list[CheckReport | HrepError]:
    """Transversal independence on subgroups of one index: the (k, t, n)
    ``trials``, folded from randomly H-shifted transversals, must agree
    with the tables ``values``. Each outcome is its report, or its entry
    of ``errors``; failures are reported in (trial, g) order."""
    size = len(subs[0])
    outcomes = list(errors)
    differs = (trials != values[:, None, :]).any(axis=(1, 2))
    for i in range(len(subs)):
        if outcomes[i] is not None:
            continue
        report = outcomes[i] = CheckReport(
            "transversal_independence",
            True,
            stats={"group": group.label, "subgroup_order": size, "trials": TRANSVERSAL_TRIALS},
        )
        if differs[i]:
            for trial, g in np.argwhere(trials[i] != values[i])[:MAX_COUNTEREXAMPLES].tolist():
                report.fail(g=g, lhs=int(trials[i, trial, g]), rhs=int(values[i, g]), trial=trial)
    return outcomes


def _shift_positions(group: FiniteGroup, size: int, seed: int) -> np.ndarray:
    """Read-only TRANSVERSAL_TRIALS x [G:H] positions into the members of
    a subgroup H of order ``size``, kept on the group per (seed, |H|).
    ``randrange(size)`` draws from the stream ``choice`` reads for a
    sequence of that length, so the shifts equal one ``choice`` of H's
    members per coset per trial. They depend only on (seed, |H|), so each
    group draws them once per subgroup order and a block of one index
    shares them."""
    key = (seed, size)
    cached = group._shift_cache.get(key)
    if cached is None:
        rng = random.Random(seed)
        draws = [rng.randrange(size) for _ in range(TRANSVERSAL_TRIALS * group.order // size)]
        cached = group._shift_cache[key] = np.array(draws, dtype=np.int64).reshape(
            TRANSVERSAL_TRIALS, -1
        )
        cached.flags.writeable = False
    return cached


# -- closed forms on two-step nilpotent groups ---------------------------------


def _power_rule_preconditions(group: FiniteGroup, sub: Subgroup) -> int:
    """Validate the shared hypotheses, returning the index d."""
    if not sub.is_abelian:
        raise PreconditionFailed("(1) H is not abelian")
    if not sub.contains_subgroup(group.commutator_subgroup()):
        raise PreconditionFailed("(2) G/H is not a group: [G,G] is not inside H")
    if not is_two_step_nilpotent(group):
        raise PreconditionFailed("(3) [G,[G,G]] is not trivial")
    return sub.index()


def _power_rule_block(
    group: FiniteGroup, subs: Sequence[Subgroup], d: int, values: np.ndarray, errors
) -> tuple[list, list]:
    """(odd-index outcomes, correcting functions) of subgroups of one index
    d in a two-step nilpotent group, each its report or value, or the
    HrepError it raises: a failed precondition first, then its entry of
    ``errors``. The odd-index outcomes are None at an even index."""
    outcomes, live = list(errors), []
    for i, sub in enumerate(subs):
        try:
            _power_rule_preconditions(group, sub)
        except HrepError as exc:
            outcomes[i] = exc
        else:
            live.append(i)
    odd = _odd_index_reports(group, d, values, outcomes) if d % 2 else [None] * len(subs)
    cfs = list(outcomes)
    if live:
        try:
            found = _correcting_block(
                group, [subs[i] for i in live], d, values[live], [errors[i] for i in live]
            )
        except HrepError as exc:
            found = [exc] * len(live)
        for i, cf in zip(live, found):
            cfs[i] = cf
    return odd, cfs


def _odd_index_reports(
    group: FiniteGroup, d: int, values: np.ndarray, errors
) -> list[CheckReport | HrepError]:
    """For abelian normal H of odd index d in a two-step nilpotent group,
    the transfer is the d-th power map; consequently [G,G]^d = {e} and G^d
    is central. Checked on the tables ``values`` of subgroups of index d,
    each outcome its report or its entry of ``errors``. The witnesses
    against [G,G]^d = {e} and G^d <= Z(G) depend on G and d alone, so a
    block finds them once and every report lists them after its own power
    witnesses."""
    outcomes = list(errors)
    live = [i for i, error in enumerate(errors) if error is None]
    if not live:
        return outcomes
    powers = group.powers(d)
    shared = _power_witnesses(group, d, powers)
    differs = (values != powers).any(axis=1)
    for i in live:
        report = outcomes[i] = CheckReport(
            "odd_index_transfer_power_rule",
            True,
            stats={"group": group.label, "index": d, "universe": group.order},
        )
        # every witness fails under the same identity key, which keeps at
        # most MAX_COUNTEREXAMPLES in all
        if differs[i]:
            for g in np.flatnonzero(values[i] != powers)[:MAX_COUNTEREXAMPLES].tolist():
                report.fail(g=g, lhs=int(values[i, g]), rhs=int(powers[g]))
        for witness in shared:
            report.fail(**witness)
    return outcomes


def _power_witnesses(group: FiniteGroup, d: int, powers: np.ndarray) -> list[dict]:
    """The first MAX_COUNTEREXAMPLES witnesses against [G,G]^d = {e}, then
    those against G^d <= Z(G), for ``powers`` the d-th power map."""
    e = group.identity_id
    derived = np.asarray(group.commutator_subgroup().members)
    witnesses = [
        {"g": x, "lhs": int(powers[x]), "rhs": e}
        for x in derived[powers[derived] != e][:MAX_COUNTEREXAMPLES].tolist()
    ]
    power_members = np.asarray(group.power_subgroup(d).members)
    outside = power_members[~group.center().mask[power_members]][:MAX_COUNTEREXAMPLES]
    # conj[c, i] = c x_i c^-1 for the i-th noncentral x_i; a noncentral
    # x has a first conjugator c that moves it
    table, inv = group.table, group.inverse
    conj = table[table[:, outside], inv[:, None]]
    for x, column in zip(outside.tolist(), conj.T):
        c = int(np.argmax(column != x))
        witnesses.append({"g": x, "lhs": int(column[c]), "rhs": x, "conjugator": c})
    return witnesses


@dataclass(frozen=True, eq=False)
class CorrectingFunction:
    """phi(g) = T(g) * (g^d)^-1: central involutions constant on
    cosets of G^2 [G,G], a read-only array indexed by element id."""

    values: np.ndarray
    index: int


def miller_lift(group: FiniteGroup, sub: Subgroup) -> int:
    """The minimal id of the coset that is the product of all elements of
    G/H, for H containing [G,G].

    G/H is abelian, so that product is the coset of the product in G of
    the coset representatives, taken in any order; no quotient table is
    built.
    """
    if not sub.contains_subgroup(group.commutator_subgroup()):
        raise PreconditionFailed("G/H is not abelian: [G,G] is not inside H")
    reps, pos = group.coset_positions(sub)
    product = group.identity_id
    for r in reps.tolist():
        product = group.mul(product, r)
    return reps.item(pos[product])


def correcting_function(group: FiniteGroup, sub: Subgroup) -> CorrectingFunction:
    """Compute phi for an abelian normal H with abelian quotient in a
    two-step nilpotent group, verifying every structural property:

    * values are central of order at most 2 and constant on G^2[G,G]-cosets;
    * G/H, read from the coordinates of G^ab (``abelian.coordinates``), is
      Z/m_1 x ... x Z/m_s with lifts t_i: the m_i multiply to [G:H] and
      each t_i^{m_i} lies in H;
    * the generator formulas T(t_i) = t_i^d [t_i^{m_i}, alpha_i] and
      T(h) = h^d [h, alpha] hold, where alpha_i and alpha are the products
      over the complement of <t_i> in G/H and over all of G/H;
    * the unique decomposition g = t_1^{a_1} ... t_s^{a_s} h multiplies
      the transfer values accordingly.

    Every property is one array test over G, raising at its first failing
    element in id order. This is ``_correcting_block`` on one subgroup.
    """
    d = _power_rule_preconditions(group, sub)
    (outcome,) = _correcting_block(group, [sub], d, *_stacked_tables(group, [sub]))
    return unwrap(outcome)


def _correcting_block(
    group: FiniteGroup, subs: list[Subgroup], d: int, values: np.ndarray, errors
) -> list[CorrectingFunction | HrepError]:
    """The correcting functions of instances of one index d, from their
    tables ``values``, as stacked (k, n) arrays: row i of every array
    belongs to ``subs[i]``, a row with an entry in ``errors`` keeps it,
    and each check below fails a live row at its first witness, in the
    order in which ``correcting_function`` lists the checks."""
    k, n = len(subs), group.order
    table, inv, e = group.table, group.inverse, group.identity_id
    errors = list(errors)
    alive = np.array([error is None for error in errors])
    rows = np.arange(k)[:, None]

    def fail(bad: np.ndarray, message) -> None:
        for i in np.flatnonzero(alive & bad.any(axis=1)).tolist():
            errors[i] = IdentityFailed(message(i, int(np.argmax(bad[i]))))
            alive[i] = False

    powers = group.powers(d)

    phi = table[values, inv[powers]]
    fail(
        ~group.central_involution_mask[phi],
        lambda i, g: f"phi({g})={phi.item(i, g)} is not a central involution",
    )
    fail(
        phi != phi[:, group.square_class_reps],
        lambda i, g: f"phi is not constant on the G^2[G,G]-coset of {g}",
    )

    # G/H read from G^ab's coordinates, padded to s columns with factor 1,
    # lift e and coordinate 0, which every product below ignores
    ab = abelian.coordinates(group)
    bases = [ab.quotient_basis(sub.members, d) for sub in subs]
    s = max(len(basis.factors) for basis in bases)
    factors = np.ones((k, s), dtype=np.int64)
    lifts = np.full((k, s), e, dtype=np.int64)
    coords = np.zeros((k, n, s), dtype=np.int64)
    for i, basis in enumerate(bases):
        width = len(basis.factors)
        factors[i, :width] = basis.factors
        lifts[i, :width] = basis.lifts
        coords[i, :, :width] = basis.coords
    fail(
        factors.prod(axis=1, keepdims=True) != d,
        lambda i, _: f"G/H has invariant factors {list(bases[i].factors)}, "
        f"whose product is not {d}",
    )
    # power[a, x] = x^a for every exponent a up to the largest factor
    power = np.empty((int(factors.max(initial=1)) + 1, n), dtype=np.int64)
    power[0] = e
    for a in range(1, power.shape[0]):
        power[a] = table[power[a - 1], np.arange(n)]
    masks = np.stack([sub.mask for sub in subs])
    lifted = power[factors, lifts]
    fail(
        ~masks[rows, lifted],
        lambda i, j: f"t_{j} (element {lifts.item(i, j)}) to the power "
        f"{factors.item(i, j)} is not in H",
    )

    # alpha_j (row j, over the factors other than j) and alpha (row s, over
    # all of them) in coordinates: the product of all elements of a product
    # of cyclic groups of order N has coordinate (N/m) * m(m-1)/2 mod m in
    # each factor Z/m
    order = factors.prod(axis=1)[:, None, None]
    outer = np.concatenate([order // factors[:, :, None], order], axis=1)
    alpha_coords = outer * (factors[:, None, :] - 1) // 2 % factors[:, None, :]
    alpha_coords[:, np.arange(s), np.arange(s)] = 0
    alphas = np.full((k, s + 1), e, dtype=np.int64)
    for j in range(s):
        alphas = table[alphas, power[alpha_coords[:, :, j], lifts[:, j, None]]]

    def commutator(x, y):
        return table[table[table[x, y], inv[x]], inv[y]]

    want = table[powers[lifts], commutator(lifted, alphas[:, :s])]
    fail(
        (values[rows, lifts] != want) & (factors > 1),
        lambda i, j: f"generator formula fails at t_{j} (element {lifts.item(i, j)})",
    )
    want = table[powers, commutator(np.arange(n), alphas[:, s:])]
    fail(masks & (values != want), lambda i, g: f"subgroup formula fails at h={g}")

    # base and acc: the products of generator powers and of their transfer
    # values over each element's coordinates; h = base^-1 g
    base = np.full((k, n), e, dtype=np.int64)
    acc = base.copy()
    generator_values = values[rows, lifts]
    for j in range(s):
        base = table[base, power[coords[:, :, j], lifts[:, j, None]]]
        acc = table[acc, power[coords[:, :, j], generator_values[:, j, None]]]
    h_of = table[inv[base], np.arange(n)]
    acc = table[acc, values[rows, h_of]]
    outside = ~masks[rows, h_of]
    fail(
        outside | (values != acc),
        lambda i, g: f"decomposition of {g} does not land in H"
        if outside[i, g]
        else f"transfer does not factor through the decomposition at {g}",
    )

    phi.flags.writeable = False
    return [
        CorrectingFunction(phi[i], d) if error is None else error
        for i, error in enumerate(errors)
    ]


def _cocycle_reports(
    group: FiniteGroup, cfs: list[CorrectingFunction], rhs: np.ndarray
) -> list[CheckReport]:
    """The cocycle reports of correcting functions of one index d, whose
    right-hand side [g1, g2]^(d(d-1)/2) is the table ``rhs``."""
    d = cfs[0].index
    e = group.identity_id
    table = group.table
    phi = np.stack([cf.values for cf in cfs])
    # phi values are involutions, so dividing is multiplying
    lhs = table[table[phi[:, table], phi[:, :, None]], phi[:, None, :]]
    differs = (lhs != rhs).any(axis=(1, 2))
    homomorphism = (lhs == e).all(axis=(1, 2))
    reports = []
    for i in range(len(cfs)):
        report = CheckReport(
            "correcting_function_cocycle",
            True,
            stats={"group": group.label, "index": d, "pairs": group.order**2},
        )
        if d % 2 == 1:
            moved = np.flatnonzero(phi[i] != e).tolist()
            report.stats["phi_trivial"] = not moved
            if moved:
                report.fail(g=moved[0], lhs=phi.item(i, moved[0]), rhs=e)
        if differs[i]:
            report.compare(lhs[i], rhs)
        report.stats["phi_is_homomorphism"] = bool(homomorphism[i])
        reports.append(report)
    return reports


def _identity_reports(
    group: FiniteGroup, subs: Sequence[Subgroup], values: np.ndarray, errors, red: np.ndarray
) -> list[CheckReport | HrepError]:
    """Conjugation covariance and the image statement on subgroups of one
    index, from their tables ``values`` and [H,H]-classes ``red``, each
    outcome its report, its entry of ``errors`` or the HrepError a
    conjugate's table raises.

    For normal H, T_{G/gHg^-1} = T_{G/H}, so covariance says that
    conjugation by every g fixes each T(g') modulo [H,H]. Conjugation by
    g preserves H, and [H,H] with it, so it acts on H/[H,H]; the action of
    a product is the composite of the actions, and every g is a word in
    the generators S. So the identity on S x G implies it on G x G: this
    certificate reads (k, |S|, n) arrays, and only a row that fails it is
    compared as a whole |G| x |G| table, which names the row-major first
    witnesses. A non-normal H is compared as that table, row g against
    the conjugate gHg^-1, with one gather per distinct conjugate.

    Likewise an element is fixed by every conjugation iff it is fixed by
    conjugation by S, so the fixed part H^{G/H} of an abelian normal H is
    read from the conjugates of every element by S, once for the block.
    """
    table, inv, gens = group.table, group.inverse, group.generators
    outcomes = list(errors)
    k, n = values.shape
    rows = np.arange(k)[:, None]
    # s T(g') s^-1 for every s in S, in (k, |S|, n)
    moved = table[table[gens[:, None], values[:, None, :]], inv[gens][:, None]]
    covariant = (red[rows[:, :, None], moved] == values[:, None, :]).all(axis=(1, 2))
    everything = np.arange(n)
    fixed = (table[table[gens[:, None], everything], inv[gens][:, None]] == everything).all(axis=0)
    masks = np.stack([sub.mask for sub in subs])
    in_fixed = masks & fixed
    outside = ~in_fixed[rows, values]
    image_ok = ~(in_fixed & ~group.center().mask).any(axis=1) & ~outside.any(axis=1)
    for i, sub in enumerate(subs):
        if outcomes[i] is not None:
            continue
        report = CheckReport(
            "transfer_identities", True, stats={"group": group.label, "subgroup_order": len(sub)}
        )
        normal = group.is_normal(sub)
        try:
            if not (normal and covariant[i]):
                _compare_conjugates(group, sub, values[i], normal, report)
        except HrepError as exc:
            outcomes[i] = exc
            continue
        report.stats["conjugation_pass"] = report.passed
        if sub.is_abelian and normal:
            report.stats["image_pass"] = bool(image_ok[i])
            if not image_ok[i]:
                report.passed = False
                for g in np.flatnonzero(outside[i])[:MAX_COUNTEREXAMPLES].tolist():
                    v = int(values[i, g])
                    movers = np.flatnonzero(table[table[:, v], inv] != v)
                    c = int(movers[0]) if movers.size else group.identity_id
                    report.fail(
                        g=g, lhs=group.conjugate(c, v), rhs=v, conjugator=c, identity="image"
                    )
        else:
            report.stats["image_pass"] = None
        outcomes[i] = report
    return outcomes


def _compare_conjugates(
    group: FiniteGroup, sub: Subgroup, base: np.ndarray, normal: bool, report: CheckReport
) -> None:
    """Conjugation covariance as one |G| x |G| table, row g against the
    conjugate gHg^-1: one gather per distinct conjugate; a normal H is its
    own only conjugate, so every row reads its one table."""
    table, inv = group.table, group.inverse
    moved = table[table[:, base], inv[:, None]]
    if normal:
        lhs = np.broadcast_to(base, moved.shape)
        rhs = group.derived_classes(sub)[moved]
    else:
        # conj[g, i] = g h_i g^-1 for the i-th member h_i of H
        conj = table[table[:, np.asarray(sub.members)], inv[:, None]]
        rows_of: dict[tuple[int, ...], list[int]] = {}
        for g, row in enumerate(np.sort(conj, axis=1).tolist()):
            rows_of.setdefault(tuple(row), []).append(g)
        lhs, rhs = np.empty_like(moved), np.empty_like(moved)
        for key, rows in rows_of.items():
            csub = sub if key == sub.members else Subgroup(group, key)
            lhs[rows] = transfer_table(group, csub)
            rhs[rows] = group.derived_classes(csub)[moved[rows]]
    report.compare(lhs, rhs, identity="conjugation")


def _furtwangler(group: FiniteGroup, report: CheckReport) -> None:
    """Furtwangler's bound on every K between [G,G] and G, added to
    ``report``: T_{G/K}(g)^{[K:[G,G]]} lies in [K,K]. The subgroups are
    compared in stacks of at most BLOCK_BYTES, with one power map per
    exponent; the witnesses are kept in (K, g) order."""
    subs = coabelian_subgroups(group)
    derived_order = len(group.commutator_subgroup())
    exponents = {len(k_sub) // derived_order for k_sub in subs}
    power_maps = {exponent: group.powers(exponent) for exponent in exponents}
    passed = True
    for chunk in _blocks(subs, group.order):
        values = np.stack([transfer_table(group, k_sub) for k_sub in chunk])
        # [K,K] is the class of the identity; its minimal id need not be
        # the identity's own id
        red = np.stack([group.derived_classes(k_sub) for k_sub in chunk])
        e = red[:, group.identity_id, None]
        power = np.stack([power_maps[len(k_sub) // derived_order] for k_sub in chunk])
        rows = np.arange(len(chunk))[:, None]
        powers = red[rows, power[rows, values]]
        failed = np.argwhere(powers != e)
        if failed.size:
            passed = False
        for i, g in failed[:MAX_COUNTEREXAMPLES].tolist():
            report.fail(
                g=g,
                lhs=int(powers[i, g]),
                rhs=int(e[i, 0]),
                identity="furtwangler",
                K=list(chunk[i].members),
            )
    report.stats["furtwangler_pass"] = passed
    report.stats["furtwangler_subgroups"] = len(subs)


class TransferChecks(NamedTuple):
    """The outcomes of ``transfer_checks``, one list per check, in the
    order of the subgroups: each a report, the HrepError it raised, or
    None where the check does not apply. The odd-index rule applies at an
    odd index, and it and the cocycle only on a two-step nilpotent group."""

    odd_index: list
    cocycle: list
    identities: list
    independence: list


def transfer_checks(group: FiniteGroup, subs: Sequence[Subgroup], *, seed: int = 0) -> TransferChecks:
    """The odd-index power rule, the cocycle of the correcting function,
    the transfer identities and transversal independence on every
    subgroup.

    The subgroups are grouped by index, and each index is cut into blocks
    whose fold stacks stay under BLOCK_BYTES: the canonical transversals
    and the TRANSVERSAL_TRIALS shifted ones of each subgroup are folded as
    one stack. Every check of a block reads one stack of its checked
    tables and one of its [H,H]-classes, and a failure fails only its own
    subgroup. The cocycle tables are compared in blocks of stacked
    (k, n, n) tables, against one right-hand side per index, read from one
    commutator table. Furtwangler's bound, a statement about every K
    between [G,G] and G, is checked once, with the first subgroup's
    identities."""
    n = group.order
    checks = TransferChecks(*([None] * len(subs) for _ in TransferChecks._fields))
    two_step = is_two_step_nilpotent(group)
    pending: dict[int, list[int]] = {}
    for pos, sub in enumerate(subs):
        pending.setdefault(sub.index(), []).append(pos)
    commutators = None
    for d, positions in pending.items():
        rhs = None
        for block in _blocks(positions, (TRANSVERSAL_TRIALS + 1) * n * d):
            block_subs = [subs[p] for p in block]
            red = np.stack([group.derived_classes(sub) for sub in block_subs])
            members = np.array([sub.members for sub in block_subs], dtype=np.int64)
            shifts = members[:, _shift_positions(group, n // d, seed)]
            trials, _ = _fold(group, block_subs, shifts, red)
            values, errors = _stacked_tables(group, block_subs)
            independence = _independence_reports(group, block_subs, trials, values, errors)
            odd = cfs = [None] * len(block)
            if two_step:
                odd, cfs = _power_rule_block(group, block_subs, d, values, errors)
                live = [i for i, cf in enumerate(cfs) if isinstance(cf, CorrectingFunction)]
                if live and rhs is None:
                    if commutators is None:
                        everything = group.elements()
                        commutators = group.commutator_table(everything, everything)
                    rhs = group.powers(d * (d - 1) // 2)[commutators]
                for chunk in _blocks(live, n * n):
                    reports = _cocycle_reports(group, [cfs[i] for i in chunk], rhs)
                    for i, report in zip(chunk, reports):
                        cfs[i] = report
            identities = _identity_reports(group, block_subs, values, errors, red)
            for outcomes, results in zip(checks, (odd, cfs, identities, independence)):
                for pos, outcome in zip(block, results):
                    outcomes[pos] = outcome
    if subs and isinstance(checks.identities[0], CheckReport):
        try:
            _furtwangler(group, checks.identities[0])
        except HrepError as exc:
            checks.identities[0] = exc
    return checks
