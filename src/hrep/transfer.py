"""The transfer homomorphism T_{G/H}: G -> H/[H,H] and the closed forms it
satisfies on two-step nilpotent groups.

``transfer_table`` is the one way to read T: one homomorphism-checked,
read-only int64 array per subgroup, from the group's cached raw products.
A value modulo [H,H] is encoded as the minimal element id of its
[H,H]-coset; for abelian H that coset is a single element, so values are
elements of H itself and the power-map identities below are plain
element equalities. The correcting function phi records the central
order-<=2 defect between T(g) and g^d.

Pairwise identities are compared as whole |G| x |G| tables, and every
check keeps the first witnesses of each failed identity through
``CheckReport.fail``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import abelian
from .errors import IdentityFailed, PreconditionFailed, math_check as _math_check
from .group_core import FiniteGroup, Subgroup

# Randomly shifted transversals tried by transversal_independence_check.
TRANSVERSAL_TRIALS = 10

# A report keeps this many witnesses of each failed identity.
MAX_COUNTEREXAMPLES = 10


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


def _mod_derived(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """red[x]: the minimal id of the coset x [H,H], which encodes x modulo
    [H,H] for x in H; the identity map when H is abelian."""
    if sub.is_abelian:
        return np.arange(group.order)
    commutators = group.commutator_table(sub.members, sub.members)
    derived = group._generated_by_mask(commutators.ravel())
    reps, pos = group.coset_positions(derived)
    return reps[pos]


def transfer_table(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """T_{G/H}(g) modulo [H,H] for every g, verified to be a homomorphism.

    Each value is an element id of H: the raw transfer product when H is
    abelian, otherwise the minimal id of the product's [H,H]-coset. The
    table is built and checked once per (G, H) and kept on the group.
    """
    cached = group._transfer_table_cache.get(sub.members)
    if cached is None:
        cached = group._transfer_table_cache[sub.members] = _checked_transfer_table(group, sub)
    return cached


def _checked_transfer_table(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """``transfer_table`` built from the raw products and checked."""
    red = _mod_derived(group, sub)
    values = red[group.transfer_products(sub)]
    table = group.table
    _math_check(
        np.array_equal(values[table], red[table[np.ix_(values, values)]]),
        "transfer values do not form a homomorphism",
    )
    values.flags.writeable = False
    return values


def transfer_values_with_transversal(
    group: FiniteGroup, sub: Subgroup, transversals
) -> np.ndarray:
    """Transfer values (canonicalized) against each row of a k x d batch of
    explicit left transversals, as a k x n array from one fold.

    Used to confirm independence of the transversal choice.
    """
    _, pos = group.coset_positions(sub)
    rows = np.asarray(transversals, dtype=np.int64)
    d = sub.index()
    if (
        rows.ndim != 2
        or rows.shape[1] != d
        or not (np.sort(pos[rows], axis=1) == np.arange(d)).all()
    ):
        raise PreconditionFailed("not a left transversal: one representative per coset required")
    return _mod_derived(group, sub)[group.transfer_fold(sub, rows)]


def transversal_independence_check(
    group: FiniteGroup, sub: Subgroup, *, seed: int = 0
) -> CheckReport:
    """Recompute transfer with randomly H-shifted transversals; values must agree.

    The shifts are drawn trial by trial, coset by coset, and all trials
    are folded at once; failures are reported in (trial, g) order.
    """
    base_t, _ = group.coset_positions(sub)
    reference = transfer_table(group, sub)
    rng = random.Random(seed)
    report = CheckReport(
        "transversal_independence",
        True,
        stats={"group": group.label, "subgroup_order": len(sub), "trials": TRANSVERSAL_TRIALS},
    )
    shifts = [[rng.choice(sub.members) for _ in base_t] for _ in range(TRANSVERSAL_TRIALS)]
    shifted = group.table[base_t[None, :], np.asarray(shifts)]
    values = transfer_values_with_transversal(group, sub, shifted)
    for trial, g in np.argwhere(values != reference)[:MAX_COUNTEREXAMPLES].tolist():
        report.fail(g=g, lhs=int(values[trial, g]), rhs=int(reference[g]), trial=trial)
    return report


# -- closed forms on two-step nilpotent groups ---------------------------------


def _power_rule_preconditions(group: FiniteGroup, sub: Subgroup, *, need_odd: bool) -> int:
    """Validate the shared hypotheses, returning the index d."""
    if not sub.is_abelian:
        raise PreconditionFailed("(1) H is not abelian")
    if not sub.contains_subgroup(group.commutator_subgroup()):
        raise PreconditionFailed("(2) G/H is not a group: [G,G] is not inside H")
    d = sub.index()
    if need_odd and d % 2 == 0:
        raise PreconditionFailed(f"(2) G/H must have odd order, got d={d}")
    if not is_two_step_nilpotent(group):
        raise PreconditionFailed("(3) [G,[G,G]] is not trivial")
    return d


def check_odd_index_transfer(group: FiniteGroup, sub: Subgroup) -> CheckReport:
    """For abelian normal H of odd index d in a two-step nilpotent group,
    the transfer is the d-th power map; consequently [G,G]^d = {e} and
    G^d is central."""
    d = _power_rule_preconditions(group, sub, need_odd=True)
    report = CheckReport(
        "odd_index_transfer_power_rule",
        True,
        stats={"group": group.label, "index": d, "universe": group.order},
    )
    # every loop below fails under the same identity key, which keeps at
    # most MAX_COUNTEREXAMPLES witnesses in all, so each passes on no more
    values = transfer_table(group, sub)
    powers = group.powers(d)
    for g in np.flatnonzero(values != powers)[:MAX_COUNTEREXAMPLES].tolist():
        report.fail(g=g, lhs=int(values[g]), rhs=int(powers[g]))
    e = group.identity_id
    derived = np.asarray(group.commutator_subgroup().members)
    for x in derived[powers[derived] != e][:MAX_COUNTEREXAMPLES].tolist():
        report.fail(g=x, lhs=int(powers[x]), rhs=e)
    power_members = np.asarray(group.power_subgroup(d).members)
    outside = power_members[~group.center().mask[power_members]][:MAX_COUNTEREXAMPLES]
    # conj[c, i] = c x_i c^-1 for the i-th noncentral x_i; a noncentral
    # x has a first conjugator c that moves it
    table, inv = group.table, group.inverse
    conj = table[table[:, outside], inv[:, None]]
    for x, column in zip(outside.tolist(), conj.T):
        c = int(np.argmax(column != x))
        report.fail(g=x, lhs=int(column[c]), rhs=x, conjugator=c)
    return report


@dataclass(frozen=True, eq=False)
class CorrectingFunction:
    """phi(g) = T(g) * (g^d)^-1: central involutions constant on
    cosets of G^2 [G,G], a read-only array indexed by element id."""

    values: np.ndarray
    index: int


def _power_row(group: FiniteGroup, x: int, m: int) -> np.ndarray:
    """x^a for a = 0, ..., m-1."""
    row = np.full(m, group.identity_id, dtype=np.int64)
    for a in range(1, m):
        row[a] = group.table[row[a - 1], x]
    return row


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
    * the generator formulas T(t_i) = t_i^d [t_i^{m_i}, alpha_i] and
      T(h) = h^d [h, alpha] hold, where alpha_i and alpha are the products
      over the complement of <t_i> in G/H and over all of G/H;
    * the unique decomposition g = t_1^{a_1} ... t_s^{a_s} h multiplies
      the transfer values accordingly.

    Every property is one array test over G, raising at its first failing
    element in id order.
    """
    d = _power_rule_preconditions(group, sub, need_odd=False)
    values = transfer_table(group, sub)
    table, inv = group.table, group.inverse
    e = group.identity_id
    powers = group.powers(d)

    phi = table[values, inv[powers]]
    off = np.flatnonzero(~group.central_involution_mask[phi])
    if off.size:
        g = int(off[0])
        raise IdentityFailed(f"phi({g})={int(phi[g])} is not a central involution")

    moved = np.flatnonzero(phi != phi[group.square_class_reps])
    if moved.size:
        raise IdentityFailed(f"phi is not constant on the G^2[G,G]-coset of {moved[0]}")

    quot, proj = group.quotient(sub)
    dec = abelian.decompose(quot)
    reps = quot.coset_reps
    lifts = reps[list(dec.generators)].tolist()

    # alpha = product over all of G/H; alpha_i = product over the complement of <t_i>
    alpha_lift = miller_lift(group, sub)
    alpha_lifts = []
    for i in range(len(dec.factors)):
        complement = quot.subgroup_generated(dec.generators[:i] + dec.generators[i + 1 :])
        alpha_lifts.append(reps.item(abelian.subgroup_product(quot, complement.members)))

    for i, (m, t, a_i) in enumerate(zip(dec.factors, lifts, alpha_lifts)):
        want = group.mul(group.pow(t, d), group.commutator(group.pow(t, m), a_i))
        _math_check(
            values[t] == want,
            f"generator formula fails at t_{i} (element {t})",
        )
    h = np.asarray(sub.members)
    want = table[powers[h], group.commutator_table(h, [alpha_lift])[:, 0]]
    off = h[values[h] != want]
    if off.size:
        raise IdentityFailed(f"subgroup formula fails at h={off[0]}")

    # coords[g, i] = a_i in g H = t_1^{a_1} ... t_s^{a_s} H; base is that
    # product of generator powers and acc the same product of their
    # transfer values, each read from a per-generator power row
    coords = dec.exponent_coordinates[proj.map]
    base = np.full(group.order, e, dtype=np.int64)
    acc = base.copy()
    for i, (m, t) in enumerate(zip(dec.factors, lifts)):
        base = table[base, _power_row(group, t, m)[coords[:, i]]]
        acc = table[acc, _power_row(group, int(values[t]), m)[coords[:, i]]]
    h_of = table[inv[base], np.arange(group.order)]
    acc = table[acc, values[h_of]]
    outside = ~sub.mask[h_of]
    bad = np.flatnonzero(outside | (values != acc))
    if bad.size:
        g = int(bad[0])
        if outside[g]:
            raise IdentityFailed(f"decomposition of {g} does not land in H")
        raise IdentityFailed(f"transfer does not factor through the decomposition at {g}")

    phi.flags.writeable = False
    return CorrectingFunction(phi, d)


def check_correcting_cocycle(group: FiniteGroup, sub: Subgroup) -> CheckReport:
    """phi(g1 g2) / (phi(g1) phi(g2)) = [g1, g2]^(d(d-1)/2) for all pairs;
    for odd d, phi is identically trivial."""
    cf = correcting_function(group, sub)
    d = cf.index
    exponent = d * (d - 1) // 2
    e = group.identity_id
    report = CheckReport(
        "correcting_function_cocycle",
        True,
        stats={"group": group.label, "index": d, "pairs": group.order**2},
    )
    table, phi = group.table, cf.values
    if d % 2 == 1:
        moved = np.flatnonzero(phi != e).tolist()
        report.stats["phi_trivial"] = not moved
        if moved:
            report.fail(g=moved[0], lhs=phi.item(moved[0]), rhs=e)
    # phi values are involutions, so dividing is multiplying
    lhs = table[table[phi[table], phi[:, None]], phi[None, :]]
    everything = group.elements()
    report.compare(lhs, group.powers(exponent)[group.commutator_table(everything, everything)])
    report.stats["phi_is_homomorphism"] = bool((lhs == e).all())
    return report


def check_transfer_identities(
    group: FiniteGroup, sub: Subgroup, *, include_furtwangler: bool = True
) -> CheckReport:
    """Three classical identities. Conjugation covariance
    T_{G/gHg^-1}(g') = g T_{G/H}(g') g^-1 holds for every subgroup; the
    image statement Im(T) <= H^{G/H} <= Z(G) needs H abelian normal;
    Furtwangler's bound T_{G/K}(g)^{[K:[G,G]]} = 1 runs over every K
    between [G,G] and G."""
    report = CheckReport(
        "transfer_identities", True, stats={"group": group.label, "subgroup_order": len(sub)}
    )

    table, inv = group.table, group.inverse
    members = np.asarray(sub.members)
    base = transfer_table(group, sub)
    # conj[g, i] = g h_i g^-1 for the i-th member h_i of H
    conj = table[table[:, members], inv[:, None]]

    # conjugation covariance, row g against the conjugate gHg^-1: one
    # gather per distinct conjugate, a single one when H is normal
    moved = table[table[:, base], inv[:, None]]
    rows_of: dict[tuple[int, ...], list[int]] = {}
    for g, row in enumerate(np.sort(conj, axis=1).tolist()):
        rows_of.setdefault(tuple(row), []).append(g)
    lhs, rhs = np.empty_like(moved), np.empty_like(moved)
    for key, rows in rows_of.items():
        csub = sub if key == sub.members else Subgroup(group, key)
        lhs[rows] = transfer_table(group, csub)
        rhs[rows] = _mod_derived(group, csub)[moved[rows]]
    report.compare(lhs, rhs, identity="conjugation")
    report.stats["conjugation_pass"] = bool(np.array_equal(lhs, rhs))

    # image in the fixed central part, for abelian normal H (H is its own
    # only conjugate); the fixed members are the columns of conj that no
    # conjugation moves
    if sub.is_abelian and len(rows_of) == 1:
        in_fixed = np.zeros(group.order, dtype=bool)
        in_fixed[members[(conj == members).all(axis=0)]] = True
        outside = np.flatnonzero(~in_fixed[base])
        img_ok = not (in_fixed & ~group.center().mask).any() and not outside.size
        for g in outside[:MAX_COUNTEREXAMPLES].tolist():
            v = int(base[g])
            movers = np.flatnonzero(table[table[:, v], inv] != v)
            c = int(movers[0]) if movers.size else group.identity_id
            report.fail(
                g=g, lhs=group.conjugate(c, v), rhs=v, conjugator=c, identity="image"
            )
        report.stats["image_pass"] = img_ok
        if not img_ok:
            report.passed = False
    else:
        report.stats["image_pass"] = None

    if include_furtwangler:
        furt_failures = 0
        derived_order = len(group.commutator_subgroup())
        n_checked = 0
        for k_sub in coabelian_subgroups(group):
            n_checked += 1
            exponent = len(k_sub) // derived_order
            values = transfer_table(group, k_sub)
            # [K,K] is the class of the identity; its minimal id need not be
            # the identity's own id
            red = _mod_derived(group, k_sub)
            e = int(red[group.identity_id])
            powers = red[group.powers(exponent)[values]]
            failed = np.flatnonzero(powers != e).tolist()
            furt_failures += len(failed)
            for g in failed:
                report.fail(
                    g=g, lhs=int(powers[g]), rhs=e, identity="furtwangler", K=list(k_sub.members)
                )
        report.stats["furtwangler_pass"] = furt_failures == 0
        report.stats["furtwangler_subgroups"] = n_checked
    return report
